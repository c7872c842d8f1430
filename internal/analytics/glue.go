// Package analytics implements the "glue" data paths between a DBMS and an
// external analytics runtime. The paper's configurations 3–5 differ mainly
// in this layer: "Postgres + R" and "column store + R" export query results
// through a text COPY stream that R re-parses (expensive, O(N) with a large
// constant), while "column store + UDFs" passes data to in-process UDFs with
// a binary copy (cheap). DESIGN.md §2.3 documents the one deliberate
// exception: the biclustering UDF crosses the boundary through the text path
// once per extracted bicluster, reproducing the interface problem the paper
// observed ("there seem to be some issues with this interface ... such as
// the biclustering query").
package analytics

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"strconv"

	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
)

// Glue moves data between the DBMS process and the analytics runtime,
// returning a copy the analytics side owns. Implementations differ in cost,
// not semantics: values round-trip exactly.
type Glue interface {
	Name() string
	TransferMatrix(ctx context.Context, m *linalg.Matrix) (*linalg.Matrix, error)
	TransferVector(ctx context.Context, v []float64) ([]float64, error)
}

// TextGlue serializes through a COPY-style tab-separated text stream and
// parses it back — the export/reformat path of the "+ R" configurations.
type TextGlue struct{}

// Name implements Glue.
func (TextGlue) Name() string { return "text-copy" }

// TransferMatrix implements Glue: serialize every cell to text, then parse.
func (TextGlue) TransferMatrix(ctx context.Context, m *linalg.Matrix) (*linalg.Matrix, error) {
	var buf bytes.Buffer
	buf.Grow(m.Rows * m.Cols * 8)
	w := bufio.NewWriterSize(&buf, 1<<20)
	var scratch []byte
	for i := 0; i < m.Rows; i++ {
		if i%256 == 0 {
			if err := engine.CheckCtx(ctx); err != nil {
				return nil, err
			}
		}
		row := m.Row(i)
		for j, v := range row {
			if j > 0 {
				w.WriteByte('\t')
			}
			scratch = strconv.AppendFloat(scratch[:0], v, 'g', -1, 64)
			w.Write(scratch)
		}
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	// "R side": parse the stream back into a fresh matrix.
	out := linalg.NewMatrix(m.Rows, m.Cols)
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	i := 0
	for sc.Scan() {
		if i >= m.Rows {
			return nil, fmt.Errorf("analytics: too many rows in export stream")
		}
		if i%256 == 0 {
			if err := engine.CheckCtx(ctx); err != nil {
				return nil, err
			}
		}
		line := sc.Bytes()
		row := out.Row(i)
		j, start := 0, 0
		for k := 0; k <= len(line); k++ {
			if k == len(line) || line[k] == '\t' {
				if j >= m.Cols {
					return nil, fmt.Errorf("analytics: row %d has too many fields", i)
				}
				v, err := strconv.ParseFloat(string(line[start:k]), 64)
				if err != nil {
					return nil, fmt.Errorf("analytics: parse row %d col %d: %w", i, j, err)
				}
				row[j] = v
				j++
				start = k + 1
			}
		}
		if j != m.Cols {
			return nil, fmt.Errorf("analytics: row %d has %d fields, want %d", i, j, m.Cols)
		}
		i++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if i != m.Rows {
		return nil, fmt.Errorf("analytics: got %d rows, want %d", i, m.Rows)
	}
	return out, nil
}

// TransferVector implements Glue.
func (g TextGlue) TransferVector(ctx context.Context, v []float64) ([]float64, error) {
	out, err := g.TransferMatrix(ctx, linalg.VecView(v))
	if err != nil {
		return nil, err
	}
	return out.Data, nil
}

// ZeroCopyGlue is the zero-copy UDF boundary: the analytics runtime receives
// the DBMS's matrix itself (a view over storage or a pooled gather), paying
// no transfer at all. Safe because the kernels never mutate their operands
// (view.go's aliasing contract); the engines select it on the in-process
// UDF path.
type ZeroCopyGlue struct{}

// Name implements Glue.
func (ZeroCopyGlue) Name() string { return "zero-copy" }

// TransferMatrix implements Glue: a hand-off, not a copy.
func (ZeroCopyGlue) TransferMatrix(ctx context.Context, m *linalg.Matrix) (*linalg.Matrix, error) {
	if err := engine.CheckCtx(ctx); err != nil {
		return nil, err
	}
	return m, nil
}

// TransferVector implements Glue.
func (ZeroCopyGlue) TransferVector(ctx context.Context, v []float64) ([]float64, error) {
	if err := engine.CheckCtx(ctx); err != nil {
		return nil, err
	}
	return v, nil
}

// BinaryGlue is the in-process UDF boundary: a flat binary copy.
type BinaryGlue struct{}

// Name implements Glue.
func (BinaryGlue) Name() string { return "udf-binary" }

// TransferMatrix implements Glue.
func (BinaryGlue) TransferMatrix(ctx context.Context, m *linalg.Matrix) (*linalg.Matrix, error) {
	if err := engine.CheckCtx(ctx); err != nil {
		return nil, err
	}
	return m.Clone(), nil
}

// TransferVector implements Glue.
func (BinaryGlue) TransferVector(ctx context.Context, v []float64) ([]float64, error) {
	if err := engine.CheckCtx(ctx); err != nil {
		return nil, err
	}
	out := make([]float64, len(v))
	copy(out, v)
	return out, nil
}

// TransferMatrixTimed ships x across the glue boundary under the transfer
// phase, releasing x back to the arena when the glue produced a fresh
// matrix. This is the kernel-side idiom every "+R"/UDF physical operator
// opens with; callers switch the watch to analytics themselves once their
// remaining operands have crossed. x is consumed on every path — on a
// transfer failure (e.g. cancellation mid-COPY) it is released to the
// arena, upholding the plan executor's "kernels own their matrix inputs"
// contract so aborted queries don't bleed pooled matrices to the GC.
func TransferMatrixTimed(ctx context.Context, g Glue, sw *engine.StopWatch, x *linalg.Matrix) (*linalg.Matrix, error) {
	sw.StartTransfer()
	out, err := g.TransferMatrix(ctx, x)
	if err != nil {
		linalg.PutMatrix(x)
		return nil, err
	}
	if out != x {
		linalg.PutMatrix(x)
	}
	return out, nil
}
