// Package colstore is the "popular column store" configuration: tables are
// typed column segments compressed as internal/colpage pages (run-length,
// dictionary, and bit-packed frame-of-reference encodings), and operators
// are vectorized over selection vectors with late materialization.
// Structured predicates are pushed down to the encoded form (DESIGN.md
// §15). Like the paper's configurations 4–5 it runs in two analytics modes:
// exporting to an external R (text COPY) or calling R through an
// in-process UDF interface. Float columns are stored as plain aligned
// []float64 and can be handed to the kernels as zero-copy column views
// (FloatView); decoding through Materialize is the slow path for the
// compressed integer columns.
package colstore

import (
	"fmt"

	"github.com/genbase/genbase/internal/colpage"
	"github.com/genbase/genbase/internal/linalg"
)

// Encoding names an integer column's physical layout (the colpage
// encodings).
type Encoding = colpage.Encoding

// Column encodings.
const (
	EncRaw    = colpage.Raw
	EncRLE    = colpage.RLE
	EncDict   = colpage.Dict
	EncPacked = colpage.Packed
)

// IntColumn is a compressed immutable int64 column: one colpage segment
// spanning the whole table (colstore tables are loaded once and never
// split, so segment == column).
type IntColumn struct {
	page *colpage.IntPage
}

// BuildIntColumn compresses the values, picking the smallest of the
// colpage encodings.
func BuildIntColumn(vals []int64) *IntColumn {
	return &IntColumn{page: colpage.BuildInt(vals)}
}

// Len returns the row count.
func (c *IntColumn) Len() int { return c.page.Len() }

// Encoding returns the physical layout chosen at build time.
func (c *IntColumn) Encoding() Encoding { return c.page.Encoding() }

// At decodes one value (row access; the vectorized paths below are the fast
// ones).
func (c *IntColumn) At(i int) int64 { return c.page.At(i) }

// SelectPred appends to sel the positions where the structured predicate
// holds, evaluated directly on the encoded form — dictionary-code
// equality, RLE run skipping, packed-word range tests.
func (c *IntColumn) SelectPred(pred colpage.Pred, sel []int32) []int32 {
	return c.page.Select(pred, sel)
}

// Select appends to sel the positions where pred holds, operating on the
// compressed form (whole runs and dictionary codes are tested once).
func (c *IntColumn) Select(pred func(int64) bool, sel []int32) []int32 {
	return c.page.SelectFn(pred, sel)
}

// SelectRefine keeps only the positions of sel where pred holds (applying a
// conjunct to an existing selection vector).
func (c *IntColumn) SelectRefine(pred func(int64) bool, sel []int32) []int32 {
	return c.page.Refine(pred, sel)
}

// SelectRefinePred is SelectRefine for a structured predicate, testing
// dictionary entries and run values once.
func (c *IntColumn) SelectRefinePred(pred colpage.Pred, sel []int32) []int32 {
	return c.page.RefinePred(pred, sel)
}

// Gather decodes the values at the selected positions.
func (c *IntColumn) Gather(sel []int32, out []int64) []int64 {
	return c.page.Gather(sel, out[:0])
}

// Materialize decodes the whole column.
func (c *IntColumn) Materialize() []int64 {
	return c.page.AppendTo(make([]int64, 0, c.page.Len()))
}

// CompressedBytes is the column's encoded storage footprint.
func (c *IntColumn) CompressedBytes() int { return c.page.EncodedBytes() }

// Table is a named collection of equal-length columns.
type Table struct {
	Name string
	n    int
	ints map[string]*IntColumn
	flts map[string][]float64
}

// NewTable creates an empty n-row table.
func NewTable(name string, n int) *Table {
	return &Table{Name: name, n: n, ints: map[string]*IntColumn{}, flts: map[string][]float64{}}
}

// Len returns the row count.
func (t *Table) Len() int { return t.n }

// AddInt builds and attaches a compressed integer column.
func (t *Table) AddInt(name string, vals []int64) *Table {
	if len(vals) != t.n {
		panic(fmt.Sprintf("colstore: column %s has %d rows, table has %d", name, len(vals), t.n))
	}
	t.ints[name] = BuildIntColumn(vals)
	return t
}

// AddFloat attaches a float column (stored raw; expression values do not
// compress).
func (t *Table) AddFloat(name string, vals []float64) *Table {
	if len(vals) != t.n {
		panic(fmt.Sprintf("colstore: column %s has %d rows, table has %d", name, len(vals), t.n))
	}
	t.flts[name] = vals
	return t
}

// Int returns a compressed integer column.
func (t *Table) Int(name string) *IntColumn {
	c, ok := t.ints[name]
	if !ok {
		panic(fmt.Sprintf("colstore: no int column %q in %s", name, t.Name))
	}
	return c
}

// Float returns a float column.
func (t *Table) Float(name string) []float64 {
	c, ok := t.flts[name]
	if !ok {
		panic(fmt.Sprintf("colstore: no float column %q in %s", name, t.Name))
	}
	return c
}

// FloatView exposes a float column as an n×1 zero-copy matrix view over the
// column's backing storage — the kernels read it in place, no decode, no
// copy. The view aliases the column: see the ownership rules in
// internal/linalg/view.go.
func (t *Table) FloatView(name string) *linalg.Matrix {
	return linalg.DenseView(t.Float(name), t.n, 1)
}

// GatherFloat gathers a float column through a selection vector.
func GatherFloat(col []float64, sel []int32, out []float64) []float64 {
	out = out[:0]
	for _, i := range sel {
		out = append(out, col[i])
	}
	return out
}
