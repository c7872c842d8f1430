package arraydb

import (
	"context"
	"fmt"
	"math"

	"github.com/genbase/genbase/internal/bicluster"
	"github.com/genbase/genbase/internal/colpage"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
	"github.com/genbase/genbase/internal/plan"
)

// The array store's physical operators (plan.Physical): metadata lives in
// compressed 1-D attribute arrays, pivots are chunk-aligned single-pass
// pooled dense gathers, and the kernels run on the host — or on the
// coprocessor device model when an Accelerator is attached, which books
// modeled compute and transfer time in place of measured host time.

// Capabilities implements plan.Physical: SciDB runs every operator.
func (e *Engine) Capabilities() plan.OpSet { return plan.AllOps() }

// Dims implements plan.Physical.
func (e *Engine) Dims() (int, int) { return e.numPats, e.numGen }

// attrPage resolves an IR column to its compressed 1-D attribute array.
func (e *Engine) attrPage(table, col string) (*colpage.IntPage, error) {
	switch {
	case table == plan.TableGenes && col == plan.ColFunction,
		table == plan.TablePatients && (col == plan.ColAge || col == plan.ColGender || col == plan.ColDiseaseID):
		return e.attrPages[col], nil
	default:
		return nil, fmt.Errorf("arraydb: no attribute array for %s.%s", table, col)
	}
}

// SelectIDs implements plan.Physical (ids are array coordinates).
// Predicates push down to the encoded attribute pages (dictionary-code
// equality, RLE run skipping, packed-word range tests — DESIGN.md §15), so
// rejected coordinates are never decoded.
func (e *Engine) SelectIDs(_ context.Context, table string, preds []plan.Pred) ([]int64, error) {
	if len(preds) == 0 {
		n := e.numGen
		if table == plan.TablePatients {
			n = e.numPats
		}
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(i)
		}
		return out, nil
	}
	var sel []int32
	for i, p := range preds {
		pg, err := e.attrPage(table, p.Col)
		if err != nil {
			return nil, err
		}
		cp := colpage.Pred{Op: colpage.LT, Val: p.Val}
		if p.Op == plan.CmpEQ {
			cp.Op = colpage.EQ
		}
		if i == 0 {
			sel = pg.Select(cp, nil)
		} else {
			sel = pg.RefinePred(cp, sel)
		}
	}
	out := make([]int64, len(sel))
	for i, c := range sel {
		out[i] = int64(c)
	}
	return out, nil
}

// ScanFloats implements plan.Physical over the drug-response attribute.
func (e *Engine) ScanFloats(_ context.Context, table, col string, ids []int64) ([]float64, error) {
	if table != plan.TablePatients || col != plan.ColDrugResponse {
		return nil, fmt.Errorf("arraydb: no physical scan for %s.%s", table, col)
	}
	if ids == nil {
		return e.drugResponse, nil
	}
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = e.drugResponse[id]
	}
	return out, nil
}

// Pivot implements plan.Physical: chunk-aligned subarray gathers that land
// the selection in one pooled dense matrix in a single pass (a zero-copy
// view when the whole single-chunk array is selected). The chunked
// Gather → Materialize operators remain the multi-tile full-array fallback
// and the arraydb unit tests' reference.
func (e *Engine) Pivot(ctx context.Context, patientIDs, geneIDs []int64) (*linalg.Matrix, error) {
	var x *linalg.Matrix
	switch {
	case patientIDs == nil && geneIDs == nil:
		if v, ok := e.expr.DenseView(); ok {
			x = v
		} else {
			x = e.expr.Materialize()
		}
	case patientIDs == nil:
		x = e.expr.GatherColsDense(geneIDs)
	case geneIDs == nil:
		x = e.expr.GatherRowsDense(patientIDs)
	default:
		// Both axes selected (the cohort scenarios): gather the patient rows
		// through one scratch row, picking the selected genes.
		x = linalg.GetMatrix(len(patientIDs), len(geneIDs))
		buf := linalg.GetSlice(e.numGen)
		for i, pid := range patientIDs {
			e.expr.CopyRow(int(pid), buf)
			dst := x.Row(i)
			for j, gid := range geneIDs {
				dst[j] = buf[gid]
			}
		}
		linalg.PutSlice(buf)
	}
	if err := engine.CheckCtx(ctx); err != nil {
		linalg.PutMatrix(x)
		return nil, err
	}
	return x, nil
}

// SampleMeans implements plan.Physical: stream the sampled rows off chunked
// storage (views over a single-chunk array, else one pooled row buffer) in
// ascending patient order.
func (e *Engine) SampleMeans(_ context.Context, step int) ([]float64, int, error) {
	means := make([]float64, e.numGen)
	sampled := 0
	add := func(row []float64) {
		for j, x := range row {
			means[j] += x
		}
		sampled++
	}
	if v, ok := e.expr.DenseView(); ok {
		for pid := 0; pid < e.numPats; pid += step {
			add(v.Row(pid))
		}
	} else {
		buf := linalg.GetSlice(e.numGen)
		for pid := 0; pid < e.numPats; pid += step {
			e.expr.CopyRow(pid, buf)
			add(buf)
		}
		linalg.PutSlice(buf)
	}
	for j := range means {
		means[j] /= float64(sampled)
	}
	return means, sampled, nil
}

// GOMembers implements plan.Physical over the belongs[gene, term] array.
func (e *Engine) GOMembers(_ context.Context) ([][]int32, error) {
	members := make([][]int32, e.numTerm)
	for g := 0; g < e.numGen; g++ {
		row := e.goArr[g*e.numTerm : (g+1)*e.numTerm]
		for t, b := range row {
			if b == 1 {
				members[t] = append(members[t], int32(g))
			}
		}
	}
	return members, nil
}

// GeneMeta implements plan.Physical over the function attribute array.
func (e *Engine) GeneMeta(_ context.Context) (engine.GeneMeta, error) {
	return funcLookup{e.function}, nil
}

// RunRegression implements plan.Physical. Regression offload is unsupported
// on the coprocessor ("the Intel MKL automatic offload of this operation is
// currently not fully supported"), so Q1-shaped kernels always run on the
// host, even for the accelerated configuration.
func (e *Engine) RunRegression(_ context.Context, sw *engine.StopWatch, x *linalg.Matrix, y []float64) ([]float64, float64, error) {
	sw.StartAnalytics()
	return engine.FitLeastSquares(x, y)
}

// RunCovariance implements plan.Physical (pdgemm-style kernel, offloadable).
func (e *Engine) RunCovariance(ctx context.Context, sw *engine.StopWatch, x *linalg.Matrix) (*linalg.Matrix, error) {
	inBytes := int64(x.Rows) * int64(x.Cols) * 8
	outBytes := int64(x.Cols) * int64(x.Cols) * 8
	var cov *linalg.Matrix
	err := e.runKernel(ctx, sw, "gemm", inBytes, outBytes, func() error {
		cov = linalg.CovarianceP(x, e.Workers)
		return nil
	})
	linalg.PutMatrix(x)
	if err != nil {
		return nil, err
	}
	return cov, nil
}

// RunSVD implements plan.Physical: Lanczos over the dense AᵀA operator
// (offloadable).
func (e *Engine) RunSVD(ctx context.Context, sw *engine.StopWatch, x *linalg.Matrix, k int, seed uint64) ([]float64, error) {
	op := linalg.ATAOperator{A: x, Workers: e.Workers}
	inBytes := int64(x.Rows) * int64(x.Cols) * 8
	outBytes := int64(k) * int64(x.Cols+1) * 8
	var sv []float64
	err := e.runKernel(ctx, sw, "lanczos", inBytes, outBytes, func() error {
		eig, kerr := linalg.Lanczos(op, k,
			linalg.LanczosOptions{Reorthogonalize: true, Seed: seed, Workers: e.Workers})
		if kerr != nil {
			return kerr
		}
		sv = make([]float64, len(eig.Values))
		for i, lam := range eig.Values {
			if lam < 0 {
				lam = 0
			}
			sv[i] = math.Sqrt(lam)
		}
		return nil
	})
	linalg.PutMatrix(x)
	if err != nil {
		return nil, err
	}
	return sv, nil
}

// RunBicluster implements plan.Physical (offloadable).
func (e *Engine) RunBicluster(ctx context.Context, sw *engine.StopWatch, x *linalg.Matrix, maxB int, seed uint64) ([]bicluster.Bicluster, error) {
	var blocks []bicluster.Bicluster
	inBytes := int64(x.Rows) * int64(x.Cols) * 8
	err := e.runKernel(ctx, sw, "bicluster", inBytes, 4096, func() error {
		var kerr error
		blocks, kerr = bicluster.Run(x, bicluster.Options{MaxBiclusters: maxB, Seed: seed})
		return kerr
	})
	linalg.PutMatrix(x)
	if err != nil {
		return nil, err
	}
	return blocks, nil
}

// RunStats implements plan.Physical (rank kernel, offloadable).
func (e *Engine) RunStats(ctx context.Context, sw *engine.StopWatch, means []float64, members [][]int32, sampled int) (*engine.StatsAnswer, error) {
	var ans *engine.StatsAnswer
	inBytes := int64(len(means))*8 + int64(len(e.goArr))
	err := e.runKernel(ctx, sw, "rank", inBytes, int64(e.numTerm)*16, func() error {
		var kerr error
		ans, kerr = engine.EnrichmentTest(ctx, means, members, sampled)
		return kerr
	})
	if err != nil {
		return nil, err
	}
	return ans, nil
}

// PhysicalName implements plan.Physical.
func (e *Engine) PhysicalName(k plan.OpKind) string {
	kernel := "host BLAS-lite kernel"
	if e.Accel != nil {
		kernel = "coprocessor offload (" + e.Accel.Name() + ")"
	}
	switch k {
	case plan.OpSelectPred:
		return "encoded attribute-page pushdown"
	case plan.OpScanTable:
		return "attribute-array projection"
	case plan.OpSamplePatients:
		return "coordinate modulus"
	case plan.OpPivotMicro:
		return "chunk-aligned subarray gather"
	case plan.OpKernelRegression:
		return "host BLAS-lite kernel (offload unsupported)"
	case plan.OpKernelCovariance, plan.OpKernelSVD, plan.OpKernelBicluster, plan.OpKernelStats:
		return kernel
	case plan.OpTopKByAbs:
		return "shared covariance summary"
	case plan.OpEmit:
		return "answer assembly"
	default:
		return "unsupported"
	}
}
