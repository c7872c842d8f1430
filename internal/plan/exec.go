package plan

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"github.com/genbase/genbase/internal/bicluster"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
)

// Physical is the operator surface an engine registers with the plan layer.
// Each method is one physical operator family; the generic executor wires
// them together according to the compiled DAG. Implementations keep their
// storage-native execution strategies — the column store serves selections
// from compressed columns and pivots as zero-copy views, the row store runs
// Volcano plans over heap pages, the array store gathers chunks, Hadoop runs
// MR jobs, the virtual-cluster engines run per-shard pivots on their owner
// nodes — and their configuration-specific kernel boundaries (external-R
// text glue, in-database UDFs, SQL simulation, coprocessor offload,
// gather-to-coordinator).
//
// M is the engine's matrix currency — the value a pivot produces and a
// kernel consumes. Single-node engines implement Physical[*linalg.Matrix];
// the multi-node engines implement Physical[*distlinalg.DistMatrix], whose
// pivots materialize row-block shards on the owning virtual nodes and whose
// kernels either run distributed (ScaLAPACK-style reductions) or gather to
// the coordinator. The executor never inspects M: it only threads values
// from producers to consumers, so one compiled plan drives both families.
//
// Kernel methods receive the query StopWatch because the transfer boundary
// lives inside them: a "+R" kernel banks the text-COPY cost as transfer
// before compute, the coprocessor offload books modeled device time, and the
// in-database paths go straight to analytics. All other operators are timed
// by the executor under the phase tag of their plan node. Engines whose time
// is simulated rather than measured additionally implement Timekeeper.
//
// Matrix ownership: a kernel consumes its input matrix (releasing it to the
// arena when pooled); the executor releases the covariance matrix after the
// generic TopKByAbs summary.
type Physical[M any] interface {
	// Name is the configuration name used in errors (and by Explain).
	Name() string
	// Capabilities lists the operators this engine implements. Supports is
	// derived from it — there is no per-query switch anywhere.
	Capabilities() OpSet
	// Dims returns the loaded dataset's patient and gene counts.
	Dims() (patients, genes int)
	// SelectIDs evaluates a conjunctive metadata predicate, returning
	// ascending entity ids.
	SelectIDs(ctx context.Context, table string, preds []Pred) ([]int64, error)
	// ScanFloats projects a float column (today: patients.drugresponse) in
	// id order; ids == nil means every row, otherwise the result aligns
	// with ids.
	ScanFloats(ctx context.Context, table, col string, ids []int64) ([]float64, error)
	// Pivot restructures the microarray into the engine's dense patient×gene
	// matrix currency for the given selections (nil = all).
	Pivot(ctx context.Context, patientIDs, geneIDs []int64) (M, error)
	// SampleMeans computes per-gene mean expression over the deterministic
	// patient sample (Q5's fused filter+aggregate pivot), returning the
	// means and the sample size.
	SampleMeans(ctx context.Context, step int) ([]float64, int, error)
	// GOMembers groups GO membership by term.
	GOMembers(ctx context.Context) ([][]int32, error)
	// GeneMeta projects the gene metadata Q2's final join consumes.
	GeneMeta(ctx context.Context) (engine.GeneMeta, error)

	// RunRegression fits y on [1|x], returning coefficients and R².
	RunRegression(ctx context.Context, sw *engine.StopWatch, x M, y []float64) ([]float64, float64, error)
	// RunCovariance computes the gene-gene covariance of x. The result is
	// always coordinator-local: the generic TopKByAbs summary consumes it.
	RunCovariance(ctx context.Context, sw *engine.StopWatch, x M) (*linalg.Matrix, error)
	// RunSVD computes x's top-k singular values.
	RunSVD(ctx context.Context, sw *engine.StopWatch, x M, k int, seed uint64) ([]float64, error)
	// RunBicluster extracts up to maxB biclusters from x.
	RunBicluster(ctx context.Context, sw *engine.StopWatch, x M, maxB int, seed uint64) ([]bicluster.Bicluster, error)
	// RunStats performs the per-term enrichment test over the sampled
	// means.
	RunStats(ctx context.Context, sw *engine.StopWatch, means []float64, members [][]int32, sampled int) (*engine.StatsAnswer, error)

	// PhysicalName describes the physical implementation of an operator
	// kind for plan explains (e.g. "selection-vector scan over compressed
	// columns").
	PhysicalName(k OpKind) string
}

// Describer is the matrix-currency-agnostic subset of Physical that Explain
// and the capability checks need: every Physical[M] satisfies it, so tools
// can describe an engine without naming its M.
type Describer interface {
	Name() string
	Capabilities() OpSet
	PhysicalName(k OpKind) string
}

// Timekeeper is an optional extension implemented by engines whose reported
// query time is a simulated makespan rather than the executor's wall-clock
// StopWatch (the virtual-cluster engines). The executor mirrors its StopWatch
// switches into the Timekeeper at the same node boundaries — MarkDM before a
// data-management node, MarkDone before Emit — and kernels refine their own
// phases internally, exactly as they do with the StopWatch. When an executed
// engine implements Timekeeper, the Result carries QueryTiming() instead of
// the wall-clock split.
type Timekeeper interface {
	// MarkDM attributes subsequent virtual-clock growth to data management.
	MarkDM()
	// MarkDone stops attribution (answer assembly is untimed, as with the
	// StopWatch).
	MarkDone()
	// ExecLocal runs an executor-resident step (the generic TopKByAbs
	// summary) on the coordinator's clock, so shared answer assembly has
	// the same virtual cost it had when engines hand-coded it.
	ExecLocal(fn func() error) error
	// QueryTiming returns the accumulated virtual phase split.
	QueryTiming() engine.Timing
}

// regOut carries a regression kernel's result between nodes.
type regOut struct {
	coef []float64
	r2   float64
}

// meansOut carries Q5's fused aggregate result between nodes.
type meansOut struct {
	means   []float64
	sampled int
}

// Execute runs a compiled plan against an engine's physical operators,
// producing the same engine.Result the hardcoded query methods used to
// build. The StopWatch phase switches happen at node boundaries per the
// plan's phase tags; kernels refine their own phases internally.
func Execute[M any](ctx context.Context, ex Physical[M], pl *Plan) (*engine.Result, error) {
	if !Supports(ex.Capabilities(), pl.Query) {
		return nil, engine.ErrUnsupported
	}
	tk, _ := any(ex).(Timekeeper)
	var sw engine.StopWatch
	vals := make([]any, len(pl.Nodes))
	var answer any
	for i := range pl.Nodes {
		n := &pl.Nodes[i]
		if err := engine.CheckCtx(ctx); err != nil {
			releaseLive(vals)
			return nil, err
		}
		if n.Kind == OpEmit {
			sw.Stop()
			if tk != nil {
				tk.MarkDone()
			}
		} else if n.Phase == PhaseDM {
			sw.StartDM()
			if tk != nil {
				tk.MarkDM()
			}
		}
		v, err := executeNode(ctx, ex, tk, &sw, n, vals)
		// Kernels and the TopK summary take ownership of their matrix
		// inputs and release them to the arena on every path, success or
		// failure (transfer failures included — see TransferMatrixTimed);
		// clear the slots so the error sweep below cannot double-release.
		if consumesMatrixInputs(n.Kind) {
			for _, idx := range n.Inputs {
				if idx >= 0 {
					if _, ok := vals[idx].(*linalg.Matrix); ok {
						vals[idx] = nil
					} else if _, ok := vals[idx].(M); ok {
						vals[idx] = nil
					}
				}
			}
		}
		if err != nil {
			releaseLive(vals)
			return nil, err
		}
		vals[i] = v
		if n.Kind == OpEmit {
			answer = v
		}
	}
	sw.Stop()
	timing := sw.Timing()
	if tk != nil {
		tk.MarkDone()
		timing = tk.QueryTiming()
	}
	return &engine.Result{Query: pl.Query, Timing: timing, Answer: answer}, nil
}

// consumesMatrixInputs reports whether a node's physical implementation
// takes ownership of its matrix inputs.
func consumesMatrixInputs(k OpKind) bool {
	switch k {
	case OpKernelRegression, OpKernelCovariance, OpKernelSVD, OpKernelBicluster, OpTopKByAbs:
		return true
	}
	return false
}

// releaseLive returns any still-unconsumed pooled matrices to the arena on
// an abandoned execution (error or cancellation between a pivot and its
// kernel) — a no-op for storage views and for distributed shard sets, which
// are not pooled. Without this, every aborted query would bypass the arena
// and force fresh allocations on the next pivot.
func releaseLive(vals []any) {
	for _, v := range vals {
		if m, ok := v.(*linalg.Matrix); ok && m != nil {
			linalg.PutMatrix(m)
		}
	}
}

func executeNode[M any](ctx context.Context, ex Physical[M], tk Timekeeper, sw *engine.StopWatch, n *Node, vals []any) (any, error) {
	in := func(slot int) any {
		idx := n.Inputs[slot]
		if idx < 0 {
			return nil
		}
		return vals[idx]
	}
	ids := func(slot int) []int64 {
		v := in(slot)
		if v == nil {
			return nil
		}
		return v.([]int64)
	}
	switch n.Kind {
	case OpSelectPred:
		out, err := ex.SelectIDs(ctx, n.Table, n.Preds)
		if err != nil {
			return nil, err
		}
		if len(out) < n.MinRows {
			return nil, fmt.Errorf("%s: %s (%d rows)", ex.Name(), n.GuardMsg, len(out))
		}
		return out, nil

	case OpScanTable:
		switch {
		case n.Table == TablePatients && n.Col == ColDrugResponse:
			return ex.ScanFloats(ctx, n.Table, n.Col, ids(0))
		case n.Table == TableGenes && n.Col == ColFunction:
			return ex.GeneMeta(ctx)
		case n.Table == TableGO:
			return ex.GOMembers(ctx)
		default:
			return nil, fmt.Errorf("plan: no physical scan for %s.%s", n.Table, n.Col)
		}

	case OpSamplePatients:
		return n.Step, nil

	case OpPivotMicro:
		if n.Agg == AggColMeans {
			means, sampled, err := ex.SampleMeans(ctx, in(0).(int))
			if err != nil {
				return nil, err
			}
			return meansOut{means, sampled}, nil
		}
		return ex.Pivot(ctx, ids(0), ids(1))

	case OpKernelRegression:
		coef, r2, err := ex.RunRegression(ctx, sw, in(0).(M), in(1).([]float64))
		if errors.Is(err, linalg.ErrUnderdetermined) || errors.Is(err, linalg.ErrRankDeficient) {
			// A cohort with fewer patients than selected genes (or a singular
			// design) has no least-squares fit: the request's parameters are
			// at fault, not the engine, so it must not feed the breaker.
			return nil, fmt.Errorf("%w: regression is underdetermined: %w", engine.ErrBadParams, err)
		}
		if err != nil {
			return nil, err
		}
		return regOut{coef, r2}, nil

	case OpKernelCovariance:
		return ex.RunCovariance(ctx, sw, in(0).(M))

	case OpKernelSVD:
		return ex.RunSVD(ctx, sw, in(0).(M), n.K, n.Seed)

	case OpKernelBicluster:
		return ex.RunBicluster(ctx, sw, in(0).(M), n.MaxBiclusters, n.Seed)

	case OpKernelStats:
		mo := in(0).(meansOut)
		return ex.RunStats(ctx, sw, mo.means, in(1).([][]int32), mo.sampled)

	case OpTopKByAbs:
		cov := in(0).(*linalg.Matrix)
		var ans *engine.CovarianceAnswer
		summarize := func() error {
			ans = engine.SummarizeCovariance(cov, n.TopFrac, in(1).(engine.GeneMeta), len(ids(2)))
			return nil
		}
		// The shared summary is executor code, but on a virtual cluster it
		// still runs somewhere: charge the coordinator, as the hand-coded
		// engines did.
		var err error
		if tk != nil {
			err = tk.ExecLocal(summarize)
		} else {
			err = summarize()
		}
		linalg.PutMatrix(cov)
		if err != nil {
			return nil, err
		}
		return ans, nil

	case OpEmit:
		return emit(ex, n, in, ids)

	default:
		return nil, fmt.Errorf("plan: unknown operator %v", n.Kind)
	}
}

// emit assembles the engine-neutral answer struct. Input roles are
// positional per AnswerKind (see Compile).
func emit[M any](ex Physical[M], n *Node, in func(int) any, ids func(int) []int64) (any, error) {
	switch n.Answer {
	case AnswerRegression:
		r := in(0).(regOut)
		genes := ids(1)
		sel := make([]int, len(genes))
		for i, g := range genes {
			sel[i] = int(g)
		}
		nPats, _ := ex.Dims()
		if pats := ids(2); pats != nil {
			nPats = len(pats)
		}
		return &engine.RegressionAnswer{
			Coefficients:  r.coef,
			RSquared:      r.r2,
			SelectedGenes: sel,
			NumPatients:   nPats,
		}, nil
	case AnswerCovariance:
		return in(0).(*engine.CovarianceAnswer), nil
	case AnswerBicluster:
		return engine.BiclusterAnswerFromBlocks(in(0).([]bicluster.Bicluster), ids(1)), nil
	case AnswerSVD:
		return &engine.SVDAnswer{SelectedGenes: len(ids(1)), SingularValues: in(0).([]float64)}, nil
	case AnswerStats:
		return in(0).(*engine.StatsAnswer), nil
	default:
		return nil, fmt.Errorf("plan: unknown answer kind %d", int(n.Answer))
	}
}

// Explain renders the compiled plan with each operator's phase tag and the
// engine's physical implementation — the genbase-bench -explain output. It
// takes the currency-agnostic Describer so single-node and distributed
// engines explain through the same call.
func Explain(pl *Plan, ex Describer) string {
	return ExplainAnnotated(pl, ex, nil)
}

// ExplainAnnotated is Explain with a caller-supplied per-operator suffix —
// the hook genbase-bench uses to print each operator's estimated cost
// (internal/cost cannot be imported here: cost estimates plans, so the
// dependency points the other way). annot receives the node index and
// returns a suffix appended after the physical implementation; nil or
// empty-string results annotate nothing.
func ExplainAnnotated(pl *Plan, ex Describer, annot func(i int) string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s plan for %s (fingerprint %s)\n", ex.Name(), pl.Query, pl.Fingerprint())
	for i := range pl.Nodes {
		n := &pl.Nodes[i]
		ph := n.Phase.String()
		if n.Kind == OpEmit {
			ph = "-" // the stopwatch stops before answer assembly
		}
		suffix := ""
		if annot != nil {
			if s := annot(i); s != "" {
				suffix = "  " + s
			}
		}
		fmt.Fprintf(&b, "  #%d %-46s [%s] -> %s%s\n", i, n.describe(), ph, ex.PhysicalName(n.Kind), suffix)
	}
	return b.String()
}
