package arraydb

import (
	"context"
	"fmt"
	"time"

	"github.com/genbase/genbase/internal/colpage"
	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/plan"
)

// Engine is the SciDB configuration. An optional Accelerator offloads the
// analytics kernels (the paper's §5 Xeon Phi experiments plug in here).
type Engine struct {
	// ChunkSize overrides the default 256×256 chunking (ablation bench).
	ChunkSize int
	// Workers is the analytics-kernel worker count (0 = the GENBASE_PARALLEL
	// / NumCPU default). Answers are bitwise identical at any value; with an
	// accelerator attached it also sets the host-side kernel parallelism the
	// device model measures against.
	Workers int
	// Accel, when non-nil, runs the analytics kernels on a coprocessor
	// device model, adding transfer charges. Nil means host execution.
	Accel Accelerator

	expr *Array2D
	// 1-D attribute array indexed by patient id.
	drugResponse []float64
	// 1-D attribute array indexed by gene id.
	function []int64
	// The predicate attributes as compressed 1-D arrays (internal/colpage):
	// SelectIDs pushes structured predicates down to these.
	attrPages map[string]*colpage.IntPage
	// GO membership in array form: belongs[gene, term].
	goArr   []uint8
	numPats int
	numGen  int
	numTerm int
}

// Accelerator abstracts the coprocessor offload used by the SciDB + Xeon Phi
// configuration: it executes a kernel (for correctness) and returns the
// modeled device time plus transfer charges, which the engine books in place
// of the measured host time.
type Accelerator interface {
	Name() string
	// Offload runs kernel after charging for moving inBytes to the device
	// and outBytes back. kind names the kernel family (gemm, lanczos, rank,
	// bicluster) — accelerators speed different kernels up differently. It
	// returns the modeled device compute and transfer seconds.
	Offload(ctx context.Context, kind string, inBytes, outBytes int64, kernel func() error) (compute, transfer float64, err error)
}

// New creates an arraydb engine with default chunking.
func New() *Engine { return &Engine{} }

// Name implements engine.Engine.
func (e *Engine) Name() string {
	if e.Accel != nil {
		return "scidb-" + e.Accel.Name()
	}
	return "scidb"
}

// Supports implements engine.Engine, derived from the registered physical
// operators (ops.go): SciDB implements the full vocabulary.
func (e *Engine) Supports(q engine.QueryID) bool { return plan.Supports(e.Capabilities(), q) }

// SetWorkers pins the analytics-kernel worker count (serve.Server uses it to
// split the host's worker budget across admission slots). Call before
// concurrent queries begin.
func (e *Engine) SetWorkers(n int) { e.Workers = n }

// Close implements engine.Engine.
func (e *Engine) Close() error { return nil }

// Load implements engine.Engine: everything is stored natively as arrays.
func (e *Engine) Load(ds *datagen.Dataset) error {
	cs := e.ChunkSize
	if cs <= 0 {
		cs = DefaultChunk
	}
	e.expr = FromMatrix(ds.Expression, cs, cs)
	p := ds.Dims.Patients
	age := make([]int64, p)
	gender := make([]int64, p)
	disease := make([]int64, p)
	e.drugResponse = make([]float64, p)
	for i, pt := range ds.Patients {
		age[i] = int64(pt.Age)
		gender[i] = int64(pt.Gender)
		disease[i] = int64(pt.DiseaseID)
		e.drugResponse[i] = pt.DrugResponse
	}
	e.function = make([]int64, ds.Dims.Genes)
	for i, g := range ds.Genes {
		e.function[i] = int64(g.Function)
	}
	e.goArr = make([]uint8, len(ds.GO))
	copy(e.goArr, ds.GO)
	e.numPats, e.numGen, e.numTerm = p, ds.Dims.Genes, ds.Dims.GOTerms
	e.attrPages = map[string]*colpage.IntPage{
		plan.ColAge:       colpage.BuildInt(age),
		plan.ColGender:    colpage.BuildInt(gender),
		plan.ColDiseaseID: colpage.BuildInt(disease),
		plan.ColFunction:  colpage.BuildInt(e.function),
	}
	return nil
}

// Run implements engine.Engine: compile the query into the shared operator
// IR and execute it against this engine's physical operators (ops.go).
func (e *Engine) Run(ctx context.Context, q engine.QueryID, p engine.Params) (*engine.Result, error) {
	if e.expr == nil {
		return nil, fmt.Errorf("arraydb: not loaded")
	}
	pl, err := plan.Compile(q, p)
	if err != nil {
		return nil, err
	}
	return plan.Execute(ctx, e, pl)
}

// runKernel executes an analytics kernel either on the host (measured
// normally by the caller's stopwatch) or via the accelerator (modeled device
// and transfer seconds are banked into the stopwatch explicitly).
func (e *Engine) runKernel(ctx context.Context, sw *engine.StopWatch, kind string, inBytes, outBytes int64, kernel func() error) error {
	if e.Accel == nil {
		sw.StartAnalytics()
		return kernel()
	}
	sw.Stop()
	compute, transfer, err := e.Accel.Offload(ctx, kind, inBytes, outBytes, kernel)
	if err != nil {
		return err
	}
	sw.AddExternal(engine.Timing{
		Analytics: secondsToDuration(compute),
		Transfer:  secondsToDuration(transfer),
	})
	return nil
}

func secondsToDuration(s float64) time.Duration { return time.Duration(s * 1e9) }

type funcLookup struct{ fns []int64 }

func (f funcLookup) FunctionOf(g int) int64 { return f.fns[g] }
