package rengine

import (
	"context"
	"fmt"

	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/plan"
)

// DefaultMaxCells models R's memory wall at our 1/20 data scale: the medium
// preset (1000×750 plus triples) fits, the large preset (2000×1500 = 3 M
// matrix cells + 9 M triple cells) does not — reproducing the paper's
// "Vanilla R cannot scale to the large dataset".
const DefaultMaxCells = 8_000_000

// Engine is the Vanilla R configuration.
type Engine struct {
	// MaxCells caps the total number of dataframe/matrix cells resident at
	// once. 0 means DefaultMaxCells; negative means unlimited.
	MaxCells int64
	// Workers is the analytics-kernel worker count (0 = the GENBASE_PARALLEL
	// / NumCPU default). Answers are bitwise identical at any value.
	Workers int

	ds    *datagen.Dataset
	pats  *Frame
	genes *Frame
	goTri *Frame // gene, term sparse membership triples

	// vals is the value column of the (gene, patient, value) triples
	// (relational form, §3.1.1) stored patient-major dense, so it doubles as
	// the expression matrix in row-major layout (vals[pi*numGenes+gi]).
	vals []float64
}

// New creates an unloaded engine.
func New() *Engine { return &Engine{} }

// Name implements engine.Engine.
func (e *Engine) Name() string { return "vanilla-r" }

// Supports implements engine.Engine, derived from the registered physical
// operators (ops.go): R implements the full vocabulary.
func (e *Engine) Supports(q engine.QueryID) bool { return plan.Supports(e.Capabilities(), q) }

// SetWorkers pins the analytics-kernel worker count (serve.Server uses it to
// split the host's worker budget across admission slots). Call before
// concurrent queries begin.
func (e *Engine) SetWorkers(n int) { e.Workers = n }

// Close implements engine.Engine.
func (e *Engine) Close() error { return nil }

func (e *Engine) maxCells() int64 {
	if e.MaxCells == 0 {
		return DefaultMaxCells
	}
	if e.MaxCells < 0 {
		return 1 << 62
	}
	return e.MaxCells
}

// Load ingests the dataset as dataframes in the paper's relational form. The
// microarray is charged as (gene, patient, value) triples, exactly what R's
// merge and reshape operate on; exceeding the cell budget fails the load, as
// R does on the large dataset. Only the value column is kept: the triples'
// id columns are implied by its patient-major order.
func (e *Engine) Load(ds *datagen.Dataset) error {
	p, g := ds.Dims.Patients, ds.Dims.Genes
	triples := int64(p) * int64(g)
	// Triples (3 cells each) plus the dense matrix the queries will pivot
	// into must fit.
	if triples*3+triples > e.maxCells() {
		return fmt.Errorf("%w: %d cells needed, limit %d", engine.ErrOutOfMemory, triples*4, e.maxCells())
	}
	e.ds = ds

	e.vals = make([]float64, triples)
	for pi := 0; pi < p; pi++ {
		copy(e.vals[pi*g:(pi+1)*g], ds.Expression.Row(pi))
	}

	ids := make([]int64, p)
	ages := make([]int64, p)
	genders := make([]int64, p)
	diseases := make([]int64, p)
	resp := make([]float64, p)
	for i, pt := range ds.Patients {
		ids[i] = int64(pt.ID)
		ages[i] = int64(pt.Age)
		genders[i] = int64(pt.Gender)
		diseases[i] = int64(pt.DiseaseID)
		resp[i] = pt.DrugResponse
	}
	e.pats = NewFrame(p).AddInt("patientid", ids).AddInt("age", ages).
		AddInt("gender", genders).AddInt("diseaseid", diseases).AddFloat("drugresponse", resp)

	gids := make([]int64, g)
	fns := make([]int64, g)
	targets := make([]int64, g)
	for i, gn := range ds.Genes {
		gids[i] = int64(gn.ID)
		fns[i] = int64(gn.Function)
		targets[i] = int64(gn.Target)
	}
	e.genes = NewFrame(g).AddInt("geneid", gids).AddInt("function", fns).AddInt("target", targets)

	var goGene, goTerm []int64
	for gi := 0; gi < g; gi++ {
		for t := 0; t < ds.Dims.GOTerms; t++ {
			if ds.GOAt(gi, t) == 1 {
				goGene = append(goGene, int64(gi))
				goTerm = append(goTerm, int64(t))
			}
		}
	}
	e.goTri = NewFrame(len(goGene)).AddInt("geneid", goGene).AddInt("goid", goTerm)
	return nil
}

// Run implements engine.Engine: compile the query into the shared operator
// IR and execute it against this engine's physical operators (ops.go).
func (e *Engine) Run(ctx context.Context, q engine.QueryID, p engine.Params) (*engine.Result, error) {
	if e.ds == nil {
		return nil, fmt.Errorf("rengine: not loaded")
	}
	pl, err := plan.Compile(q, p)
	if err != nil {
		return nil, err
	}
	return plan.Execute(ctx, e, pl)
}

func (e *Engine) checkMatrixBudget(rows, cols int) error {
	if int64(rows)*int64(cols) > e.maxCells() {
		return fmt.Errorf("%w: pivot of %d×%d cells", engine.ErrOutOfMemory, rows, cols)
	}
	return nil
}

// funcLookup adapts the genes frame to engine.GeneMeta.
type funcLookup struct{ fn []int64 }

func (f funcLookup) FunctionOf(g int) int64 { return f.fn[g] }
