package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
)

// The parallel sweep is the harness behind the "single-core vs multicore"
// claim: it times the hot analytics kernels (GEMM, Gram, covariance, SVD) on
// the Large preset's expression matrix at several worker counts, verifies the
// answers are bitwise identical across all of them, and reports seconds plus
// speedup relative to one worker.

// sweepKernel is one timed kernel of the sweep.
type sweepKernel struct {
	name string
	// run executes the kernel at a worker count and returns a result
	// fingerprint used for the cross-worker bitwise check.
	run func(workers int) (fingerprint uint64, err error)
}

// fingerprintMatrix folds a matrix's exact bit patterns into one word.
func fingerprintMatrix(m *linalg.Matrix) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.Row(i) {
			h = (h ^ math.Float64bits(v)) * 1099511628211
		}
	}
	return h
}

func fingerprintVec(x []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range x {
		h = (h ^ math.Float64bits(v)) * 1099511628211
	}
	return h
}

// RunParallelSweep times the hot kernels at each worker count (default
// 1, 2, 4, 8) on the Large preset expression matrix and returns two tables:
// kernel seconds per worker count, and speedup vs the first count. It errors
// if any kernel's answer differs bitwise across worker counts — the sweep
// doubles as a runtime determinism check.
func (s *Suite) RunParallelSweep(ctx context.Context, workerCounts []int) ([]*Table, error) {
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 2, 4, 8}
	}
	ds, err := s.Dataset(datagen.Large)
	if err != nil {
		return nil, err
	}
	x := ds.Expression // patients × genes, the benchmark's hot operand
	wide := linalg.NewMatrix(x.Cols, 256)
	rng := datagen.NewRNG(s.Seed ^ 0x5eedbeef)
	for i := range wide.Data {
		wide.Data[i] = rng.Float64()*2 - 1
	}

	kernels := []sweepKernel{
		{name: "gemm", run: func(w int) (uint64, error) {
			return fingerprintMatrix(linalg.MulP(x, wide, w)), nil
		}},
		{name: "gram", run: func(w int) (uint64, error) {
			return fingerprintMatrix(linalg.MulATAP(x, w)), nil
		}},
		{name: "covariance", run: func(w int) (uint64, error) {
			return fingerprintMatrix(linalg.CovarianceP(x, w)), nil
		}},
		{name: "svd-top10", run: func(w int) (uint64, error) {
			svd, err := linalg.TopKSVD(x, 10, linalg.LanczosOptions{Reorthogonalize: true, Seed: s.Seed, Workers: w})
			if err != nil {
				return 0, err
			}
			return fingerprintVec(svd.SingularValues) ^ fingerprintMatrix(svd.V), nil
		}},
	}

	reps := s.Repetitions
	if reps <= 0 {
		reps = 3
	}
	names := make([]string, len(kernels))
	for i, k := range kernels {
		names[i] = k.name
	}
	cols := make([]string, len(workerCounts))
	for i, w := range workerCounts {
		cols[i] = fmt.Sprintf("%d worker(s)", w)
	}
	secs := NewTable(fmt.Sprintf("Parallel kernel sweep, Large preset (%d patients x %d genes) (seconds)", ds.Dims.Patients, ds.Dims.Genes),
		"kernel", names, cols)
	speedup := NewTable(fmt.Sprintf("Parallel kernel speedup vs %d worker(s) (ratio)", workerCounts[0]),
		"kernel", names, cols)

	for _, k := range kernels {
		var baseSecs float64
		var baseFP uint64
		for wi, w := range workerCounts {
			if err := engine.CheckCtx(ctx); err != nil {
				return nil, err
			}
			best := math.Inf(1)
			var fp uint64
			for r := 0; r < reps; r++ {
				start := time.Now()
				f, err := k.run(w)
				if d := time.Since(start).Seconds(); d < best {
					best = d
				}
				if err != nil {
					return nil, fmt.Errorf("core: %s at %d workers: %w", k.name, w, err)
				}
				fp = f
			}
			if wi == 0 {
				baseSecs, baseFP = best, fp
			} else if fp != baseFP {
				return nil, fmt.Errorf("core: %s answer differs bitwise between %d and %d workers", k.name, workerCounts[0], w)
			}
			secs.Set(k.name, cols[wi], Cell{Seconds: best})
			speedup.Set(k.name, cols[wi], Cell{Seconds: baseSecs / best})
			s.progress("parallel    %-12s %2d workers  %.3fs", k.name, w, best)
		}
	}
	return []*Table{secs, speedup}, nil
}
