package engine

import (
	"math"
	"math/rand/v2"
	"os"
	"slices"
	"testing"
	"time"

	"github.com/genbase/genbase/internal/linalg"
)

// sortedAt is the Q2 threshold as SummarizeCovariance computed it before
// selection: sort a copy, read index k.
func sortedAt(a []float64, k int) float64 {
	s := slices.Clone(a)
	slices.Sort(s)
	return s[k]
}

// TestNthAscendingMatchesSort pins the selection to the sorted reference bit
// for bit, at the keep=1 and keep=total ends and in between, on heavy ties,
// NaN (which slices.Sort orders first), ±Inf, and orderings that defeat a
// naive pivot (sorted, reversed, organ pipe, all equal).
func TestNthAscendingMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 7))
	gen := func(n int, f func(i int) float64) []float64 {
		a := make([]float64, n)
		for i := range a {
			a[i] = f(i)
		}
		return a
	}
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0}
	inputs := [][]float64{
		{3},
		{math.NaN()},
		{math.NaN(), 1, math.NaN()},
		{math.Inf(1), math.Inf(-1), math.Inf(1)},
		gen(1000, func(int) float64 { return 0.5 }),
		gen(1000, func(i int) float64 { return float64(i) }),
		gen(1000, func(i int) float64 { return float64(-i) }),
		gen(1001, func(i int) float64 { return float64(min(i, 1000-i)) }),
		gen(5000, func(int) float64 { return float64(rng.IntN(4)) }),
		gen(5000, func(int) float64 { return rng.Float64() }),
		gen(5000, func(int) float64 {
			if rng.IntN(10) == 0 {
				return special[rng.IntN(len(special))]
			}
			return float64(rng.IntN(50)) / 8
		}),
	}
	for n, a := range inputs {
		total := len(a)
		ks := []int{0, total - 1, total / 2, total / 3, rng.IntN(total)}
		for _, k := range ks {
			want := sortedAt(a, k)
			got := nthAscending(slices.Clone(a), k)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("input %d (n=%d) k=%d: nthAscending %v, sort %v", n, total, k, got, want)
			}
		}
	}
}

// TestSummarizeCovarianceThresholdMatchesSort checks the threshold end to
// end on a |cov| with ties, NaN and ±Inf, for keep = 1, a fraction, and
// keep = total.
func TestSummarizeCovarianceThresholdMatchesSort(t *testing.T) {
	const n = 60
	rng := rand.New(rand.NewPCG(3, 11))
	cov := linalg.NewMatrix(n, n)
	var abs []float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := float64(rng.IntN(9)-4) / 2
			switch rng.IntN(40) {
			case 0:
				v = math.NaN()
			case 1:
				v = math.Inf(-1)
			case 2:
				v = math.Inf(1)
			}
			cov.Set(i, j, v)
			cov.Set(j, i, v)
			abs = append(abs, math.Abs(v))
		}
	}
	meta := make(sliceMeta, n)
	total := len(abs)
	for _, c := range []struct {
		frac float64
		keep int
	}{{1e-9, 1}, {0.01, int(float64(total) * 0.01)}, {0.3, int(float64(total) * 0.3)}, {1, total}} {
		got := SummarizeCovariance(cov, c.frac, meta, 1).Threshold
		want := sortedAt(abs, total-c.keep)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("topFrac %v: threshold %v, sorted reference %v", c.frac, got, want)
		}
	}
}

// TestKernelPerfFloorSelect asserts that selecting the Q2 threshold costs no
// more than the full sort it replaced, on a medium-preset-sized |cov|
// (750 genes → 280,875 pairs), min of five interleaved runs. Gated like
// TestKernelPerfFloor512: wall-clock assertions need an idle host.
func TestKernelPerfFloorSelect(t *testing.T) {
	if os.Getenv("GENBASE_PERF_FLOOR") == "" {
		t.Skip("set GENBASE_PERF_FLOOR=1 to run the wall-clock kernel floor")
	}
	const genes = 750
	total := genes * (genes - 1) / 2
	rng := rand.New(rand.NewPCG(4, 750))
	abs := make([]float64, total)
	for i := range abs {
		abs[i] = math.Abs(rng.NormFloat64())
	}
	k := total - int(float64(total)*0.01)
	buf := make([]float64, total)
	sel, srt := time.Duration(1<<62), time.Duration(1<<62)
	for r := 0; r < 5; r++ {
		copy(buf, abs)
		t0 := time.Now()
		nthAscending(buf, k)
		sel = min(sel, time.Since(t0))
		copy(buf, abs)
		t0 = time.Now()
		slices.Sort(buf)
		srt = min(srt, time.Since(t0))
	}
	t.Logf("select %v, sort %v (%.2fx)", sel, srt, float64(srt)/float64(sel))
	if sel > srt {
		t.Fatalf("perf floor broken: selection %v slower than the sort it replaced %v", sel, srt)
	}
}
