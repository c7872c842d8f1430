// Package stats implements the statistical routines GenBase's Q5 (gene-set
// enrichment) relies on: the Wilcoxon rank-sum test with mid-rank tie
// handling, normal approximation and tie correction, Benjamini–Hochberg FDR,
// and the normal distribution helpers they require. It stands in for R's
// stats package.
package stats

import (
	"cmp"
	"errors"
	"math"
	"slices"
)

// WilcoxonResult reports a two-sample Wilcoxon rank-sum (Mann–Whitney) test.
type WilcoxonResult struct {
	W float64 // rank-sum statistic of the first group
	U float64 // Mann–Whitney U for the first group
	Z float64 // normal approximation z-score (continuity corrected)
	P float64 // two-sided p-value
}

// ErrEmptyGroup is returned when either sample is empty.
var ErrEmptyGroup = errors.New("stats: wilcoxon requires both groups non-empty")

// WilcoxonRankSum tests whether group x tends to rank higher or lower than
// group y, using the normal approximation with tie correction and continuity
// correction. This is Q5's enrichment test: x holds the ranks-source values
// of genes inside a GO term, y those outside.
//
// Each group is copied and sorted on its own, then one merge walk over the
// two sorted runs visits the combined population in rank order: every run
// of equal values is a tie group whose members share the mid-rank, so the
// walk yields x's rank sum W and the tie-correction sum Σ(t³−t) together.
// Mid-ranks are half-integers and tie terms integers, so both sums are exact
// in float64 and equal, bit for bit, to summing per-element mid-ranks in
// input order. NaNs (which cannot tie) rank first, one per group, as
// slices.Sort orders them.
func WilcoxonRankSum(x, y []float64) (*WilcoxonResult, error) {
	n1, n2 := len(x), len(y)
	if n1 == 0 || n2 == 0 {
		return nil, ErrEmptyGroup
	}
	xs := make([]float64, n1+n2)
	xs, ys := xs[:n1], xs[n1:]
	copy(xs, x)
	copy(ys, y)
	slices.Sort(xs)
	slices.Sort(ys)
	w, tieSum := 0.0, 0.0
	for i, j := 0, 0; i < n1 || j < n2; {
		fromX := j == n2 || (i < n1 && !cmp.Less(ys[j], xs[i]))
		var v float64
		if fromX {
			v = xs[i]
		} else {
			v = ys[j]
		}
		ci, cj := 0, 0
		if v != v {
			if fromX {
				ci = 1
			} else {
				cj = 1
			}
		} else {
			for i+ci < n1 && xs[i+ci] == v {
				ci++
			}
			for j+cj < n2 && ys[j+cj] == v {
				cj++
			}
		}
		// The group holds 0-based positions i+j … i+j+t−1 of the combined
		// order, so its mid-rank is (2(i+j) + t + 1)/2.
		t := ci + cj
		w += float64(ci) * (float64(2*(i+j)+t+1) / 2)
		if t > 1 {
			ft := float64(t)
			tieSum += ft*ft*ft - ft
		}
		i, j = i+ci, j+cj
	}
	fn1, fn2 := float64(n1), float64(n2)
	n := fn1 + fn2
	u := w - fn1*(fn1+1)/2
	meanU := fn1 * fn2 / 2
	// Variance with tie correction: n1·n2/12 · (n+1 − Σ(t³−t)/(n(n−1))).
	varU := fn1 * fn2 / 12 * ((n + 1) - tieSum/(n*(n-1)))
	res := &WilcoxonResult{W: w, U: u}
	if varU <= 0 {
		// All values identical: no evidence either way.
		res.Z = 0
		res.P = 1
		return res, nil
	}
	diff := u - meanU
	// Continuity correction toward the mean.
	switch {
	case diff > 0.5:
		diff -= 0.5
	case diff < -0.5:
		diff += 0.5
	default:
		diff = 0
	}
	res.Z = diff / math.Sqrt(varU)
	res.P = TwoSidedP(res.Z)
	return res, nil
}

// WilcoxonFromRanks runs the test when mid-ranks over the combined population
// are already known: inRanks are the ranks of the in-group items, n the total
// population size, and ties the tie-group sizes of the full population. The
// engines use this form so that genes are ranked once and then tested against
// every GO term (the paper's step 3–4 of Q5).
func WilcoxonFromRanks(inRanks []float64, n int, ties []int) (*WilcoxonResult, error) {
	n1 := len(inRanks)
	n2 := n - n1
	if n1 == 0 || n2 <= 0 {
		return nil, ErrEmptyGroup
	}
	w := 0.0
	for _, r := range inRanks {
		w += r
	}
	fn1, fn2, fn := float64(n1), float64(n2), float64(n)
	u := w - fn1*(fn1+1)/2
	meanU := fn1 * fn2 / 2
	tieSum := 0.0
	for _, t := range ties {
		ft := float64(t)
		tieSum += ft*ft*ft - ft
	}
	varU := fn1 * fn2 / 12 * ((fn + 1) - tieSum/(fn*(fn-1)))
	res := &WilcoxonResult{W: w, U: u}
	if varU <= 0 {
		res.Z = 0
		res.P = 1
		return res, nil
	}
	diff := u - meanU
	switch {
	case diff > 0.5:
		diff -= 0.5
	case diff < -0.5:
		diff += 0.5
	default:
		diff = 0
	}
	res.Z = diff / math.Sqrt(varU)
	res.P = TwoSidedP(res.Z)
	return res, nil
}
