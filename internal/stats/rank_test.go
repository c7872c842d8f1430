package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// rank_test.go keeps the index-sort ranking WilcoxonRankSum used before its
// merge walk: Ranks and TieGroups are the reference the rank-sum is checked
// against bit for bit (TestWilcoxonRankSumMatchesRanksReference), and the
// mid-rank form WilcoxonFromRanks expects.

// Ranks returns the 1-based mid-ranks of xs: tied values receive the average
// of the ranks they would span. This is the standard ranking used by the
// Wilcoxon test (and by R's rank()).
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Positions i..j (0-based) share mid-rank (i+1 + j+1)/2.
		mid := float64(i+j+2) / 2
		for k := i; k <= j; k++ {
			ranks[idx[k]] = mid
		}
		i = j + 1
	}
	return ranks
}

// TieGroups returns the size of every group of tied values in xs with size
// greater than one. Used for the Wilcoxon variance tie correction.
func TieGroups(xs []float64) []int {
	n := len(xs)
	if n == 0 {
		return nil
	}
	sorted := make([]float64, n)
	copy(sorted, xs)
	sort.Float64s(sorted)
	var groups []int
	for i := 0; i < n; {
		j := i
		for j+1 < n && sorted[j+1] == sorted[i] {
			j++
		}
		if j > i {
			groups = append(groups, j-i+1)
		}
		i = j + 1
	}
	return groups
}

// wilcoxonRankSumReference is WilcoxonRankSum as it read before the merge
// walk: rank the concatenation with Ranks, sum x's ranks in input order, and
// take the tie correction from TieGroups' second sort.
func wilcoxonRankSumReference(x, y []float64) (*WilcoxonResult, error) {
	n1, n2 := len(x), len(y)
	if n1 == 0 || n2 == 0 {
		return nil, ErrEmptyGroup
	}
	all := make([]float64, 0, n1+n2)
	all = append(all, x...)
	all = append(all, y...)
	ranks := Ranks(all)
	w := 0.0
	for i := 0; i < n1; i++ {
		w += ranks[i]
	}
	fn1, fn2 := float64(n1), float64(n2)
	n := fn1 + fn2
	u := w - fn1*(fn1+1)/2
	meanU := fn1 * fn2 / 2
	tieSum := 0.0
	for _, t := range TieGroups(all) {
		ft := float64(t)
		tieSum += ft*ft*ft - ft
	}
	varU := fn1 * fn2 / 12 * ((n + 1) - tieSum/(n*(n-1)))
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

// TestWilcoxonRankSumMatchesRanksReference pins the merge-walk rank-sum to
// the index-sort reference bit for bit on W, U, Z and P: tie-heavy groups
// (values drawn from a handful of levels), ±Inf, groups of size 1 on either
// side, all-tied populations, and tie-free continuous draws.
func TestWilcoxonRankSumMatchesRanksReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 13))
	draw := func(n, levels int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			if levels == 0 {
				xs[i] = rng.NormFloat64()
			} else {
				xs[i] = float64(rng.IntN(levels)) / 4
			}
		}
		return xs
	}
	type pair struct{ x, y []float64 }
	cases := []pair{
		{[]float64{1}, []float64{2}},
		{[]float64{2}, []float64{2}},
		{[]float64{3}, draw(40, 5)},
		{draw(40, 5), []float64{0.25}},
		{[]float64{math.Inf(1), 1, math.Inf(-1)}, []float64{math.Inf(1), 0, math.Inf(-1), math.Inf(-1)}},
		{[]float64{7, 7, 7}, []float64{7, 7}},
	}
	for _, sz := range [][2]int{{1, 1}, {1, 200}, {200, 1}, {3, 17}, {50, 700}, {200, 550}} {
		for _, levels := range []int{0, 1, 2, 6, 40} {
			cases = append(cases, pair{draw(sz[0], levels), draw(sz[1], levels)})
		}
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for k, c := range cases {
		want, err := wilcoxonRankSumReference(c.x, c.y)
		if err != nil {
			t.Fatal(err)
		}
		got, err := WilcoxonRankSum(c.x, c.y)
		if err != nil {
			t.Fatal(err)
		}
		if !same(got.W, want.W) || !same(got.U, want.U) || !same(got.Z, want.Z) || !same(got.P, want.P) {
			t.Fatalf("case %d (n1=%d n2=%d): got %+v, reference %+v", k, len(c.x), len(c.y), *got, *want)
		}
	}
}

// TestWilcoxonRankSumNaNRanksFirst covers the merge walk's NaN branch: NaN
// equals nothing, so each one is a group of one, ranked ahead of every
// number as slices.Sort orders them, x's before y's while both have one.
func TestWilcoxonRankSumNaNRanksFirst(t *testing.T) {
	nan := math.NaN()
	res, err := WilcoxonRankSum([]float64{1, nan}, []float64{nan, 2, nan})
	if err != nil {
		t.Fatal(err)
	}
	// Ranks: x's NaN 1, y's NaNs 2 and 3, x's 1 → 4, y's 2 → 5.
	if res.W != 5 {
		t.Fatalf("W = %v, want 5", res.W)
	}
}
