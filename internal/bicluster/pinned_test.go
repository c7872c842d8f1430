package bicluster

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// pinnedSearchHash is the FNV-64a digest of the searches in
// TestSearchMatchesPinnedHash as the Cheng–Church code computed them before
// the live-index sweeps: per-cell flag scans, two residue sweeps per
// phase-1 round and a separate means pass beside each phase-3 sweep. The
// live-index rewrite must leave every row, column and MSR bit where it was.
const pinnedSearchHash = 0x30843cf96cbfbcc4

// TestSearchMatchesPinnedHash runs the search on 200×750 matrices (the
// medium preset's Q3 shape) and digests every bicluster found: Run on a
// noise matrix with two additive blocks planted in it, overlapping in rows;
// FindOne on the same matrix, whose MSR is the search's own final sweep
// (Run re-scores with msrOf); and Run on pure noise, where the
// phase-3 re-admission decisions sit close to the threshold.
func TestSearchMatchesPinnedHash(t *testing.T) {
	planted := noiseMatrix(200, 750, 4, 101)
	plant(planted, seq(0, 200, 2), seq(0, 750, 2), 102)
	plant(planted, seq(1, 120, 3), seq(1, 600, 4), 103)
	noise := noiseMatrix(200, 750, 4, 108)
	opts := Options{Delta: 0.5, Seed: 7}

	var found []Bicluster
	run, err := Run(planted, opts)
	if err != nil {
		t.Fatal(err)
	}
	found = append(found, run...)
	if bc := FindOne(planted, opts.WithDefaults(planted)); bc != nil {
		found = append(found, *bc)
	}
	run, err = Run(noise, Options{Delta: 0.5, MaxBiclusters: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	found = append(found, run...)

	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, bc := range found {
		word(uint64(len(bc.Rows)))
		for _, i := range bc.Rows {
			word(uint64(i))
		}
		word(uint64(len(bc.Cols)))
		for _, j := range bc.Cols {
			word(uint64(j))
		}
		word(math.Float64bits(bc.MSR))
	}
	if sum := h.Sum64(); sum != pinnedSearchHash {
		for k, bc := range found {
			t.Logf("bicluster %d: %d rows × %d cols, MSR %v", k, len(bc.Rows), len(bc.Cols), bc.MSR)
		}
		t.Fatalf("search output hash %#x, pinned %#x", sum, uint64(pinnedSearchHash))
	}
}

// seq returns lo, lo+step, … below hi.
func seq(lo, hi, step int) []int {
	var out []int
	for i := lo; i < hi; i += step {
		out = append(out, i)
	}
	return out
}

// flagScanSweep is the means and residue sweep as it read before the live
// index lists: every cell visited, dead rows and columns skipped by flag.
func flagScanSweep(s *state) (rowMean, colMean []float64, all float64, rowRes, colRes []float64, h float64) {
	rowMean = make([]float64, s.m.Rows)
	colMean = make([]float64, s.m.Cols)
	total := 0.0
	for i := 0; i < s.m.Rows; i++ {
		if !s.rows[i] {
			continue
		}
		ri := s.m.Row(i)
		sum := 0.0
		for j := 0; j < s.m.Cols; j++ {
			if !s.cols[j] {
				continue
			}
			v := ri[j]
			sum += v
			colMean[j] += v
		}
		rowMean[i] = sum / float64(s.nc)
		total += sum
	}
	for j := range colMean {
		if s.cols[j] {
			colMean[j] /= float64(s.nr)
		}
	}
	all = total / float64(s.nr*s.nc)
	rowRes = make([]float64, s.m.Rows)
	colRes = make([]float64, s.m.Cols)
	total = 0.0
	for i := 0; i < s.m.Rows; i++ {
		if !s.rows[i] {
			continue
		}
		ri := s.m.Row(i)
		for j := 0; j < s.m.Cols; j++ {
			if !s.cols[j] {
				continue
			}
			d := ri[j] - rowMean[i] - colMean[j] + all
			sq := d * d
			rowRes[i] += sq
			colRes[j] += sq
			total += sq
		}
	}
	for i := range rowRes {
		if s.rows[i] {
			rowRes[i] /= float64(s.nc)
		}
	}
	for j := range colRes {
		if s.cols[j] {
			colRes[j] /= float64(s.nr)
		}
	}
	h = total / float64(s.nr*s.nc)
	return rowMean, colMean, all, rowRes, colRes, h
}

// TestSweepMatchesFlagScan pins sweep to the flag-scan reference bit for bit
// on every output, over live sets that lose and regain rows and columns at
// random, sweep after sweep on one state (so reused output buffers must not
// leak old values).
func TestSweepMatchesFlagScan(t *testing.T) {
	m := noiseMatrix(60, 90, 2, 104)
	plant(m, seq(0, 60, 3), seq(0, 90, 2), 105)
	s := newState(m)
	rng := splitMix64(106)
	same := func(a, b []float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	for round := 0; round < 12; round++ {
		wrm, wcm, wall, wrr, wcr, wh := flagScanSweep(s)
		gall, gh := s.sweep()
		if !same(s.rowMean, wrm) || !same(s.colMean, wcm) || !same(s.rowRes, wrr) || !same(s.colRes, wcr) ||
			math.Float64bits(gall) != math.Float64bits(wall) || math.Float64bits(gh) != math.Float64bits(wh) {
			t.Fatalf("round %d (%d×%d live): sweep differs from the flag-scan reference", round, s.nr, s.nc)
		}
		for i := range s.rows {
			switch r := rng(); {
			case s.rows[i] && s.nr > 2 && r < 0.2:
				s.rows[i] = false
				s.nr--
			case !s.rows[i] && r < 0.1:
				s.rows[i] = true
				s.nr++
			}
		}
		for j := range s.cols {
			switch r := rng(); {
			case s.cols[j] && s.nc > 2 && r < 0.2:
				s.cols[j] = false
				s.nc--
			case !s.cols[j] && r < 0.1:
				s.cols[j] = true
				s.nc++
			}
		}
	}
}
