// Package bicluster implements the Cheng–Church δ-biclustering algorithm
// used by GenBase's Q3. Biclustering simultaneously clusters rows (patients)
// and columns (genes) of the expression matrix into sub-matrices whose
// entries follow a consistent additive pattern, measured by the mean squared
// residue (MSR). It is the from-scratch stand-in for R's biclust package.
package bicluster

import (
	"errors"
	"math"

	"github.com/genbase/genbase/internal/linalg"
)

// Bicluster identifies one discovered sub-matrix by its row and column
// indices into the input matrix, along with its final mean squared residue.
type Bicluster struct {
	Rows []int
	Cols []int
	MSR  float64
}

// Options configures the Cheng–Church run.
type Options struct {
	// Delta is the MSR threshold a bicluster must reach. If 0, it is set to
	// 0.05 × the variance of the input matrix (scale-aware default).
	Delta float64
	// Alpha is the multiple-node-deletion aggressiveness (paper default 1.2).
	Alpha float64
	// MaxBiclusters bounds how many biclusters to extract (default 5).
	MaxBiclusters int
	// MinRows/MinCols stop deletion below this size (default 2).
	MinRows, MinCols int
	// Seed drives the random masking of found biclusters.
	Seed uint64
}

// WithDefaults returns a copy of o with unset fields resolved against the
// matrix (Delta's default is scale-aware). Engines that drive the
// bicluster-by-bicluster loop themselves (the column store's UDF interface)
// call this once on the original matrix so every FindOne call uses the same
// thresholds Run would.
func (o Options) WithDefaults(m *linalg.Matrix) Options {
	o.setDefaults(m)
	return o
}

func (o *Options) setDefaults(m *linalg.Matrix) {
	if o.Alpha <= 1 {
		o.Alpha = 1.2
	}
	if o.MaxBiclusters <= 0 {
		o.MaxBiclusters = 5
	}
	if o.MinRows < 2 {
		o.MinRows = 2
	}
	if o.MinCols < 2 {
		o.MinCols = 2
	}
	if o.Delta <= 0 {
		// Scale-aware default: a fraction of the overall matrix variance.
		var sum, sumSq float64
		n := float64(m.Rows * m.Cols)
		for i := 0; i < m.Rows; i++ {
			for _, v := range m.Row(i) {
				sum += v
				sumSq += v * v
			}
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		o.Delta = 0.05 * variance
		if o.Delta <= 0 {
			o.Delta = 1e-9
		}
	}
}

// Masker replaces a found bicluster's cells with deterministic random noise
// so subsequent searches find new structure. The noise range spans the
// original data.
type Masker struct {
	rng    func() float64
	lo, hi float64
}

// NewMasker prepares masking for the original matrix m under the given seed.
func NewMasker(m *linalg.Matrix, seed uint64) *Masker {
	lo, hi := matrixRange(m)
	if hi <= lo {
		hi = lo + 1
	}
	return &Masker{rng: splitMix64(seed ^ 0x5851f42d4c957f2d), lo: lo, hi: hi}
}

// Mask overwrites the bicluster's cells in work.
func (mk *Masker) Mask(work *linalg.Matrix, bc *Bicluster) {
	for _, i := range bc.Rows {
		for _, j := range bc.Cols {
			work.Set(i, j, mk.lo+(mk.hi-mk.lo)*mk.rng())
		}
	}
}

// FindOne runs a single Cheng–Church search (multiple node deletion, single
// node deletion, node addition) on the working matrix. opts must already
// have defaults resolved (see Options.WithDefaults). Returns nil when no
// sub-matrix reaches the delta threshold.
func FindOne(work *linalg.Matrix, opts Options) *Bicluster {
	return findOne(work, opts)
}

// MSROf computes the mean squared residue of an arbitrary sub-matrix of m —
// used to re-score discovered biclusters against the unmasked data.
func MSROf(m *linalg.Matrix, rows, cols []int) float64 { return msrOf(m, rows, cols) }

// Run extracts up to MaxBiclusters biclusters from m using the Cheng–Church
// algorithm, masking each find before searching again.
func Run(m *linalg.Matrix, opts Options) ([]Bicluster, error) {
	if m.Rows == 0 || m.Cols == 0 {
		return nil, errors.New("bicluster: empty matrix")
	}
	opts = opts.WithDefaults(m)
	work := m.Clone()
	masker := NewMasker(m, opts.Seed)

	var out []Bicluster
	for b := 0; b < opts.MaxBiclusters; b++ {
		bc := FindOne(work, opts)
		if bc == nil {
			break
		}
		// Re-score against the original matrix for reporting.
		bc.MSR = msrOf(m, bc.Rows, bc.Cols)
		out = append(out, *bc)
		if len(bc.Rows) == 0 || len(bc.Cols) == 0 {
			break
		}
		masker.Mask(work, bc)
	}
	if len(out) == 0 {
		return nil, errors.New("bicluster: no bicluster met the delta threshold")
	}
	return out, nil
}

// state tracks the live row/col sets of one search. The flags answer
// membership; liveRows/liveCols list the same sets in ascending order so
// the O(rows×cols) sweeps touch only live cells, in the order a flag scan
// would visit them. rowMean, colMean, rowRes and colRes hold the last
// sweep's per-row and per-column results, overwritten by the next.
type state struct {
	m                  *linalg.Matrix
	rows, cols         []bool
	nr, nc             int
	liveRows, liveCols []int
	rowMean, colMean   []float64
	rowRes, colRes     []float64
}

func newState(m *linalg.Matrix) *state {
	s := &state{
		m: m, rows: make([]bool, m.Rows), cols: make([]bool, m.Cols), nr: m.Rows, nc: m.Cols,
		rowMean: make([]float64, m.Rows), colMean: make([]float64, m.Cols),
		rowRes: make([]float64, m.Rows), colRes: make([]float64, m.Cols),
	}
	for i := range s.rows {
		s.rows[i] = true
	}
	for j := range s.cols {
		s.cols[j] = true
	}
	return s
}

// live lists the indices set in flags, ascending, into buf.
func live(buf []int, flags []bool) []int {
	buf = buf[:0]
	for i, on := range flags {
		if on {
			buf = append(buf, i)
		}
	}
	return buf
}

// sweep recomputes the live sub-matrix's row means and column means (into
// s.rowMean, s.colMean) and its overall mean all, then the per-row and
// per-column mean squared residues (into s.rowRes, s.colRes) and the
// overall MSR h = H(I,J), the mean over live cells of
// (a_ij − rowMean − colMean + all)². Entries for dead rows and columns are
// zero.
func (s *state) sweep() (all, h float64) {
	s.liveRows = live(s.liveRows, s.rows)
	s.liveCols = live(s.liveCols, s.cols)
	rowMean, colMean := s.rowMean, s.colMean
	clear(rowMean)
	clear(colMean)
	total := 0.0
	for _, i := range s.liveRows {
		ri := s.m.Row(i)
		sum := 0.0
		for _, j := range s.liveCols {
			v := ri[j]
			sum += v
			colMean[j] += v
		}
		rowMean[i] = sum / float64(s.nc)
		total += sum
	}
	for _, j := range s.liveCols {
		colMean[j] /= float64(s.nr)
	}
	all = total / float64(s.nr*s.nc)

	rowRes, colRes := s.rowRes, s.colRes
	clear(rowRes)
	clear(colRes)
	total = 0.0
	for _, i := range s.liveRows {
		ri := s.m.Row(i)
		for _, j := range s.liveCols {
			d := ri[j] - rowMean[i] - colMean[j] + all
			sq := d * d
			rowRes[i] += sq
			colRes[j] += sq
			total += sq
		}
	}
	for _, i := range s.liveRows {
		rowRes[i] /= float64(s.nc)
	}
	for _, j := range s.liveCols {
		colRes[j] /= float64(s.nr)
	}
	return all, total / float64(s.nr*s.nc)
}

// findOne runs one full Cheng–Church search on the working matrix.
func findOne(m *linalg.Matrix, opts Options) *Bicluster {
	s := newState(m)

	// Phase 1: multiple node deletion — drop every row/col whose residue
	// exceeds alpha × H in one sweep, while the matrix is large.
	for {
		_, h := s.sweep()
		rowRes, colRes := s.rowRes, s.colRes
		if h <= opts.Delta || s.nr <= opts.MinRows || s.nc <= opts.MinCols {
			break
		}
		removed := false
		if s.nr > opts.MinRows {
			for i := 0; i < m.Rows && s.nr > opts.MinRows; i++ {
				if s.rows[i] && rowRes[i] > opts.Alpha*h {
					s.rows[i] = false
					s.nr--
					removed = true
				}
			}
		}
		if s.nc > opts.MinCols {
			for j := 0; j < m.Cols && s.nc > opts.MinCols; j++ {
				if s.cols[j] && colRes[j] > opts.Alpha*h {
					s.cols[j] = false
					s.nc--
					removed = true
				}
			}
		}
		if !removed {
			break
		}
	}

	// Phase 2: single node deletion — remove the worst row or column until
	// H ≤ delta.
	for {
		_, h := s.sweep()
		rowRes, colRes := s.rowRes, s.colRes
		if h <= opts.Delta {
			break
		}
		bestRow, bestCol := -1, -1
		worstRow, worstCol := 0.0, 0.0
		for i := range rowRes {
			if s.rows[i] && rowRes[i] > worstRow {
				worstRow, bestRow = rowRes[i], i
			}
		}
		for j := range colRes {
			if s.cols[j] && colRes[j] > worstCol {
				worstCol, bestCol = colRes[j], j
			}
		}
		switch {
		case worstRow >= worstCol && bestRow >= 0 && s.nr > opts.MinRows:
			s.rows[bestRow] = false
			s.nr--
		case bestCol >= 0 && s.nc > opts.MinCols:
			s.cols[bestCol] = false
			s.nc--
		default:
			// Cannot shrink further; give up on reaching delta.
			return nil
		}
	}

	// Phase 3: node addition — re-admit rows/cols whose residue is below the
	// current H (they do not hurt the bicluster quality). Column additions
	// leave the live rows alone and row additions the live columns, so each
	// pass reads the live lists of the sweep that opened it.
	for {
		added := false
		all, h := s.sweep()
		rowMean := s.rowMean
		for j := 0; j < m.Cols; j++ {
			if s.cols[j] {
				continue
			}
			cm := 0.0
			for _, i := range s.liveRows {
				cm += m.At(i, j)
			}
			cm /= float64(s.nr)
			res := 0.0
			for _, i := range s.liveRows {
				d := m.At(i, j) - rowMean[i] - cm + all
				res += d * d
			}
			if res/float64(s.nr) <= h {
				s.cols[j] = true
				s.nc++
				added = true
			}
		}
		all, h = s.sweep()
		colMean := s.colMean
		for i := 0; i < m.Rows; i++ {
			if s.rows[i] {
				continue
			}
			ri := m.Row(i)
			rm := 0.0
			for _, j := range s.liveCols {
				rm += ri[j]
			}
			rm /= float64(s.nc)
			res := 0.0
			for _, j := range s.liveCols {
				d := ri[j] - rm - colMean[j] + all
				res += d * d
			}
			if res/float64(s.nc) <= h {
				s.rows[i] = true
				s.nr++
				added = true
			}
		}
		if !added {
			break
		}
	}

	bc := &Bicluster{}
	for i, on := range s.rows {
		if on {
			bc.Rows = append(bc.Rows, i)
		}
	}
	for j, on := range s.cols {
		if on {
			bc.Cols = append(bc.Cols, j)
		}
	}
	_, bc.MSR = s.sweep()
	return bc
}

// msrOf computes the mean squared residue of an arbitrary sub-matrix of m.
func msrOf(m *linalg.Matrix, rows, cols []int) float64 {
	if len(rows) == 0 || len(cols) == 0 {
		return 0
	}
	rowMean := make([]float64, len(rows))
	colMean := make([]float64, len(cols))
	all := 0.0
	for a, i := range rows {
		for b, j := range cols {
			v := m.At(i, j)
			rowMean[a] += v
			colMean[b] += v
			all += v
		}
	}
	nr, nc := float64(len(rows)), float64(len(cols))
	for a := range rowMean {
		rowMean[a] /= nc
	}
	for b := range colMean {
		colMean[b] /= nr
	}
	all /= nr * nc
	total := 0.0
	for a, i := range rows {
		for b, j := range cols {
			d := m.At(i, j) - rowMean[a] - colMean[b] + all
			total += d * d
		}
	}
	return total / (nr * nc)
}

func matrixRange(m *linalg.Matrix) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.Row(i) {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	return lo, hi
}

func splitMix64(seed uint64) func() float64 {
	s := seed
	return func() float64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return float64(z>>11) / (1 << 53)
	}
}
