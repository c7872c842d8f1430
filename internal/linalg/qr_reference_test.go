package linalg

import (
	"math"
	"os"
	"testing"
	"time"
)

// rowMajorQR is NewQR/Solve as they read before the column-major layout:
// the factor stored m×n like A and walked down its columns. It is the
// reference the column-major factorization is pinned to bit for bit.
type rowMajorQR struct {
	qr  *Matrix
	tau []float64
}

func newQRRowMajor(a *Matrix) *rowMajorQR {
	m, n := a.Rows, a.Cols
	qr := NewMatrix(m, n)
	for i := 0; i < m; i++ {
		copy(qr.Row(i), a.Row(i))
	}
	tau := make([]float64, n)
	for k := 0; k < n; k++ {
		norm := 0.0
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, qr.At(i, k))
		}
		if norm == 0 {
			tau[k] = 0
			continue
		}
		if qr.At(k, k) < 0 {
			norm = -norm
		}
		for i := k; i < m; i++ {
			qr.Set(i, k, qr.At(i, k)/norm)
		}
		qr.Set(k, k, qr.At(k, k)+1)
		tau[k] = -norm
		vkk := qr.At(k, k)
		for j := k + 1; j < n; j++ {
			s := 0.0
			for i := k; i < m; i++ {
				s += qr.At(i, k) * qr.At(i, j)
			}
			s = -s / vkk
			for i := k; i < m; i++ {
				qr.Set(i, j, qr.At(i, j)+s*qr.At(i, k))
			}
		}
	}
	return &rowMajorQR{qr: qr, tau: tau}
}

func (f *rowMajorQR) solve(b []float64) ([]float64, error) {
	m, n := f.qr.Rows, f.qr.Cols
	y := make([]float64, m)
	copy(y, b)
	for k := 0; k < n; k++ {
		if f.qr.At(k, k) == 0 {
			continue
		}
		s := 0.0
		for i := k; i < m; i++ {
			s += f.qr.At(i, k) * y[i]
		}
		s = -s / f.qr.At(k, k)
		for i := k; i < m; i++ {
			y[i] += s * f.qr.At(i, k)
		}
	}
	x := make([]float64, n)
	copy(x, y[:n])
	for k := n - 1; k >= 0; k-- {
		rkk := f.tau[k]
		if math.Abs(rkk) < 1e-12 {
			return nil, ErrRankDeficient
		}
		for j := k + 1; j < n; j++ {
			x[k] -= f.qr.At(k, j) * x[j]
		}
		x[k] /= rkk
	}
	return x, nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestQRColumnMajorMatchesRowMajor pins the column-major factorization to
// the row-major reference on tau, every factor entry, and the Solve result,
// bit for bit: square, single-column, tall, a medium-preset regression
// shape, and matrices with an all-zero column (the norm == 0 skip) first,
// in the middle and last.
func TestQRColumnMajorMatchesRowMajor(t *testing.T) {
	zeroCol := func(a *Matrix, j int) *Matrix {
		for i := 0; i < a.Rows; i++ {
			a.Set(i, j, 0)
		}
		return a
	}
	cases := map[string]*Matrix{
		"square 7x7":      randMatrix(7, 7, 1),
		"square 1x1":      randMatrix(1, 1, 2),
		"single col 40x1": randMatrix(40, 1, 3),
		"tall 53x11":      randMatrix(53, 11, 4),
		"medium 1000x190": randMatrix(1000, 190, 5),
		"zero col 0":      zeroCol(randMatrix(30, 6, 6), 0),
		"zero col 3":      zeroCol(randMatrix(30, 6, 7), 3),
		"zero col last":   zeroCol(randMatrix(9, 9, 8), 8),
		"strided view":    ViewOf(randMatrix(25, 12, 9).Data, 3, 24, 8, 12),
	}
	for name, a := range cases {
		want := newQRRowMajor(a)
		got, err := NewQR(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, n := a.Rows, a.Cols
		for k := 0; k < n; k++ {
			if !sameBits(got.tau[k], want.tau[k]) {
				t.Fatalf("%s: tau[%d] %v, reference %v", name, k, got.tau[k], want.tau[k])
			}
			for i := 0; i < m; i++ {
				if !sameBits(got.qr.At(k, i), want.qr.At(i, k)) {
					t.Fatalf("%s: factor (%d,%d) %v, reference %v", name, i, k, got.qr.At(k, i), want.qr.At(i, k))
				}
			}
		}
		b := randMatrix(m, 1, uint64(m*n)).Data
		wx, werr := want.solve(b)
		gx, gerr := got.Solve(b)
		if werr != gerr {
			t.Fatalf("%s: Solve error %v, reference %v", name, gerr, werr)
		}
		for k := range wx {
			if !sameBits(gx[k], wx[k]) {
				t.Fatalf("%s: x[%d] %v, reference %v", name, k, gx[k], wx[k])
			}
		}
		got.Release()
	}
}

// TestKernelPerfFloorQR asserts the column-major NewQR costs no more than
// the row-major reference on the medium preset's Q1 design shape
// (1000 patients × 190 columns), min of five interleaved runs. Gated like
// TestKernelPerfFloor512: wall-clock assertions need an idle host.
func TestKernelPerfFloorQR(t *testing.T) {
	if os.Getenv("GENBASE_PERF_FLOOR") == "" {
		t.Skip("set GENBASE_PERF_FLOOR=1 to run the wall-clock kernel floor")
	}
	a := randMatrix(1000, 190, 10)
	col, row := time.Duration(1<<62), time.Duration(1<<62)
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		f, _ := NewQR(a)
		col = min(col, time.Since(t0))
		f.Release()
		t0 = time.Now()
		newQRRowMajor(a)
		row = min(row, time.Since(t0))
	}
	t.Logf("column-major %v, row-major %v (%.2fx)", col, row, float64(row)/float64(col))
	if col > row {
		t.Fatalf("perf floor broken: column-major QR %v slower than row-major %v", col, row)
	}
}
