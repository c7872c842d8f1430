package linalg

import (
	"errors"
	"math"
)

// QR holds a Householder QR factorization A = Q·R of an m×n matrix with
// m ≥ n. The factors are stored compactly and column-major: qr is n×m and
// its row k is column k of the factor — R's column k above the diagonal,
// the k-th Householder vector from the diagonal down — with R's diagonal in
// tau. Every Householder step reads and updates whole columns, so storing
// them as contiguous rows turns each column walk into a unit-stride slice.
type QR struct {
	qr  *Matrix
	tau []float64
}

// ErrRankDeficient is returned when a triangular solve encounters a zero (or
// numerically negligible) pivot.
var ErrRankDeficient = errors.New("linalg: matrix is rank deficient")

// ErrUnderdetermined is returned by NewQR for a matrix with fewer rows than
// columns.
var ErrUnderdetermined = errors.New("linalg: QR requires rows >= cols")

// NewQR factors A (m×n, m ≥ n) with Householder reflections. A is not
// modified: it is transposed once into the factor storage, an n×m matrix
// from the scratch arena holding the factor column-major (see QR), and
// factored there column by column. The arithmetic is the row-major
// algorithm's, operation for operation — the norm as one math.Hypot chain
// down the column, dot products summed in ascending row order, the same
// elementwise updates — so the factor is bit-identical to it. Callers that
// are done with the factorization may Release the storage (LeastSquares
// does); callers that keep it simply let the GC have it.
func NewQR(a *Matrix) (*QR, error) {
	m, n := a.Rows, a.Cols
	if m < n {
		return nil, ErrUnderdetermined
	}
	qr := GetMatrix(n, m)
	for i := 0; i < m; i++ {
		for j, v := range a.Row(i) {
			qr.Data[j*m+i] = v
		}
	}
	tau := GetSlice(n)
	for i := range tau {
		tau[i] = 0
	}
	for k := 0; k < n; k++ {
		// v is column k from the diagonal down.
		v := qr.Row(k)[k:]
		norm := 0.0
		for _, x := range v {
			norm = math.Hypot(norm, x)
		}
		if norm == 0 {
			tau[k] = 0
			continue
		}
		if v[0] < 0 {
			norm = -norm
		}
		// Form the Householder vector v (stored in place, scaled so that the
		// reflector is I − v·vᵀ/v_k).
		for i := range v {
			v[i] /= norm
		}
		v[0]++
		tau[k] = -norm // diagonal of R
		// Apply the reflector to the remaining columns.
		vkk := v[0]
		for j := k + 1; j < n; j++ {
			c := qr.Row(j)[k:]
			s := 0.0
			for i, x := range v {
				s += x * c[i]
			}
			s = -s / vkk
			for i, x := range v {
				c[i] += s * x
			}
		}
	}
	return &QR{qr: qr, tau: tau}, nil
}

// Release returns the factor storage to the scratch arena. The QR must not
// be used afterwards.
func (f *QR) Release() {
	PutMatrix(f.qr)
	PutSlice(f.tau)
	f.qr, f.tau = nil, nil
}

// R returns the upper-triangular factor (n×n).
func (f *QR) R() *Matrix {
	n := f.qr.Rows
	r := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		r.Set(i, i, f.tau[i])
		for j := i + 1; j < n; j++ {
			r.Set(i, j, f.qr.At(j, i))
		}
	}
	return r
}

// Q returns the thin orthonormal factor (m×n).
func (f *QR) Q() *Matrix {
	n, m := f.qr.Rows, f.qr.Cols
	q := NewMatrix(m, n)
	for k := n - 1; k >= 0; k-- {
		q.Set(k, k, 1)
		v := f.qr.Row(k)[k:]
		if v[0] == 0 {
			continue
		}
		for j := k; j < n; j++ {
			s := 0.0
			for i, x := range v {
				s += x * q.At(k+i, j)
			}
			s = -s / v[0]
			for i, x := range v {
				q.Set(k+i, j, q.At(k+i, j)+s*x)
			}
		}
	}
	return q
}

// QTVec applies Qᵀ to a vector of length m, returning the first n entries
// (enough for a least-squares solve) followed by the residual part.
func (f *QR) QTVec(b []float64) []float64 {
	y := make([]float64, f.qr.Cols)
	f.qtvecInto(y, b)
	return y
}

// qtvecInto is QTVec into caller-owned storage (len m, fully overwritten).
func (f *QR) qtvecInto(y, b []float64) {
	n, m := f.qr.Rows, f.qr.Cols
	if len(b) != m {
		panic("linalg: QTVec length mismatch")
	}
	copy(y, b)
	for k := 0; k < n; k++ {
		v := f.qr.Row(k)[k:]
		if v[0] == 0 {
			continue
		}
		yk := y[k:]
		s := 0.0
		for i, x := range v {
			s += x * yk[i]
		}
		s = -s / v[0]
		for i, x := range v {
			yk[i] += s * x
		}
	}
}

// Solve returns the least-squares solution x minimizing ‖Ax − b‖₂.
func (f *QR) Solve(b []float64) ([]float64, error) {
	n := f.qr.Rows
	y := GetSlice(f.qr.Cols)
	f.qtvecInto(y, b)
	x := make([]float64, n)
	copy(x, y[:n])
	PutSlice(y)
	// Back-substitute R x = y; R(k, j) is row k of factor column j.
	for k := n - 1; k >= 0; k-- {
		rkk := f.tau[k]
		if math.Abs(rkk) < 1e-12 {
			return nil, ErrRankDeficient
		}
		for j := k + 1; j < n; j++ {
			x[k] -= f.qr.At(j, k) * x[j]
		}
		x[k] /= rkk
	}
	return x, nil
}

// LeastSquaresResult is the output of a linear regression fit (Q1).
type LeastSquaresResult struct {
	Coefficients []float64 // including intercept if the caller added one
	Residual     float64   // ‖Ax − b‖₂
	RSquared     float64   // 1 − SS_res/SS_tot
}

// LeastSquares fits b ≈ A·x with Householder QR and reports fit quality.
// All intermediates (the factor copy, Qᵀb, the prediction vector) are
// pooled, so a warm fit allocates only the returned coefficients.
func LeastSquares(a *Matrix, b []float64) (*LeastSquaresResult, error) {
	f, err := NewQR(a)
	if err != nil {
		return nil, err
	}
	x, err := f.Solve(b)
	f.Release()
	if err != nil {
		return nil, err
	}
	pred := GetSlice(a.Rows)
	matVecInto(pred, a, x, 0)
	ssRes := 0.0
	for i, v := range b {
		d := v - pred[i]
		ssRes += d * d
	}
	PutSlice(pred)
	mb := Mean(b)
	ssTot := 0.0
	for _, v := range b {
		d := v - mb
		ssTot += d * d
	}
	r2 := 0.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return &LeastSquaresResult{Coefficients: x, Residual: math.Sqrt(ssRes), RSquared: r2}, nil
}

// AddInterceptColumn returns [1 | A]: a copy of A with a leading column of
// ones. The copy is pooled — callers on a hot path should PutMatrix it when
// the fit is done (leaking it to the GC is harmless, just unrecycled).
func AddInterceptColumn(a *Matrix) *Matrix {
	out := GetMatrix(a.Rows, a.Cols+1)
	for i := 0; i < a.Rows; i++ {
		ro := out.Row(i)
		ro[0] = 1
		copy(ro[1:], a.Row(i))
	}
	return out
}
