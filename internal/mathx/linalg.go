package mathx

import (
	"errors"
	"math"
)

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("mathx: singular matrix")

// SolveLinear solves A x = b by Gaussian elimination with partial pivoting.
// A is given in row-major order as a slice of rows and is not modified.
//
// Reference implementation — no serving or training caller: the kernels
// use SolveLinearFlat, asserted bit-identical to this by the tests.
func SolveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, errors.New("mathx: dimension mismatch")
	}
	// Work on copies: the callers reuse their matrices across lags.
	m := make([][]float64, n)
	for i := range a {
		if len(a[i]) != n {
			return nil, errors.New("mathx: matrix is not square")
		}
		m[i] = append([]float64(nil), a[i]...)
	}
	x := append([]float64(nil), b...)

	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		maxAbs := math.Abs(m[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m[r][col]); v > maxAbs {
				maxAbs, pivot = v, r
			}
		}
		if maxAbs < 1e-12 {
			return nil, ErrSingular
		}
		m[col], m[pivot] = m[pivot], m[col]
		x[col], x[pivot] = x[pivot], x[col]

		inv := 1 / m[col][col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				m[r][c] -= f * m[col][c]
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for col := n - 1; col >= 0; col-- {
		s := x[col]
		for c := col + 1; c < n; c++ {
			s -= m[col][c] * x[c]
		}
		x[col] = s / m[col][col]
	}
	return x, nil
}

// LeastSquares fits y ~= X beta by solving the normal equations
// (X'X) beta = X'y. X is row-major with one observation per row.
// A small ridge term stabilizes near-collinear designs, which occur for
// constant or nearly-constant traffic series.
//
// Reference implementation — no serving or training caller: the forecast
// and feature kernels accumulate the same sums in the same order without
// building X, and their equivalence tests compare against this.
func LeastSquares(x [][]float64, y []float64) ([]float64, error) {
	rows := len(x)
	if rows == 0 || len(y) != rows {
		return nil, errors.New("mathx: dimension mismatch")
	}
	cols := len(x[0])
	xtx := make([][]float64, cols)
	for i := range xtx {
		xtx[i] = make([]float64, cols)
	}
	xty := make([]float64, cols)
	for r := 0; r < rows; r++ {
		row := x[r]
		if len(row) != cols {
			return nil, errors.New("mathx: ragged design matrix")
		}
		for i := 0; i < cols; i++ {
			vi := row[i]
			if vi == 0 {
				continue
			}
			for j := i; j < cols; j++ {
				xtx[i][j] += vi * row[j]
			}
			xty[i] += vi * y[r]
		}
	}
	// Mirror the upper triangle and add ridge.
	const ridge = 1e-9
	for i := 0; i < cols; i++ {
		xtx[i][i] += ridge
		for j := i + 1; j < cols; j++ {
			xtx[j][i] = xtx[i][j]
		}
	}
	return SolveLinear(xtx, xty)
}

// SolveLinearFlat solves A x = b like SolveLinear, but A is a row-major
// flat n×n matrix and both A and b are destroyed in place: the solution is
// left in b. The pivoting and elimination perform the same floating-point
// operations in the same order as SolveLinear (rows are swapped by element
// instead of by pointer, which moves the same values), so the result is
// bit-identical. This is the zero-allocation path used by the forecast
// workspace kernels.
func SolveLinearFlat(m []float64, b []float64, n int) error {
	if n == 0 || len(m) != n*n || len(b) != n {
		return errors.New("mathx: dimension mismatch")
	}
	for col := 0; col < n; col++ {
		pivot := col
		maxAbs := math.Abs(m[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m[r*n+col]); v > maxAbs {
				maxAbs, pivot = v, r
			}
		}
		if maxAbs < 1e-12 {
			return ErrSingular
		}
		if pivot != col {
			rc, rp := m[col*n:col*n+n], m[pivot*n:pivot*n+n]
			for c := range rc {
				rc[c], rp[c] = rp[c], rc[c]
			}
			b[col], b[pivot] = b[pivot], b[col]
		}
		inv := 1 / m[col*n+col]
		base := m[col*n : col*n+n]
		for r := col + 1; r < n; r++ {
			row := m[r*n : r*n+n]
			f := row[col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				row[c] -= f * base[c]
			}
			b[r] -= f * b[col]
		}
	}
	for col := n - 1; col >= 0; col-- {
		s := b[col]
		row := m[col*n : col*n+n]
		for c := col + 1; c < n; c++ {
			s -= row[c] * b[c]
		}
		b[col] = s / row[col]
	}
	return nil
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Clamp restricts v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
