package features

import "github.com/ubc-cirrus-lab/femux-go/internal/mathx"

// The two regressions behind Extract — the ADF test's and the linearity
// test's AR prewhitening — fit lagged copies of one series, so every
// column of their design matrix is a contiguous slice of that series (or
// of its first differences): no matrix is built, the kernels below work
// on column views.
//
// Bit-identity contract: each cell of X'X and X'y is the sum over rows,
// ascending, of the products the row-major formulation adds to that cell
// (mathx.LeastSquares; reference_test.go keeps it as the oracle). That
// formulation skips a row whose left factor is zero; here the product is
// added anyway, a no-op for finite columns: it is ±0, and an accumulator
// that starts at +0 is never -0. A column holding an infinity — first
// differences of finite values beyond ±8.9e307 — is outside the contract.

// scratch holds the mutable buffers of an Extractor, sized to the longest
// block it has seen, and its FFT scratch the Bluestein plan of the block
// length.
type scratch struct {
	diffs []float64   // first differences (ADF)
	ones  []float64   // the intercept column, all 1
	cols  [][]float64 // column views of the design matrix
	row   []float64   // one row of cells being accumulated
	xtx   []float64   // X'X with its ridge, row-major k×k
	work  []float64   // the copy of xtx each solve destroys
	beta  []float64   // X'y, then the coefficients
	unit  []float64   // e_j, then column j of (X'X)^-1
	fit   []float64   // fitted values, then AR residuals
	amps  []float64   // harmonic amplitudes
	fft   mathx.FFTScratch

	// BDS: the closeness rows and prefix bitsets (~64 KB at 504 points),
	// one shifted-AND row, the degrees, and the points in value order.
	words, prefixes, acc []uint64
	deg, idx             []int
	vals                 []float64
}

// resize resizes *buf to n (contents unspecified) and returns it.
func resize[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// design starts a rows-long design matrix with its intercept column and
// room for k columns and the response; callers append the lagged views.
func (s *scratch) design(rows, k int) [][]float64 {
	if len(s.ones) < rows {
		s.ones = make([]float64, rows)
		for i := range s.ones {
			s.ones[i] = 1
		}
	}
	if cap(s.cols) <= k {
		s.cols = make([][]float64, 0, k+1)
	}
	s.cols = append(s.cols[:0], s.ones[:rows])
	return s.cols
}

// dot4 returns a·b0 … a·b3, each summed in ascending row order on its own
// accumulator: four independent add chains per pass over a.
func dot4(a, b0, b1, b2, b3 []float64) (s0, s1, s2, s3 float64) {
	b0, b1, b2, b3 = b0[:len(a)], b1[:len(a)], b2[:len(a)], b3[:len(a)]
	for r, va := range a {
		s0 += va * b0[r]
		s1 += va * b1[r]
		s2 += va * b2[r]
		s3 += va * b3[r]
	}
	return
}

// solveOLS fits y ~ cols by the ridge-stabilised normal equations and
// returns the coefficients (scratch-owned). s.xtx is left holding X'X for
// a further solve against it.
func (s *scratch) solveOLS(cols [][]float64, y []float64) (beta []float64, ok bool) {
	k := len(cols)
	xtx := resize(&s.xtx, k*k)
	beta = resize(&s.beta, k)
	// Row a of the upper triangle and X'y[a], four cells per pass: the
	// response rides along as column k, and a short last group repeats it
	// into row's spare slots rather than run a slower one-chain loop.
	all := append(cols, y)
	row := resize(&s.row, k+4)
	for a, ca := range cols {
		for b := a; b <= k; b += 4 {
			row[b], row[b+1], row[b+2], row[b+3] = dot4(ca, all[b], all[min(b+1, k)], all[min(b+2, k)], all[min(b+3, k)])
		}
		copy(xtx[a*k+a:a*k+k], row[a:k])
		beta[a] = row[k]
	}
	const ridge = 1e-9
	for a := 0; a < k; a++ {
		xtx[a*k+a] += ridge
		for b := a + 1; b < k; b++ {
			xtx[b*k+a] = xtx[a*k+b]
		}
	}
	copy(resize(&s.work, k*k), xtx)
	if mathx.SolveLinearFlat(s.work, beta, k) != nil {
		return nil, false
	}
	return beta, true
}

// fitted returns X·beta (scratch-owned): each row's inner product is
// summed from zero in ascending column order, as mathx.Dot over a
// materialised row would.
func (s *scratch) fitted(cols [][]float64, beta []float64, rows int) []float64 {
	fit := resize(&s.fit, rows)
	clear(fit)
	for c, col := range cols {
		bc := beta[c]
		col = col[:len(fit)]
		for r := range fit {
			fit[r] += col[r] * bc
		}
	}
	return fit
}
