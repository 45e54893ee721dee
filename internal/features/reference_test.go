package features

// HEAD's feature kernels as they stood before the column-view rewrite
// (ISSUE 23), kept verbatim — the row-major design matrix, the cell-at-a-
// time normal equations behind the va == 0 skip, mathx.SolveLinear /
// LeastSquares, the table-free mathx.TopHarmonics — under ref names, as
// the oracles extract_equiv_test.go compares the serving kernels against
// bit for bit. Only the identifiers changed.

import (
	"math"
	"sync"

	"github.com/ubc-cirrus-lab/femux-go/internal/mathx"
)

// Extract computes the feature vector of one block of average-concurrency
// values. execSec, when positive, adds the execution-time feature used by
// FeMux-Exec (§5.1.3).
//
// Feature encodings (all continuous so the scaler and K-means can use
// distances rather than hard test verdicts):
//
//   - stationarity: the ADF t-statistic, clamped to [-10, 10]; more
//     negative is more stationary.
//   - linearity: |BDS statistic| of AR residuals, clamped to [0, 20];
//     larger is more nonlinear.
//   - harmonics: fraction of non-DC spectral energy captured by the top-k
//     harmonics, in [0, 1]; near 1 indicates a (quasi-)periodic block.
//   - density: total traffic volume in the block (sum of average
//     concurrency), a popularity proxy (§4.2.2).
func refExtract(block []float64, execSec float64) Vector {
	v := Vector{}

	// One moments pass serves every kernel: ADF and the linearity test
	// need the constancy check, density is the running sum. Previously
	// each kernel rescanned the block for its own copy of these.
	mom := computeMoments(block)

	adf := refADFTest(block, -1, mom.constant)
	v[FeatStationarity] = mathx.Clamp(adf.Stat, -10, 10)

	bds := refLinearityTest(block, ARLags, BDSDim, mom.constant)
	abs := bds.Stat
	if abs < 0 {
		abs = -abs
	}
	v[FeatLinearity] = mathx.Clamp(abs, 0, 20)

	v[FeatHarmonics] = refHarmonicConcentration(block, Harmonics, mom.constant)

	v[FeatDensity] = mom.sum

	if execSec > 0 {
		v[FeatExecTime] = execSec
	}
	return v
}

// harmonicConcentration is HarmonicConcentration with the block's
// constancy precomputed.
func refHarmonicConcentration(block []float64, k int, constant bool) float64 {
	n := len(block)
	if n < 4 || constant {
		return 0
	}
	hs := mathx.TopHarmonics(block, n/2)
	var total, top float64
	for i, h := range hs {
		e := h.Amplitude * h.Amplitude
		total += e
		if i < k {
			top += e
		}
	}
	if total == 0 {
		return 0
	}
	return top / total
}

// adfTest is ADF with the series' constancy precomputed. The regression
// buffers (differences, design matrix, normal equations) come from a
// shared pool: feature extraction runs ADF once per block across thousands
// of blocks, and these were the extractor's largest per-call allocations.
func refADFTest(series []float64, lags int, constant bool) ADFResult {
	n := len(series)
	if n < 8 {
		return ADFResult{Stat: 0, Stationary: false}
	}
	if constant {
		return ADFResult{Stat: -100, Stationary: true}
	}
	if lags < 0 {
		lags = int(12 * math.Pow(float64(n)/100, 0.25))
	}
	maxLags := (n - 4) / 2
	if lags > maxLags {
		lags = maxLags
	}
	if lags < 0 {
		lags = 0
	}

	sc := refADFPool.Get().(*refADFScratch)
	defer refADFPool.Put(sc)

	diffs := sc.floats(&sc.diffs, n-1)
	for i := 1; i < n; i++ {
		diffs[i-1] = series[i] - series[i-1]
	}
	// Rows: t runs over diffs indices [lags, len(diffs)).
	rows := len(diffs) - lags
	cols := 2 + lags // intercept, y_{t-1}, lagged diffs
	if rows <= cols {
		return ADFResult{Stat: 0, Stationary: false}
	}
	x := sc.matrix(rows, cols)
	y := sc.floats(&sc.y, rows)
	for r := 0; r < rows; r++ {
		t := r + lags // index into diffs
		row := x[r]
		row[0] = 1
		row[1] = series[t] // y_{t-1} in original indexing: diffs[t] = y[t+1]-y[t]
		for l := 1; l <= lags; l++ {
			row[1+l] = diffs[t-l]
		}
		y[r] = diffs[t]
	}
	beta, se, ok := refOLSWithSE(x, y, 1, sc)
	if !ok || se == 0 {
		return ADFResult{Stat: 0, Lags: lags, Stationary: false}
	}
	stat := beta / se
	return ADFResult{Stat: stat, Lags: lags, Stationary: stat < ADFCritical5}
}

// olsWithSE fits y ~ X by OLS and returns coefficient j and its standard
// error. It solves the normal equations and extracts the needed diagonal of
// (X'X)^{-1} by solving against a unit vector. sc supplies the X'X and
// unit-vector buffers; SolveLinear copies its inputs, so reuse is safe.
func refOLSWithSE(x [][]float64, y []float64, j int, sc *refADFScratch) (coef, se float64, ok bool) {
	rows, cols := len(x), len(x[0])
	xtx := sc.xtxMatrix(cols)
	xty := sc.floats(&sc.xty, cols)
	for i := range xty {
		xty[i] = 0
	}
	for r := 0; r < rows; r++ {
		for a := 0; a < cols; a++ {
			va := x[r][a]
			if va == 0 {
				continue
			}
			for b := a; b < cols; b++ {
				xtx[a][b] += va * x[r][b]
			}
			xty[a] += va * y[r]
		}
	}
	for a := 0; a < cols; a++ {
		xtx[a][a] += 1e-9
		for b := a + 1; b < cols; b++ {
			xtx[b][a] = xtx[a][b]
		}
	}
	beta, err := mathx.SolveLinear(xtx, xty)
	if err != nil {
		return 0, 0, false
	}
	// Residual variance.
	var rss float64
	for r := 0; r < rows; r++ {
		pred := mathx.Dot(x[r], beta)
		d := y[r] - pred
		rss += d * d
	}
	dof := rows - cols
	if dof <= 0 {
		return 0, 0, false
	}
	sigma2 := rss / float64(dof)
	// (X'X)^{-1}_{jj} via solving X'X z = e_j.
	e := sc.floats(&sc.unit, cols)
	for i := range e {
		e[i] = 0
	}
	e[j] = 1
	z, err := mathx.SolveLinear(xtx, e)
	if err != nil || z[j] < 0 {
		return 0, 0, false
	}
	return beta[j], math.Sqrt(sigma2 * z[j]), true
}

// refADFScratch holds the reusable regression buffers of one ADF evaluation.
type refADFScratch struct {
	diffs   []float64
	y       []float64
	xty     []float64
	unit    []float64
	flat    []float64
	rows    [][]float64
	xtxFlat []float64
	xtxRows [][]float64
}

var refADFPool = sync.Pool{New: func() any { return &refADFScratch{} }}

// floats resizes *buf to n (contents unspecified) and returns it.
func (s *refADFScratch) floats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// matrix returns an r×c row-view matrix over flat pooled storage; element
// contents are unspecified (callers overwrite every cell).
func (s *refADFScratch) matrix(r, c int) [][]float64 {
	flat := s.floats(&s.flat, r*c)
	if cap(s.rows) < r {
		s.rows = make([][]float64, r)
	}
	s.rows = s.rows[:r]
	for i := 0; i < r; i++ {
		s.rows[i] = flat[i*c : (i+1)*c]
	}
	return s.rows
}

// xtxMatrix returns a zeroed c×c matrix over flat pooled storage.
func (s *refADFScratch) xtxMatrix(c int) [][]float64 {
	flat := s.floats(&s.xtxFlat, c*c)
	clear(flat)
	if cap(s.xtxRows) < c {
		s.xtxRows = make([][]float64, c)
	}
	s.xtxRows = s.xtxRows[:c]
	for i := 0; i < c; i++ {
		s.xtxRows[i] = flat[i*c : (i+1)*c]
	}
	return s.xtxRows
}

// linearityTest is LinearityTest with the series' constancy precomputed.
func refLinearityTest(series []float64, arLags, bdsDim int, constant bool) BDSResult {
	res := refARResiduals(series, arLags, constant)
	if res == nil {
		return BDSResult{Stat: 0, Linear: true}
	}
	return BDS(res, bdsDim, 0)
}

// arResiduals fits AR(lags) by least squares and returns the residuals, or
// nil when the series is too short or degenerate.
func refARResiduals(series []float64, lags int, constant bool) []float64 {
	n := len(series)
	if lags < 1 {
		lags = 1
	}
	rows := n - lags
	if rows < lags+2 || constant {
		return nil
	}
	x := make([][]float64, rows)
	flat := make([]float64, rows*(lags+1))
	y := make([]float64, rows)
	for r := 0; r < rows; r++ {
		row := flat[r*(lags+1) : (r+1)*(lags+1)]
		row[0] = 1
		for l := 1; l <= lags; l++ {
			row[l] = series[r+lags-l]
		}
		x[r] = row
		y[r] = series[r+lags]
	}
	coef, err := mathx.LeastSquares(x, y)
	if err != nil {
		return nil
	}
	res := make([]float64, rows)
	for r := 0; r < rows; r++ {
		res[r] = y[r] - mathx.Dot(x[r], coef)
	}
	return res
}
