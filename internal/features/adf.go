// Package features extracts the latent statistical features FeMux's
// classifier consumes (§4.3.2): stationarity (Augmented Dickey-Fuller
// test), linearity (Broock-Dechert-Scheinkman test), periodicity (FFT
// harmonic concentration), and density (traffic volume). Features are
// computed once per completed block. The paper's block is 504 minutes, the
// smallest multiple of the BDS test's ~400-point minimum that divides the
// 14-day Azure trace evenly, and the offline experiments use it; femuxd's
// -block defaults to 144, well under that minimum, so a served app's
// linearity feature is a finite-sample statistic rather than the
// asymptotic test — consistently so between training and serving, which
// is all the classifier needs. An Extractor owns the scratch its
// extractions run in and serves one goroutine at a time.
package features

import (
	"math"

	"github.com/ubc-cirrus-lab/femux-go/internal/mathx"
)

// ADFCritical5 is the 5% critical value of the Dickey-Fuller t-distribution
// for a regression with a constant (large-sample). More negative statistics
// reject the unit-root null, i.e. indicate stationarity.
const ADFCritical5 = -2.86

// ADFResult reports an Augmented Dickey-Fuller test.
type ADFResult struct {
	Stat       float64 // t-statistic of the lagged-level coefficient
	Lags       int     // augmentation lags used
	Stationary bool    // Stat < ADFCritical5
}

// ADF runs the Augmented Dickey-Fuller stationarity test with a constant
// term, regressing
//
//	Δy_t = α + β·y_{t−1} + Σ γ_i·Δy_{t−i} + ε
//
// and testing β = 0 (unit root) against β < 0 (stationary). lags < 0
// selects the Schwert rule ⌊12·(n/100)^{1/4}⌋ capped to keep enough
// observations. A constant series is reported as stationary with a strongly
// negative sentinel statistic.
func ADF(series []float64, lags int) ADFResult {
	return new(scratch).adfTest(series, lags, isConstant(series))
}

// adfTest is ADF with the series' constancy precomputed.
func (sc *scratch) adfTest(series []float64, lags int, constant bool) ADFResult {
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

	diffs := resize(&sc.diffs, n-1)
	for i := 1; i < n; i++ {
		diffs[i-1] = series[i] - series[i-1]
	}
	// Rows: t runs over diffs indices [lags, len(diffs)).
	rows := len(diffs) - lags
	k := 2 + lags // intercept, y_{t-1}, lagged diffs
	if rows <= k {
		return ADFResult{Stat: 0, Stationary: false}
	}
	// Row r is t = r+lags: y_{t-1} is series[t] in original indexing
	// (diffs[t] = y[t+1]-y[t]), lag l is diffs[t-l], the response diffs[t].
	cols := append(sc.design(rows, k), series[lags:lags+rows])
	for l := 1; l <= lags; l++ {
		cols = append(cols, diffs[lags-l:lags-l+rows])
	}
	beta, se, ok := sc.olsWithSE(cols, diffs[lags:], 1)
	if !ok || se == 0 {
		return ADFResult{Stat: 0, Lags: lags, Stationary: false}
	}
	stat := beta / se
	return ADFResult{Stat: stat, Lags: lags, Stationary: stat < ADFCritical5}
}

// olsWithSE fits y ~ cols by OLS and returns coefficient j and its
// standard error, taking the needed diagonal of (X'X)^{-1} from a second
// solve against a unit vector.
func (sc *scratch) olsWithSE(cols [][]float64, y []float64, j int) (coef, se float64, ok bool) {
	rows, k := len(cols[0]), len(cols)
	beta, ok := sc.solveOLS(cols, y)
	if !ok {
		return 0, 0, false
	}
	// Residual variance.
	var rss float64
	for r, pred := range sc.fitted(cols, beta, rows) {
		d := y[r] - pred
		rss += d * d
	}
	dof := rows - k
	if dof <= 0 {
		return 0, 0, false
	}
	sigma2 := rss / float64(dof)
	// (X'X)^{-1}_{jj} via solving X'X z = e_j.
	z := resize(&sc.unit, k)
	clear(z)
	z[j] = 1
	copy(sc.work, sc.xtx)
	if mathx.SolveLinearFlat(sc.work, z, k) != nil || z[j] < 0 {
		return 0, 0, false
	}
	return beta[j], math.Sqrt(sigma2 * z[j]), true
}

func isConstant(series []float64) bool {
	if len(series) == 0 {
		return true
	}
	for _, v := range series[1:] {
		if v != series[0] {
			return false
		}
	}
	return true
}
