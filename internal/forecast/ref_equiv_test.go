package forecast

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/ubc-cirrus-lab/femux-go/internal/mathx"
)

// This file retains the pre-workspace forecaster implementations verbatim
// (same pattern as features/bds_ref_test.go) and asserts the ForecastInto
// kernels are bit-for-bit identical to them: same Float64bits for every
// element, every forecaster, across history shapes, lengths, horizons,
// and workspace/destination reuse. Bit-identity is what keeps memo cache
// keys, trained models, and restart-resume forecasts valid regardless of
// which path produced a value.

// ---- reference implementations (verbatim pre-optimization code) ----

func refClampNonNegative(xs []float64) []float64 {
	for i, v := range xs {
		if v < 0 || v != v {
			xs[i] = 0
		}
	}
	return xs
}

func refConstant(v float64, horizon int) []float64 {
	if v < 0 || v != v {
		v = 0
	}
	out := make([]float64, horizon)
	for i := range out {
		out[i] = v
	}
	return out
}

func refFitAR(history []float64, lags int) ([]float64, bool) {
	n := len(history)
	rows := n - lags
	if rows < lags+2 {
		return nil, false
	}
	x := make([][]float64, rows)
	y := make([]float64, rows)
	for r := 0; r < rows; r++ {
		row := make([]float64, lags+1)
		row[0] = 1
		for l := 1; l <= lags; l++ {
			row[l] = history[r+lags-l]
		}
		x[r] = row
		y[r] = history[r+lags]
	}
	coef, err := mathx.LeastSquares(x, y)
	if err != nil {
		return nil, false
	}
	return coef, true
}

func refPredictAR(history, coef []float64, lags, horizon int) []float64 {
	buf := append([]float64(nil), history...)
	out := make([]float64, horizon)
	for t := 0; t < horizon; t++ {
		v := coef[0]
		for l := 1; l <= lags; l++ {
			idx := len(buf) - l
			if idx >= 0 {
				v += coef[l] * buf[idx]
			}
		}
		if v < 0 || v != v {
			v = 0
		}
		out[t] = v
		buf = append(buf, v)
	}
	return out
}

func refARForecast(lags int, history []float64, horizon int) []float64 {
	if horizon <= 0 {
		return nil
	}
	coef, ok := refFitAR(history, lags)
	if !ok {
		return refConstant(mean(history), horizon)
	}
	return refClampNonNegative(refPredictAR(history, coef, lags, horizon))
}

func refFitARRows(history []float64, rowIdx []int, lags int) ([]float64, bool) {
	if len(rowIdx) < lags+2 {
		return nil, false
	}
	x := make([][]float64, len(rowIdx))
	y := make([]float64, len(rowIdx))
	for i, r := range rowIdx {
		row := make([]float64, lags+1)
		row[0] = 1
		for l := 1; l <= lags; l++ {
			row[l] = history[r+lags-l]
		}
		x[i] = row
		y[i] = history[r+lags]
	}
	coef, err := mathx.LeastSquares(x, y)
	if err != nil {
		return nil, false
	}
	return coef, true
}

func refRegimeThresholds(history []float64, k int) []float64 {
	if len(history) < 4 {
		return nil
	}
	sorted := append([]float64(nil), history...)
	sort.Float64s(sorted)
	if sorted[0] == sorted[len(sorted)-1] {
		return nil
	}
	out := make([]float64, 0, k)
	for i := 1; i <= k; i++ {
		q := float64(i) / float64(k+1)
		v := sorted[int(q*float64(len(sorted)-1))]
		if len(out) == 0 || v > out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

func refSETARForecast(lags, thresholds int, history []float64, horizon int) []float64 {
	if horizon <= 0 {
		return nil
	}
	thr := refRegimeThresholds(history, thresholds)
	if len(thr) == 0 {
		return refARForecast(lags, history, horizon)
	}
	type regimeFit struct {
		coef []float64
		ok   bool
	}
	nRegimes := len(thr) + 1
	fits := make([]regimeFit, nRegimes)
	rows := len(history) - lags
	if rows < lags+2 {
		return refARForecast(lags, history, horizon)
	}
	regimeRows := make([][]int, nRegimes)
	for r := 0; r < rows; r++ {
		reg := regimeOf(history[r+lags-1], thr)
		regimeRows[reg] = append(regimeRows[reg], r)
	}
	for reg := 0; reg < nRegimes; reg++ {
		coef, ok := refFitARRows(history, regimeRows[reg], lags)
		fits[reg] = regimeFit{coef: coef, ok: ok}
	}
	globalCoef, globalOK := refFitAR(history, lags)

	buf := append([]float64(nil), history...)
	out := make([]float64, horizon)
	for t := 0; t < horizon; t++ {
		reg := regimeOf(buf[len(buf)-1], thr)
		var coef []float64
		switch {
		case fits[reg].ok:
			coef = fits[reg].coef
		case globalOK:
			coef = globalCoef
		default:
			out[t] = mean(history)
			buf = append(buf, out[t])
			continue
		}
		v := coef[0]
		for l := 1; l <= lags; l++ {
			idx := len(buf) - l
			if idx >= 0 {
				v += coef[l] * buf[idx]
			}
		}
		if v < 0 || v != v {
			v = 0
		}
		out[t] = v
		buf = append(buf, v)
	}
	return out
}

func refFFTForecast(harmonics int, history []float64, horizon int) []float64 {
	if horizon <= 0 {
		return nil
	}
	n := len(history)
	if n < 4 {
		return refConstant(mean(history), horizon)
	}
	m := mean(history)
	hs := mathx.TopHarmonics(history, harmonics)
	out := mathx.SynthesizeHarmonics(m, hs, n, n, horizon)
	return refClampNonNegative(out)
}

func refExpSmoothingForecast(grid, history []float64, horizon int) []float64 {
	if horizon <= 0 {
		return nil
	}
	if len(history) == 0 {
		return make([]float64, horizon)
	}
	bestLevel := history[len(history)-1]
	bestSSE := math.Inf(1)
	for _, alpha := range grid {
		level := history[0]
		var sse float64
		for i := 1; i < len(history); i++ {
			err := history[i] - level
			sse += err * err
			level += alpha * err
		}
		if sse < bestSSE {
			bestSSE = sse
			bestLevel = level
		}
	}
	return refConstant(bestLevel, horizon)
}

func refHoltForecast(alphas, betas, history []float64, horizon int) []float64 {
	if horizon <= 0 {
		return nil
	}
	if len(history) < 2 {
		v := 0.0
		if len(history) == 1 {
			v = history[0]
		}
		return refConstant(v, horizon)
	}
	bestSSE := math.Inf(1)
	var bestLevel, bestTrend float64
	for _, alpha := range alphas {
		for _, beta := range betas {
			level := history[0]
			trend := history[1] - history[0]
			var sse float64
			for i := 1; i < len(history); i++ {
				pred := level + trend
				err := history[i] - pred
				sse += err * err
				newLevel := pred + alpha*err
				trend += alpha * beta * err
				level = newLevel
			}
			if sse < bestSSE {
				bestSSE = sse
				bestLevel, bestTrend = level, trend
			}
		}
	}
	out := make([]float64, horizon)
	for t := 0; t < horizon; t++ {
		out[t] = bestLevel + float64(t+1)*bestTrend
	}
	return refClampNonNegative(out)
}

func refDiscretize(history []float64, k int) (bounds, centroids []float64) {
	sorted := append([]float64(nil), history...)
	sort.Float64s(sorted)
	if sorted[0] == sorted[len(sorted)-1] {
		return nil, nil
	}
	bounds = make([]float64, 0, k-1)
	for i := 1; i < k; i++ {
		q := float64(i) / float64(k)
		v := sorted[int(q*float64(len(sorted)-1))]
		if len(bounds) == 0 || v > bounds[len(bounds)-1] {
			bounds = append(bounds, v)
		}
	}
	n := len(bounds) + 1
	sums := make([]float64, n)
	counts := make([]float64, n)
	for _, v := range history {
		s := stateOf(v, bounds)
		sums[s] += v
		counts[s]++
	}
	centroids = make([]float64, n)
	for i := range centroids {
		if counts[i] > 0 {
			centroids[i] = sums[i] / counts[i]
		}
	}
	return bounds, centroids
}

func refMarkovForecast(states int, history []float64, horizon int) []float64 {
	if horizon <= 0 {
		return nil
	}
	if len(history) < states*2 {
		return refConstant(mean(history), horizon)
	}
	bounds, centroids := refDiscretize(history, states)
	if bounds == nil {
		return refConstant(history[len(history)-1], horizon)
	}
	k := len(centroids)
	trans := make([][]float64, k)
	for i := range trans {
		trans[i] = make([]float64, k)
		for j := range trans[i] {
			trans[i][j] = 0.1
		}
	}
	prev := stateOf(history[0], bounds)
	for i := 1; i < len(history); i++ {
		cur := stateOf(history[i], bounds)
		trans[prev][cur]++
		prev = cur
	}
	for i := range trans {
		var row float64
		for _, v := range trans[i] {
			row += v
		}
		for j := range trans[i] {
			trans[i][j] /= row
		}
	}
	dist := make([]float64, k)
	dist[stateOf(history[len(history)-1], bounds)] = 1
	out := make([]float64, horizon)
	next := make([]float64, k)
	for t := 0; t < horizon; t++ {
		for j := range next {
			next[j] = 0
		}
		for i := range dist {
			if dist[i] == 0 {
				continue
			}
			for j := range next {
				next[j] += dist[i] * trans[i][j]
			}
		}
		copy(dist, next)
		var ev float64
		for j := range dist {
			ev += dist[j] * centroids[j]
		}
		out[t] = ev
	}
	return refClampNonNegative(out)
}

func refMovingAverageForecast(window int, history []float64, horizon int) []float64 {
	if horizon <= 0 {
		return nil
	}
	w := window
	if w > len(history) {
		w = len(history)
	}
	if w == 0 {
		return make([]float64, horizon)
	}
	return refConstant(mean(history[len(history)-w:]), horizon)
}

func refRecentPeakForecast(window int, history []float64, horizon int) []float64 {
	if horizon <= 0 {
		return nil
	}
	w := window
	if w > len(history) {
		w = len(history)
	}
	peak := 0.0
	for _, v := range history[len(history)-w:] {
		if v > peak {
			peak = v
		}
	}
	return refConstant(peak, horizon)
}

func refCeilPeakForecast(window int, history []float64, horizon int) []float64 {
	if horizon <= 0 {
		return nil
	}
	w := window
	if w > len(history) {
		w = len(history)
	}
	peak := 0.0
	for _, v := range history[len(history)-w:] {
		if v > peak {
			peak = v
		}
	}
	if peak > 0 {
		peak = math.Ceil(peak)
	}
	return refConstant(peak, horizon)
}

func refNaiveForecast(history []float64, horizon int) []float64 {
	if horizon <= 0 {
		return nil
	}
	if len(history) == 0 {
		return make([]float64, horizon)
	}
	return refConstant(history[len(history)-1], horizon)
}

func refZeroForecast(_ []float64, horizon int) []float64 {
	if horizon <= 0 {
		return nil
	}
	return make([]float64, horizon)
}

// ---- equivalence harness ----

type refPair struct {
	fc  Forecaster
	ref func(history []float64, horizon int) []float64
}

func refPairs() []refPair {
	esGrid := alphaGrid()
	holt := NewHolt()
	return []refPair{
		{NewAR(10), func(h []float64, n int) []float64 { return refARForecast(10, h, n) }},
		{NewAR(3), func(h []float64, n int) []float64 { return refARForecast(3, h, n) }},
		{NewSETAR(10, 2), func(h []float64, n int) []float64 { return refSETARForecast(10, 2, h, n) }},
		{NewSETAR(4, 3), func(h []float64, n int) []float64 { return refSETARForecast(4, 3, h, n) }},
		{NewFFT(10), func(h []float64, n int) []float64 { return refFFTForecast(10, h, n) }},
		{NewFFT(3), func(h []float64, n int) []float64 { return refFFTForecast(3, h, n) }},
		{NewExpSmoothing(), func(h []float64, n int) []float64 { return refExpSmoothingForecast(esGrid, h, n) }},
		{holt, func(h []float64, n int) []float64 { return refHoltForecast(holt.alphas, holt.betas, h, n) }},
		{NewMarkovChain(4), func(h []float64, n int) []float64 { return refMarkovForecast(4, h, n) }},
		{NewMarkovChain(2), func(h []float64, n int) []float64 { return refMarkovForecast(2, h, n) }},
		{NewMovingAverage(60), func(h []float64, n int) []float64 { return refMovingAverageForecast(60, h, n) }},
		{NewRecentPeak(10), func(h []float64, n int) []float64 { return refRecentPeakForecast(10, h, n) }},
		{NewCeilPeak(1), func(h []float64, n int) []float64 { return refCeilPeakForecast(1, h, n) }},
		{NewCeilPeak(30), func(h []float64, n int) []float64 { return refCeilPeakForecast(30, h, n) }},
		{Naive{}, refNaiveForecast},
		{Zero{}, refZeroForecast},
	}
}

// refHistories covers the interesting shapes: empty/tiny (fallbacks),
// constants (degenerate quantiles), power-of-two and Bluestein FFT
// lengths, sparse series with many exact zeros (the vi == 0 accumulation
// skip), trickle traffic, bursts, and trending ramps.
func refHistories() map[string][]float64 {
	rng := rand.New(rand.NewSource(1234))
	hs := map[string][]float64{
		"nil":      nil,
		"empty":    {},
		"one":      {2.5},
		"two":      {1, 3},
		"three":    {0, 1, 0},
		"const5":   make([]float64, 40),
		"zeros":    make([]float64, 64),
		"len4":     {1, 2, 3, 4},
		"negative": {-1, 2, -3, 4, -5, 6, -7, 8, -2, 1, 0, 3},
	}
	for i := range hs["const5"] {
		hs["const5"][i] = 5
	}
	for _, n := range []int{10, 60, 64, 120, 128, 504, 600} {
		sine := make([]float64, n)
		noisy := make([]float64, n)
		sparse := make([]float64, n)
		ramp := make([]float64, n)
		for i := 0; i < n; i++ {
			sine[i] = 5 + 4*math.Sin(2*math.Pi*float64(i)/12)
			noisy[i] = math.Max(0, 3+2*math.Sin(2*math.Pi*float64(i)/30)+rng.NormFloat64())
			if rng.Intn(10) == 0 {
				sparse[i] = float64(1 + rng.Intn(5))
			}
			ramp[i] = 0.05 * float64(i)
		}
		hs[fmt.Sprintf("sine%d", n)] = sine
		hs[fmt.Sprintf("noisy%d", n)] = noisy
		hs[fmt.Sprintf("sparse%d", n)] = sparse
		hs[fmt.Sprintf("ramp%d", n)] = ramp
	}
	return hs
}

func assertSameForecast(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d: got %v (%#x) want %v (%#x)", label, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestForecastMatchesReference checks ForecastInto with nil dst and ws,
// the allocating form, against the retained reference implementations.
func TestForecastMatchesReference(t *testing.T) {
	histories := refHistories()
	for _, p := range refPairs() {
		for hname, h := range histories {
			for _, horizon := range []int{0, 1, 5, 30} {
				label := fmt.Sprintf("%s/%s/h=%d", p.fc.Name(), hname, horizon)
				assertSameForecast(t, label, p.fc.ForecastInto(h, horizon, nil, nil), p.ref(h, horizon))
			}
		}
	}
}

// TestForecastIntoSharedWorkspaceMatchesReference reuses ONE workspace and
// ONE destination buffer across every forecaster, history shape, and
// horizon — in two passes, so every buffer is dirty with another
// forecaster's state on reuse — and requires bit-identical output. This
// is the test that catches stale scratch state leaking between calls.
func TestForecastIntoSharedWorkspaceMatchesReference(t *testing.T) {
	histories := refHistories()
	names := make([]string, 0, len(histories))
	for n := range histories {
		names = append(names, n)
	}
	sort.Strings(names)
	ws := NewWorkspace()
	dst := make([]float64, 0, 4) // deliberately undersized: exercises both reuse and regrow
	for pass := 0; pass < 2; pass++ {
		for _, p := range refPairs() {
			for _, hname := range names {
				h := histories[hname]
				for _, horizon := range []int{0, 1, 5, 30} {
					label := fmt.Sprintf("pass%d/%s/%s/h=%d", pass, p.fc.Name(), hname, horizon)
					got := p.fc.ForecastInto(h, horizon, dst, ws)
					assertSameForecast(t, label, got, p.ref(h, horizon))
					if cap(got) > cap(dst) {
						dst = got[:0]
					}
				}
			}
		}
	}
}
