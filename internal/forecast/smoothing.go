package forecast

import "math"

// ExpSmoothing is single exponential smoothing with dynamic parameter
// selection: the smoothing factor alpha is chosen per call by minimizing the
// one-step-ahead squared error over the history window (§4.3.3 notes ES and
// Holt have "dynamic parameter selection"). ES tracks general trends in
// dense traffic without assuming structure.
type ExpSmoothing struct {
	grid []float64
}

// NewExpSmoothing returns an exponential smoothing forecaster.
func NewExpSmoothing() *ExpSmoothing {
	return &ExpSmoothing{grid: alphaGrid()}
}

func alphaGrid() []float64 {
	g := make([]float64, 0, 19)
	for a := 0.05; a < 1.0; a += 0.05 {
		g = append(g, a)
	}
	return g
}

// Name implements Forecaster.
func (e *ExpSmoothing) Name() string { return "expsmooth" }

// ForecastInto implements Forecaster. The grid search runs all alpha
// chains interleaved — history outer, grid inner, one level/SSE slot per
// alpha — so one pass over the history updates every candidate. Each
// chain performs its reference operations in its reference order, so the
// selected level is bit-identical to the chain-at-a-time search.
func (e *ExpSmoothing) ForecastInto(history []float64, horizon int, dst []float64, ws *Workspace) []float64 {
	if horizon <= 0 {
		return nil
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	dst = ensureDst(dst, horizon)
	if len(history) == 0 {
		zeroInto(dst)
		return dst
	}
	bestLevel, _ := esSearchWS(history, e.grid, ws)
	// ES forecasts a flat continuation of the smoothed level.
	constantInto(dst, bestLevel)
	return dst
}

// esSearchWS runs the interleaved alpha grid search and returns the
// SSE-minimizing smoothed level with its SSE (strict < in grid order,
// matching the reference tie-breaking). The final per-alpha levels are
// left in ws.levels for callers that want the grid spread.
func esSearchWS(history, g []float64, ws *Workspace) (bestLevel, bestSSE float64) {
	levels := growF(ws.levels, len(g))
	ws.levels = levels
	sses := growF(ws.sses, len(g))
	ws.sses = sses
	// Re-slicing to len(g) is a no-op at runtime (growF sized them) but
	// lets the compiler drop the bounds checks in the hot interleave.
	levels = levels[:len(g)]
	sses = sses[:len(g)]
	for a := range g {
		levels[a] = history[0]
		sses[a] = 0
	}
	for i := 1; i < len(history); i++ {
		hv := history[i]
		for a, alpha := range g {
			err := hv - levels[a]
			sses[a] += err * err
			levels[a] += alpha * err
		}
	}
	bestLevel = history[len(history)-1]
	bestSSE = math.Inf(1)
	for a := range g {
		if sses[a] < bestSSE {
			bestSSE = sses[a]
			bestLevel = levels[a]
		}
	}
	return bestLevel, bestSSE
}

// ForecastQuantilesInto implements Forecaster. The scale
// combines the winning chain's one-step residual variance with the
// disagreement (variance) of the final smoothed levels across the alpha
// grid — both byproducts of the search already in the workspace. ES
// forecasts a flat continuation, so the band does not widen with t.
func (e *ExpSmoothing) ForecastQuantilesInto(history []float64, horizon int, levels, dst []float64, ws *Workspace) []float64 {
	if horizon <= 0 || len(levels) == 0 {
		return nil
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	dst = ensureDst(dst, len(levels)*horizon)
	if len(history) == 0 {
		zeroInto(dst)
		return dst
	}
	bestLevel, bestSSE := esSearchWS(history, e.grid, ws)
	denom := len(history) - 1
	if denom < 1 {
		denom = 1
	}
	residVar := bestSSE / float64(denom)
	chains := ws.levels[:len(e.grid)]
	var gm float64
	for _, v := range chains {
		gm += v
	}
	gm /= float64(len(chains))
	var gv float64
	for _, v := range chains {
		d := v - gm
		gv += d * d
	}
	gv /= float64(len(chains))
	sigma := guardSigma(math.Sqrt(residVar + gv))
	fillConstQuantilesWS(dst, bestLevel, sigma, levels, horizon, ws)
	return dst
}

// Holt is double exponential smoothing: a smoothed level plus a smoothed
// linear trend, with (alpha, beta) selected per call by one-step-ahead SSE.
// Holt follows trending traffic (growing adoption, ramping launches) that a
// flat ES forecast lags behind.
type Holt struct {
	alphas []float64
	betas  []float64
}

// NewHolt returns a Holt double-exponential-smoothing forecaster.
func NewHolt() *Holt {
	return &Holt{
		alphas: []float64{0.1, 0.2, 0.3, 0.5, 0.7, 0.9},
		betas:  []float64{0.05, 0.1, 0.2, 0.4, 0.8},
	}
}

// Name implements Forecaster.
func (h *Holt) Name() string { return "holt" }

// ForecastInto implements Forecaster. Like ExpSmoothing, all
// (alpha, beta) chains run interleaved over a single history pass, one
// level/trend/SSE slot per combination in (alpha outer, beta inner)
// order. alpha*beta is precomputed per combination — the reference
// evaluates alpha*beta*err left-to-right, so the product is the same —
// and each chain's recurrence is order-identical, so the selected
// (level, trend) is bit-identical to the reference search.
func (h *Holt) ForecastInto(history []float64, horizon int, dst []float64, ws *Workspace) []float64 {
	if horizon <= 0 {
		return nil
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	dst = ensureDst(dst, horizon)
	if len(history) < 2 {
		v := 0.0
		if len(history) == 1 {
			v = history[0]
		}
		constantInto(dst, v)
		return dst
	}
	bestLevel, bestTrend, _ := holtSearchWS(history, h.alphas, h.betas, ws)
	for t := range dst {
		v := bestLevel + float64(t+1)*bestTrend
		if v < 0 || v != v {
			v = 0
		}
		dst[t] = v
	}
	return dst
}

// holtSearchWS runs the interleaved (alpha, beta) grid search and
// returns the SSE-minimizing (level, trend) with its SSE. The final
// per-combination levels and trends are left in ws.levels/ws.trends for
// callers that want the grid spread. len(history) must be >= 2.
func holtSearchWS(history, alphas, betas []float64, ws *Workspace) (bestLevel, bestTrend, bestSSE float64) {
	combos := len(alphas) * len(betas)
	levels := growF(ws.levels, combos)
	ws.levels = levels
	trends := growF(ws.trends, combos)
	ws.trends = trends
	sses := growF(ws.sses, combos)
	ws.sses = sses
	ga := growF(ws.ga, combos)
	ws.ga = ga
	gab := growF(ws.gab, combos)
	ws.gab = gab
	c := 0
	for _, alpha := range alphas {
		for _, beta := range betas {
			ga[c] = alpha
			gab[c] = alpha * beta
			c++
		}
	}
	trend0 := history[1] - history[0]
	for c := 0; c < combos; c++ {
		levels[c] = history[0]
		trends[c] = trend0
		sses[c] = 0
	}
	// No-op re-slices that let the compiler drop bounds checks in the
	// interleaved recurrence.
	levels = levels[:combos]
	trends = trends[:combos]
	sses = sses[:combos]
	ga = ga[:combos]
	gab = gab[:combos]
	for i := 1; i < len(history); i++ {
		hv := history[i]
		for c := range levels {
			pred := levels[c] + trends[c]
			err := hv - pred
			sses[c] += err * err
			levels[c] = pred + ga[c]*err
			trends[c] += gab[c] * err
		}
	}
	bestSSE = math.Inf(1)
	for c := 0; c < combos; c++ {
		if sses[c] < bestSSE {
			bestSSE = sses[c]
			bestLevel, bestTrend = levels[c], trends[c]
		}
	}
	return bestLevel, bestTrend, bestSSE
}

// ForecastQuantilesInto implements Forecaster. The per-step
// scale combines the winning chain's one-step residual variance with the
// variance of the step-t extrapolations across the (alpha, beta) grid,
// so the band widens with the horizon exactly as the candidate trends
// fan out.
func (h *Holt) ForecastQuantilesInto(history []float64, horizon int, levels, dst []float64, ws *Workspace) []float64 {
	if horizon <= 0 || len(levels) == 0 {
		return nil
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	dst = ensureDst(dst, len(levels)*horizon)
	if len(history) < 2 {
		v := 0.0
		if len(history) == 1 {
			v = history[0]
		}
		fillConstQuantilesWS(dst, v, 0, levels, horizon, ws)
		return dst
	}
	bestLevel, bestTrend, bestSSE := holtSearchWS(history, h.alphas, h.betas, ws)
	denom := len(history) - 1
	if denom < 1 {
		denom = 1
	}
	residVar := bestSSE / float64(denom)
	combos := len(h.alphas) * len(h.betas)
	lv := ws.levels[:combos]
	tr := ws.trends[:combos]
	qpt := ws.qPoint(horizon)
	sig := ws.qSig(horizon)
	for t := 0; t < horizon; t++ {
		step := float64(t + 1)
		v := bestLevel + step*bestTrend
		if v < 0 || v != v {
			v = 0
		}
		qpt[t] = v
		var gm float64
		for c := range lv {
			gm += lv[c] + step*tr[c]
		}
		gm /= float64(combos)
		var gv float64
		for c := range lv {
			d := lv[c] + step*tr[c] - gm
			gv += d * d
		}
		gv /= float64(combos)
		sig[t] = guardSigma(math.Sqrt(residVar + gv))
	}
	fillQuantilesWS(dst, qpt, sig, levels, horizon, ws)
	return dst
}
