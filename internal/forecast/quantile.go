package forecast

import (
	"math"
	"sort"
)

// This file adds forecast quantiles to every forecaster: instead of one
// point trajectory, ForecastQuantilesInto emits one trajectory per
// requested probability level, so a pod-conversion policy can provision
// for "the p95 demand of this app" instead of point × fixed headroom.
// The uncertainty estimates are byproducts the kernels already compute:
// AR/SETAR reuse their normal-equation fits for in-sample residual
// variance, ES/Holt reuse the grid-search chains (residual variance of
// the winner plus disagreement across the candidate grid), FFT measures
// the in-sample harmonic reconstruction error, and the Markov chain
// reads exact discrete quantiles off the state distribution it already
// rolls forward. The peak-hold and keep-warm envelopes read empirical
// quantiles straight off the trailing demand window (a peak-hold is the
// q->1 limit of "cover fraction q of recent intervals"), the moving
// average carries a Gaussian band from the window's dispersion, and the
// remaining heuristics (naive, zero) return a point mass: every level
// equals the point forecast.
//
// Results are level-major: dst[q*horizon+t] is level levels[q] at step
// t. Guarantees, pinned by quantile_prop_test.go and the fuzz target:
//
//   - monotone: for levels p <= p', every step of the p-curve is <= the
//     p'-curve (curves never cross, even for unsorted/duplicate levels);
//   - the 0.5 level is bit-identical to ForecastInto's point forecast
//     for every Gaussian-band forecaster (the Markov chain's point
//     forecast is an expected value, not a median, so it is exempt);
//   - values are clamped non-negative with the exact clamp the point
//     kernels use, and never NaN;
//   - degenerate levels (<=0, >=1, NaN) stay finite: levels are clamped
//     into (0, 1) and a NaN level falls back to the point forecast;
//   - repeated calls are Float64bits-identical, and a warmed workspace
//     makes the whole path allocation-free (alloc_test.go).

// GaussianQuantilesInto is the building block for forecasters outside
// this package (the Aquatope LSTM baseline, BYOM adapters): expand an
// already-clamped point trajectory and a per-step scale into level-major
// quantile curves with the same monotonicity, finiteness, and clamp
// guarantees as the built-in kernels. horizon is len(point); sig must
// have the same length (entries are sanitized like guardSigma).
func GaussianQuantilesInto(point, sig, levels, dst []float64, ws *Workspace) []float64 {
	horizon := len(point)
	if horizon <= 0 || len(levels) == 0 || len(sig) != horizon {
		return nil
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	dst = ensureDst(dst, len(levels)*horizon)
	s := ws.qSig(horizon)
	for t, v := range sig {
		s[t] = guardSigma(v)
	}
	fillQuantilesWS(dst, point, s, levels, horizon, ws)
	return dst
}

// quantileZ maps a probability level to a standard-normal z-score.
// Degenerate levels are clamped into (0, 1) so the result is always
// finite; a NaN level means "the point forecast" and maps to z = 0.
func quantileZ(level float64) float64 {
	if level != level {
		return 0
	}
	const eps = 1e-9
	if level < eps {
		level = eps
	}
	if level > 1-eps {
		level = 1 - eps
	}
	return normalQuantile(level)
}

// normalQuantile is Acklam's rational approximation to the inverse
// standard-normal CDF (relative error < 1.2e-9): deterministic, branch
// few, and dependency free. p must be in (0, 1).
func normalQuantile(p float64) float64 {
	const (
		a0 = -3.969683028665376e+01
		a1 = 2.209460984245205e+02
		a2 = -2.759285104469687e+02
		a3 = 1.383577518672690e+02
		a4 = -3.066479806614716e+01
		a5 = 2.506628277459239e+00

		b0 = -5.447609879822406e+01
		b1 = 1.615858368580409e+02
		b2 = -1.556989798598866e+02
		b3 = 6.680131188771972e+01
		b4 = -1.328068155288572e+01

		c0 = -7.784894002430293e-03
		c1 = -3.223964580411365e-01
		c2 = -2.400758277161838e+00
		c3 = -2.549732539343734e+00
		c4 = 4.374664141464968e+00
		c5 = 2.938163982698783e+00

		d0 = 7.784695709041462e-03
		d1 = 3.224671290700398e-01
		d2 = 2.445134137142996e+00
		d3 = 3.754408661907416e+00

		plow = 0.02425
	)
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c0*q+c1)*q+c2)*q+c3)*q+c4)*q + c5) /
			((((d0*q+d1)*q+d2)*q+d3)*q + 1)
	case p > 1-plow:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c0*q+c1)*q+c2)*q+c3)*q+c4)*q + c5) /
			((((d0*q+d1)*q+d2)*q+d3)*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a0*r+a1)*r+a2)*r+a3)*r+a4)*r + a5) * q /
			(((((b0*r+b1)*r+b2)*r+b3)*r+b4)*r + 1)
	}
}

// guardSigma sanitizes a scale estimate: NaN, infinite, or negative
// spreads (all reachable from pathological histories) collapse to 0,
// which degrades the quantile curves to the point forecast instead of
// poisoning them.
func guardSigma(s float64) float64 {
	if s != s || s < 0 || math.IsInf(s, 0) {
		return 0
	}
	return s
}

// histStd is the sample standard deviation of the window, the graceful
// spread estimate used when a forecaster's model-based one is
// unavailable (fit failure, history too short for the model).
func histStd(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := mean(xs)
	var sse float64
	for _, v := range xs {
		e := v - m
		sse += e * e
	}
	return guardSigma(math.Sqrt(sse / float64(len(xs)-1)))
}

// qPoint returns the horizon-length point-trajectory scratch.
func (ws *Workspace) qPoint(n int) []float64 {
	ws.qpt = growF(ws.qpt, n)
	return ws.qpt
}

// qSig returns the horizon-length per-step scale scratch.
func (ws *Workspace) qSig(n int) []float64 {
	ws.qsig = growF(ws.qsig, n)
	return ws.qsig
}

// computeZWS fills ws.qz with each level's z-score, then forces the
// scores monotone non-decreasing in level. The rational approximation
// has ~1e-9 seams between its regions; without this pass two levels
// straddling a seam could produce curves that cross by a ulp, which
// would break the never-crossing guarantee the policy layer relies on.
// NaN levels (z = 0, "point forecast") are excluded — they are
// incomparable and never ordered against real levels.
func computeZWS(levels []float64, ws *Workspace) []float64 {
	z := growF(ws.qz, len(levels))
	ws.qz = z
	for i, p := range levels {
		z[i] = quantileZ(p)
	}
	ord := growI(ws.qord, len(levels))
	ws.qord = ord
	m := 0
	for i, p := range levels {
		if p == p {
			ord[m] = i
			m++
		}
	}
	ord = ord[:m]
	// Insertion sort by level (levels lists are tiny); stable, so
	// duplicate levels keep their relative order and end with equal z.
	for i := 1; i < m; i++ {
		for j := i; j > 0 && levels[ord[j]] < levels[ord[j-1]]; j-- {
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
	for j := 1; j < m; j++ {
		if z[ord[j]] < z[ord[j-1]] {
			z[ord[j]] = z[ord[j-1]]
		}
	}
	return z
}

// fillQuantilesWS expands a point trajectory plus a per-step scale into
// the level-major destination: dst[q*horizon+t] = point[t] + z_q*sig[t],
// clamped exactly like the point kernels clamp. point must already
// carry the point path's clamps so the 0.5 level reproduces ForecastInto
// bit for bit; sig must be guardSigma-sanitized (>= 0, finite).
func fillQuantilesWS(dst, point, sig, levels []float64, horizon int, ws *Workspace) {
	z := computeZWS(levels, ws)
	for q := range levels {
		row := dst[q*horizon : (q+1)*horizon]
		zq := z[q]
		for t := range row {
			v := point[t] + zq*sig[t]
			if v < 0 || v != v {
				v = 0
			}
			row[t] = v
		}
	}
}

// fillConstQuantilesWS is fillQuantilesWS for a constant point forecast
// with a horizon-independent scale — the degenerate-history path shared
// by several forecasters.
func fillConstQuantilesWS(dst []float64, base, sigma float64, levels []float64, horizon int, ws *Workspace) {
	if base < 0 || base != base {
		base = 0
	}
	sigma = guardSigma(sigma)
	z := computeZWS(levels, ws)
	for q := range levels {
		v := base + z[q]*sigma
		if v < 0 || v != v {
			v = 0
		}
		row := dst[q*horizon : (q+1)*horizon]
		for t := range row {
			row[t] = v
		}
	}
}

// windowQuantilesInto is the keep-alive family's quantile kernel: each
// level's curve is the flat empirical level-quantile (nearest-rank,
// rounding up, so levels at or above (n-1)/n hit the window max) of the
// trailing window. NaN window values are ignored — they never raise the
// point kernels' peak either — and negatives clamp to zero exactly like
// the point paths, whose running peak starts at 0. A window with no
// finite values degenerates to a zero point mass; a NaN level falls
// back to the point forecast (the max), mirroring Markov's convention.
// ceilWarm applies CeilPeak's keep-warm rounding per level.
func windowQuantilesInto(history []float64, horizon, window int, levels, dst []float64, ws *Workspace, ceilWarm bool) []float64 {
	if horizon <= 0 || len(levels) == 0 {
		return nil
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	dst = ensureDst(dst, len(levels)*horizon)
	w := window
	if w > len(history) {
		w = len(history)
	}
	buf := growF(ws.qres, w)[:0]
	for _, v := range history[len(history)-w:] {
		if v != v {
			continue
		}
		if v < 0 {
			v = 0
		}
		buf = append(buf, v)
	}
	ws.qres = buf[:cap(buf)]
	n := len(buf)
	if n == 0 {
		fillConstQuantilesWS(dst, 0, 0, levels, horizon, ws)
		return dst
	}
	sort.Float64s(buf)
	for q, lv := range levels {
		v := buf[n-1] // NaN level or lv >= 1: the envelope itself
		switch {
		case lv != lv:
		case lv <= 0:
			v = buf[0]
		case lv < 1:
			idx := int(math.Ceil(lv*float64(n))) - 1
			if idx < 0 {
				idx = 0
			} else if idx >= n {
				idx = n - 1
			}
			v = buf[idx]
		}
		if ceilWarm && v > 0 {
			v = math.Ceil(v)
		}
		constantInto(dst[q*horizon:(q+1)*horizon], v)
	}
	return dst
}

// pointMassQuantilesInto replicates the point forecast at every level —
// the quantile semantics of forecasters with no error model or demand
// distribution to draw from: the naive last-value hold and the zero floor.
func pointMassQuantilesInto(fc Forecaster, history []float64, horizon int, levels, dst []float64, ws *Workspace) []float64 {
	if horizon <= 0 || len(levels) == 0 {
		return nil
	}
	dst = ensureDst(dst, len(levels)*horizon)
	pt := fc.ForecastInto(history, horizon, dst[:horizon], ws)
	copy(dst[:horizon], pt)
	for q := 1; q < len(levels); q++ {
		copy(dst[q*horizon:(q+1)*horizon], dst[:horizon])
	}
	return dst
}
