package forecast

import (
	"fmt"
	"math"
)

// MovingAverage forecasts the mean of the last Window values — the data
// path of Knative's default autoscaler, which sizes pods from a 1-minute
// sliding average of concurrency (§3.2). It is the "1-min moving average"
// baseline in Fig 5.
type MovingAverage struct {
	window int
}

// NewMovingAverage returns a moving-average forecaster over the last window
// intervals.
func NewMovingAverage(window int) *MovingAverage {
	if window < 1 {
		window = 1
	}
	return &MovingAverage{window: window}
}

// Name implements Forecaster.
func (m *MovingAverage) Name() string { return fmt.Sprintf("ma%d", m.window) }

// Lookback is the trailing values it reads (see forecast.Lookback).
func (m *MovingAverage) Lookback() int { return m.window }

// ForecastInto implements Forecaster.
func (m *MovingAverage) ForecastInto(history []float64, horizon int, dst []float64, _ *Workspace) []float64 {
	if horizon <= 0 {
		return nil
	}
	dst = ensureDst(dst, horizon)
	w := m.window
	if w > len(history) {
		w = len(history)
	}
	if w == 0 {
		zeroInto(dst)
		return dst
	}
	constantInto(dst, mean(history[len(history)-w:]))
	return dst
}

// RecentPeak forecasts the maximum over the trailing window — the
// keep-alive behaviour expressed as a forecaster. It is the conservative
// member of FeMux's set (Fig 17 lists fixed keep-alive among the
// forecasters): bursty blocks route here, trading memory for cold starts.
type RecentPeak struct {
	window int
}

// NewRecentPeak returns a peak-hold forecaster over the last window
// intervals.
func NewRecentPeak(window int) *RecentPeak {
	if window < 1 {
		window = 1
	}
	return &RecentPeak{window: window}
}

// Name implements Forecaster.
func (r *RecentPeak) Name() string { return fmt.Sprintf("peak%d", r.window) }

// Lookback is the trailing values it reads (see forecast.Lookback).
func (r *RecentPeak) Lookback() int { return r.window }

// ForecastInto implements Forecaster.
func (r *RecentPeak) ForecastInto(history []float64, horizon int, dst []float64, _ *Workspace) []float64 {
	if horizon <= 0 {
		return nil
	}
	dst = ensureDst(dst, horizon)
	w := r.window
	if w > len(history) {
		w = len(history)
	}
	peak := 0.0
	for _, v := range history[len(history)-w:] {
		if v > peak {
			peak = v
		}
	}
	constantInto(dst, peak)
	return dst
}

// CeilPeak forecasts the ceiling of the trailing-window peak: whenever the
// window saw any traffic at all, it predicts at least one full unit of
// concurrency. This is the keep-warm forecaster for trickle traffic —
// applications whose average concurrency is a small fraction (a few short
// requests per minute) but whose requests arrive every minute. Fractional
// forecasts for such apps scale to zero and incur a cold start per minute;
// CeilPeak keeps one unit warm, which the default RUM's exchange rate
// (≈99.7 GB-s per cold-start second) strongly favours. Single-forecaster
// baselines lack this option; FeMux's classifier routes trickle blocks
// here via the density feature.
type CeilPeak struct {
	window int
}

// NewCeilPeak returns a keep-warm forecaster over the last window
// intervals.
func NewCeilPeak(window int) *CeilPeak {
	if window < 1 {
		window = 1
	}
	return &CeilPeak{window: window}
}

// Name implements Forecaster.
func (c *CeilPeak) Name() string { return fmt.Sprintf("warm%d", c.window) }

// Lookback is the trailing values it reads (see forecast.Lookback).
func (c *CeilPeak) Lookback() int { return c.window }

// ForecastInto implements Forecaster.
func (c *CeilPeak) ForecastInto(history []float64, horizon int, dst []float64, _ *Workspace) []float64 {
	if horizon <= 0 {
		return nil
	}
	dst = ensureDst(dst, horizon)
	w := c.window
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
	constantInto(dst, peak)
	return dst
}

// Naive forecasts the most recent observation for every future interval.
type Naive struct{}

// Name implements Forecaster.
func (Naive) Name() string { return "naive" }

// Lookback is the trailing values it reads (see forecast.Lookback).
func (Naive) Lookback() int { return 1 }

// ForecastInto implements Forecaster.
func (Naive) ForecastInto(history []float64, horizon int, dst []float64, _ *Workspace) []float64 {
	if horizon <= 0 {
		return nil
	}
	dst = ensureDst(dst, horizon)
	if len(history) == 0 {
		zeroInto(dst)
		return dst
	}
	constantInto(dst, history[len(history)-1])
	return dst
}

// Zero always forecasts zero — the scale-to-zero extreme, useful as a floor
// in comparisons (anything that loses to Zero is wasting resources for no
// cold-start benefit).
type Zero struct{}

// Name implements Forecaster.
func (Zero) Name() string { return "zero" }

// ForecastInto implements Forecaster.
func (Zero) ForecastInto(_ []float64, horizon int, dst []float64, _ *Workspace) []float64 {
	if horizon <= 0 {
		return nil
	}
	dst = ensureDst(dst, horizon)
	zeroInto(dst)
	return dst
}

// The keep-alive family's quantile forecasts come straight from the
// demand distribution, not from a model's error band. A peak-hold is
// the limit of "provision for fraction q of recent intervals" as q->1,
// so its level-q forecast is the empirical q-quantile of the trailing
// window: p99 reproduces the conservative envelope, p50 holds only
// median demand. This is what turns the keep-alive end of FeMux's set
// into a frontier instead of a single operating point — exactly the
// knob Fig 9 sweeps by varying keep-alive minutes, but swept by
// coverage instead of by timeout. The moving average (Knative's data
// path) instead carries a Gaussian band from the window's dispersion,
// since its point forecast is a central estimate. Naive and Zero stay
// point masses: a last-value hold and the scale-to-zero floor have no
// distribution to draw from.

// ForecastQuantilesInto implements Forecaster: Gaussian band
// around the window mean with the window's own standard deviation as
// sigma ("provision for the p-th percentile of demand, assuming the
// window is representative"). Level 0.5 is bitwise the point forecast.
func (m *MovingAverage) ForecastQuantilesInto(history []float64, horizon int, levels, dst []float64, ws *Workspace) []float64 {
	if horizon <= 0 || len(levels) == 0 {
		return nil
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	dst = ensureDst(dst, len(levels)*horizon)
	w := m.window
	if w > len(history) {
		w = len(history)
	}
	if w == 0 {
		fillConstQuantilesWS(dst, 0, 0, levels, horizon, ws)
		return dst
	}
	win := history[len(history)-w:]
	fillConstQuantilesWS(dst, mean(win), histStd(win), levels, horizon, ws)
	return dst
}

// ForecastQuantilesInto implements Forecaster: the empirical
// level-quantile of the trailing window. Levels at or above (n-1)/n
// reproduce the point forecast (the window max).
func (r *RecentPeak) ForecastQuantilesInto(history []float64, horizon int, levels, dst []float64, ws *Workspace) []float64 {
	return windowQuantilesInto(history, horizon, r.window, levels, dst, ws, false)
}

// ForecastQuantilesInto implements Forecaster: the empirical
// level-quantile of the trailing window with CeilPeak's keep-warm
// rounding applied, so any level that covers a nonzero-demand interval
// still provisions at least one full unit.
func (c *CeilPeak) ForecastQuantilesInto(history []float64, horizon int, levels, dst []float64, ws *Workspace) []float64 {
	return windowQuantilesInto(history, horizon, c.window, levels, dst, ws, true)
}

// ForecastQuantilesInto implements Forecaster.
func (n Naive) ForecastQuantilesInto(history []float64, horizon int, levels, dst []float64, ws *Workspace) []float64 {
	return pointMassQuantilesInto(n, history, horizon, levels, dst, ws)
}

// ForecastQuantilesInto implements Forecaster.
func (z Zero) ForecastQuantilesInto(history []float64, horizon int, levels, dst []float64, ws *Workspace) []float64 {
	return pointMassQuantilesInto(z, history, horizon, levels, dst, ws)
}
