// Package forecast implements the lightweight traffic forecasters FeMux
// multiplexes between (§4.3.3): autoregression (AR), self-excitation
// threshold autoregression (SETAR), FFT harmonic extrapolation, exponential
// smoothing, Holt double exponential smoothing, and a Markov chain — plus
// the simple baselines used throughout the evaluation (moving average as
// used by Knative's default autoscaler, naive last-value, and zero).
//
// Every forecaster consumes a history window of per-interval average
// concurrency (the Knative representation, §4.3.1) and predicts the next
// horizon intervals. Forecasts are clamped to be non-negative: negative
// concurrency has no meaning for scaling.
package forecast

import "fmt"

// Forecaster predicts future values of a fixed-interval series.
// Implementations must be deterministic and cheap: FeMux budgets a few
// milliseconds per forecast (§5.2 reports a 7 ms mean).
//
// Both forecasts read history, which may be shorter than the
// forecaster's preferred window: every implementation degrades
// gracefully (typically to a mean or naive forecast) rather than
// failing. Each writes into dst, reused when cap(dst) is large enough,
// keeps all intermediate state in ws, and returns the filled slice; dst
// and ws may be nil, in which case the call allocates. With a warmed
// workspace every built-in forecaster runs allocation-free
// (alloc_test.go), and results never depend on which dst or ws a call
// was given.
type Forecaster interface {
	// Name identifies the forecaster in classifier assignments and reports.
	Name() string
	// ForecastInto predicts the next horizon values following history.
	ForecastInto(history []float64, horizon int, dst []float64, ws *Workspace) []float64
	// ForecastQuantilesInto emits one trajectory per probability level,
	// level-major: len(levels)*horizon values, level levels[q] at step t
	// in dst[q*horizon+t] (quantile.go states the guarantees).
	ForecastQuantilesInto(history []float64, horizon int, levels, dst []float64, ws *Workspace) []float64
}

// Lookback is how many trailing values of a window-long history fc reads:
// the whole window, or fewer where fc declares them with a Lookback
// method, on whose last Lookback() values each of its point and quantile
// forecasts is bit-identical to the one on the whole history.
func Lookback(fc Forecaster, window int) int {
	if l, ok := fc.(interface{ Lookback() int }); ok {
		return min(l.Lookback(), window)
	}
	return window
}

// mean returns the arithmetic mean of xs, or 0 for empty input.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// DefaultSet returns the forecaster set FeMux ships with, in the paper's
// configuration: AR(10), SETAR(10 lags, 2 thresholds), FFT with the top 10
// harmonics, Exponential Smoothing and Holt with dynamic parameter
// selection, a 4-state Markov chain, and a family of keep-alive-style
// forecasters (Fig 17 lists fixed keep-alive in FeMux's set): a 10-interval
// peak-hold plus keep-warm ceiling variants at 1, 10, and 30 intervals,
// covering trickle traffic and different idle-gap economics.
func DefaultSet() []Forecaster {
	return []Forecaster{
		NewAR(10),
		NewSETAR(10, 2),
		NewFFT(10),
		NewExpSmoothing(),
		NewHolt(),
		NewMarkovChain(4),
		NewRecentPeak(10),
		NewCeilPeak(1),
		NewCeilPeak(10),
		NewCeilPeak(30),
	}
}

// ByName returns the forecaster with the given name from set.
func ByName(set []Forecaster, name string) (Forecaster, error) {
	for _, f := range set {
		if f.Name() == name {
			return f, nil
		}
	}
	return nil, fmt.Errorf("forecast: unknown forecaster %q", name)
}
