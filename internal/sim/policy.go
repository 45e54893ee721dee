// Package sim contains the serverless-platform simulators used for every
// offline experiment, mirroring the paper's methodology (§5): an
// interval-level concurrency simulator (SimulateApp) for training,
// fleet-scale policy comparison and the sub-minute scaling study, and an
// emulator of the Knative prototype (Emulate) for millisecond-level
// studies: platform delay (Fig 6) and FeMux on Knative (Figs 13 and 14).
//
// SimulateApp applies the paper's overriding rules (§4.3.5): compute
// units are never preempted mid-execution, and units provisioned due to a
// cold start stay alive until the end of the scaling interval. Scaling-rate
// limits follow AWS Lambda's published behaviour: at most 500 new instances
// per minute once an app exceeds 3,000 instances (§5.1).
//
// Emulate follows Knative's KPA instead: an activator buffers requests
// until a pod is ready, the autoscaler ticks every 2 s with stable and
// panic windows and a scale-to-zero grace, and FeMux may override its
// target once a minute through a ScaleProvider. No pod is preempted, but
// none is pinned by a cold start either.
package sim

import (
	"math"

	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
)

// Policy decides how many compute units to keep warm for the next scaling
// interval, given the history of observed average concurrency per interval.
// Implementations must be stateless with respect to the sweep (all state is
// the supplied history) so the same policy value can be reused across apps.
type Policy interface {
	Name() string
	// Target returns the desired warm unit count for the upcoming interval.
	// unitConcurrency is the app's container concurrency limit. ws holds
	// the scratch state of a policy that forecasts, so a warmed workspace
	// makes the call allocation-free; SimulateApp passes one per
	// simulation. ws may be nil, and a policy that does not forecast
	// ignores it.
	Target(history []float64, unitConcurrency int, ws *forecast.Workspace) int
}

// unitsFor converts a concurrency level to compute units at the given
// per-unit concurrency limit, rounding up: demand that exists must be
// served.
func unitsFor(concurrency float64, unitConcurrency int) int {
	if concurrency <= 0 {
		return 0
	}
	if unitConcurrency < 1 {
		unitConcurrency = 1
	}
	return int(math.Ceil(concurrency / float64(unitConcurrency)))
}

// ForecastUnits converts a predicted peak concurrency into compute units
// using Knative's conversion: any positive predicted concurrency needs at
// least one unit (ceil). Forecasters signal "scale to zero" by predicting
// zero or negative values (negative forecasts are clamped by the forecast
// package) — exactly how a single FFT ends up forecasting zero for
// low-traffic apps, the weakness §5.1.1 attributes to IceBreaker.
func ForecastUnits(predictedPeak float64, unitConcurrency int) int {
	if predictedPeak <= 1e-9 {
		return 0
	}
	if unitConcurrency < 1 {
		unitConcurrency = 1
	}
	return int(math.Ceil(predictedPeak / float64(unitConcurrency)))
}

// ForecastPolicy scales to the peak of a forecaster's prediction over the
// next horizon intervals — the predictive scaling FeMux and the single-
// forecaster baselines perform.
type ForecastPolicy struct {
	Forecaster forecast.Forecaster
	Horizon    int     // intervals to look ahead (>= 1)
	Headroom   float64 // multiplicative safety margin on the point forecast (>= 0)
	Window     int     // history window fed to the forecaster (0 = all)
	// Level, when positive, provisions for that quantile of the forecast
	// (0.95: enough capacity for the p95 demand) instead of the point
	// forecast × (1 + Headroom). Headroom is then not applied: the level
	// is the safety margin, calibrated per app from the forecaster's own
	// uncertainty, which is the point of SLO-aware provisioning. 0 keeps
	// the point forecast.
	Level float64
	// FloorWindow, when positive, keeps at least the capacity that served
	// the last FloorWindow intervals, regardless of the forecast — the
	// Knative semantics that a pod which served within the stable window
	// is not reaped on a momentary forecast dip. Sub-minute policies set
	// this to one stable window (e.g. 6 at 10-second ticks).
	FloorWindow int
}

// Name implements Policy.
func (p ForecastPolicy) Name() string { return "forecast-" + p.Forecaster.Name() }

// Target implements Policy.
func (p ForecastPolicy) Target(history []float64, unitConcurrency int, ws *forecast.Workspace) int {
	h := max(p.Horizon, 1)
	full := history
	if p.Window > 0 && p.Window < len(history) {
		history = history[len(history)-p.Window:]
	}
	var pred []float64
	scale := 1.0
	if p.Level <= 0 {
		pred = p.Forecaster.ForecastInto(history, h, ws.Out(h), ws)
		scale += p.Headroom
	} else {
		lv := ws.Levels(1)
		lv[0] = p.Level
		pred = p.Forecaster.ForecastQuantilesInto(history, h, lv, ws.Out(h), ws)
	}
	peak := 0.0
	for _, v := range pred {
		if v > peak {
			peak = v
		}
	}
	target := ForecastUnits(peak*scale, unitConcurrency)
	if p.FloorWindow > 0 {
		target = max(target, KeepAlivePolicy{IdleIntervals: p.FloorWindow}.Target(full, unitConcurrency, nil))
	}
	return target
}

// KeepAlivePolicy keeps capacity warm for IdleIntervals after it was last
// needed: the fixed keep-alive used by AWS Lambda (~5-6 min), Huawei
// (1 min), and Knative's scale-down default. Its target is the peak demand
// over the trailing window.
type KeepAlivePolicy struct {
	IdleIntervals int
}

// Name implements Policy.
func (p KeepAlivePolicy) Name() string { return "keepalive" }

// Target implements Policy.
func (p KeepAlivePolicy) Target(history []float64, unitConcurrency int, _ *forecast.Workspace) int {
	w := p.IdleIntervals
	if w < 1 {
		w = 1
	}
	if w > len(history) {
		w = len(history)
	}
	peak := 0.0
	for _, v := range history[len(history)-w:] {
		if v > peak {
			peak = v
		}
	}
	return unitsFor(peak, unitConcurrency)
}

// KnativeDefaultPolicy models Knative's default autoscaler at interval
// granularity: the target is the average concurrency over a trailing
// 1-minute window divided by the per-pod target concurrency (§3.2 "1-min
// moving average"). WindowIntervals is the number of simulator intervals
// covering one minute.
type KnativeDefaultPolicy struct {
	WindowIntervals int
}

// Name implements Policy.
func (p KnativeDefaultPolicy) Name() string { return "knative-default" }

// Target implements Policy.
func (p KnativeDefaultPolicy) Target(history []float64, unitConcurrency int, _ *forecast.Workspace) int {
	w := p.WindowIntervals
	if w < 1 {
		w = 1
	}
	if w > len(history) {
		w = len(history)
	}
	if w == 0 {
		return 0
	}
	var sum float64
	for _, v := range history[len(history)-w:] {
		sum += v
	}
	return unitsFor(sum/float64(w), unitConcurrency)
}

// FixedPolicy always targets the same unit count (provisioned capacity).
type FixedPolicy struct {
	Units int
}

// Name implements Policy.
func (p FixedPolicy) Name() string { return "fixed" }

// Target implements Policy.
func (p FixedPolicy) Target([]float64, int, *forecast.Workspace) int { return p.Units }
