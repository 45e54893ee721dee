package baselines

import (
	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
	"github.com/ubc-cirrus-lab/femux-go/internal/rum"
	"github.com/ubc-cirrus-lab/femux-go/internal/sim"
)

// IceBreakerPolicy returns IceBreaker's adaptive lifetime policy restricted
// to homogeneous resources, exactly as the paper evaluates it (§5.1.1): a
// single FFT forecaster predicting per-interval load, with capacity scaled
// to the prediction. IceBreaker operates on OpenWhisk's representation —
// integer instance counts — so predictions are *rounded* to whole
// instances rather than ceiled (the paper simulates each baseline in its
// own data representation). The rounding is IceBreaker's documented
// weakness: FFT residue below half an instance rounds to zero, so
// low-traffic apps are forecast to zero and cold-start repeatedly.
func IceBreakerPolicy() sim.Policy {
	return iceBreakerPolicy{fft: forecast.NewFFT(10), window: 120}
}

type iceBreakerPolicy struct {
	fft    *forecast.FFT
	window int
}

// Name implements sim.Policy.
func (iceBreakerPolicy) Name() string { return "icebreaker-fft" }

// Target implements sim.Policy.
func (p iceBreakerPolicy) Target(history []float64, unitConcurrency int, ws *forecast.Workspace) int {
	if p.window > 0 && p.window < len(history) {
		history = history[len(history)-p.window:]
	}
	pred := p.fft.ForecastInto(history, 1, ws.Out(1), ws)
	peak := 0.0
	for _, v := range pred {
		if v > peak {
			peak = v
		}
	}
	if unitConcurrency < 1 {
		unitConcurrency = 1
	}
	return int(peak/float64(unitConcurrency) + 0.5)
}

// KeepAlive10Min returns the 10-minute keep-alive policy IceBreaker and
// Aquatope normalize against, expressed in intervals of the given step
// count per minute (1 for minute-level simulation).
func KeepAlive10Min(intervalsPerMinute int) sim.Policy {
	if intervalsPerMinute < 1 {
		intervalsPerMinute = 1
	}
	return sim.KeepAlivePolicy{IdleIntervals: 10 * intervalsPerMinute}
}

// IceBreakerMetrics are the quantities Roy et al. report: service time
// (wait + cold start + execution) and keep-alive cost in dollars, both
// normalized to the 10-minute keep-alive policy.
type IceBreakerMetrics struct {
	ServiceTimeIncrease float64 // fractional increase vs the 10-min KA baseline
	KeepAliveCostRatio  float64 // fraction of the baseline's keep-alive cost
}

// IceBreakerEval computes IceBreaker's metrics for a run against the
// 10-minute-KA baseline run over the same workload. Keep-alive cost is
// proportional to allocated GB-seconds (homogeneous pricing); service time
// is execution plus cold-start time.
func IceBreakerEval(run, baseline rum.Sample) IceBreakerMetrics {
	var m IceBreakerMetrics
	baseService := baseline.ExecSec + baseline.ColdStartSec
	runService := run.ExecSec + run.ColdStartSec
	if baseService > 0 {
		m.ServiceTimeIncrease = (runService - baseService) / baseService
	}
	if baseline.AllocatedGBSec > 0 {
		m.KeepAliveCostRatio = run.AllocatedGBSec / baseline.AllocatedGBSec
	}
	return m
}
