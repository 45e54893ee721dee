package sim

import (
	"math"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
	"github.com/ubc-cirrus-lab/femux-go/internal/rum"
	"github.com/ubc-cirrus-lab/femux-go/internal/timeseries"
)

// ConcConfig parameterizes the interval-level concurrency simulator.
type ConcConfig struct {
	Step            time.Duration // scaling interval (paper: 60 s or 10 s)
	UnitConcurrency int           // container concurrency limit
	MemoryGB        float64       // memory per compute unit
	ColdStartSec    float64       // fixed cold start duration (paper default 0.808 s)
	MinScale        int           // user-configured minimum units
	// Scaling-rate limit (AWS Lambda): above ScaleLimitThreshold units, at
	// most ScaleLimitPerMinute new units may start per minute. Zero values
	// disable the limit.
	ScaleLimitThreshold int
	ScaleLimitPerMinute int
}

// DefaultConcConfig returns the paper's offline-simulation settings:
// 1-minute intervals, fixed 0.808 s cold starts, and AWS's scaling limits.
func DefaultConcConfig() ConcConfig {
	return ConcConfig{
		Step:                time.Minute,
		UnitConcurrency:     1,
		MemoryGB:            0.15, // Azure median consumption (§4.1)
		ColdStartSec:        rum.DefaultColdStartSec,
		ScaleLimitThreshold: 3000,
		ScaleLimitPerMinute: 500,
	}
}

// AppTrace is the per-app input to the concurrency simulator: the demand
// series (average concurrency per interval), plus per-interval invocation
// counts and the app's mean execution seconds for metric accounting.
// Invocations may be nil when only unit-level metrics are needed.
type AppTrace struct {
	Demand      timeseries.Series
	Invocations []float64 // per-interval invocation counts (optional)
	ExecSec     float64   // mean execution seconds per invocation
}

// IntervalStats records one interval of a simulation, for tests and the
// temporal-switching study (Fig 9).
type IntervalStats struct {
	WarmUnits  int
	ColdUnits  int
	Demand     float64
	WastedGBs  float64
	ColdStarts int
}

// ConcResult is the outcome of simulating one app under one policy.
type ConcResult struct {
	Sample    rum.Sample
	Intervals []IntervalStats // populated only when Trace is requested
}

// SimulateApp runs the policy over one app's demand series and returns the
// accounting sample. trace enables per-interval stats capture.
//
// Model, per interval t:
//
//  1. The policy targets a warm unit count from the demand history observed
//     so far (prediction happens before the interval's traffic arrives).
//  2. Warm targets are clamped below by MinScale and rate-limited by the
//     AWS scaling rule relative to the previous interval's total units.
//  3. Demand above warm capacity provisions cold units: each incurs one
//     cold start of ColdStartSec, and — per the overriding rules — stays
//     alive to the end of the interval.
//  4. Waste is the memory-time of allocated-but-unused capacity:
//     (units − demand/unitConcurrency)⁺ × MemoryGB × step.
func SimulateApp(app AppTrace, p Policy, cfg ConcConfig, trace bool) ConcResult {
	ws := forecast.GetWorkspace()
	res := simulateApp(app, p, cfg, trace, ws)
	forecast.PutWorkspace(ws)
	return res
}

// simulateApp is SimulateApp with an explicit forecaster workspace, so
// fleet sweeps reuse one workspace across apps instead of re-growing
// scratch buffers per app.
func simulateApp(app AppTrace, p Policy, cfg ConcConfig, trace bool, ws *forecast.Workspace) ConcResult {
	stepSec := cfg.Step.Seconds()
	if stepSec <= 0 {
		stepSec = 60
	}
	unitC := cfg.UnitConcurrency
	if unitC < 1 {
		unitC = 1
	}
	n := app.Demand.Len()
	var res ConcResult
	if trace {
		res.Intervals = make([]IntervalStats, 0, n)
	}
	prevUnits := cfg.MinScale
	values := app.Demand.Values
	for t := 0; t < n; t++ {
		warm := p.Target(values[:t], unitC, ws)
		if warm < cfg.MinScale {
			warm = cfg.MinScale
		}
		warm = applyScaleLimit(warm, prevUnits, cfg, stepSec)

		demand := values[t]
		demandUnits := unitsFor(demand, unitC)
		cold := demandUnits - warm
		if cold < 0 {
			cold = 0
		}
		units := warm + cold

		res.Sample.ColdStarts += cold
		res.Sample.ColdStartSec += float64(cold) * cfg.ColdStartSec

		allocGBs := float64(units) * cfg.MemoryGB * stepSec
		usedUnits := demand / float64(unitC)
		if usedUnits > float64(units) {
			usedUnits = float64(units)
		}
		wasted := (float64(units) - usedUnits) * cfg.MemoryGB * stepSec
		if wasted < 0 {
			wasted = 0
		}
		res.Sample.AllocatedGBSec += allocGBs
		res.Sample.WastedGBSec += wasted

		if app.Invocations != nil && t < len(app.Invocations) {
			inv := app.Invocations[t]
			res.Sample.Invocations += int(inv)
			res.Sample.ExecSec += inv * app.ExecSec
		}

		if trace {
			res.Intervals = append(res.Intervals, IntervalStats{
				WarmUnits:  warm,
				ColdUnits:  cold,
				Demand:     demand,
				WastedGBs:  wasted,
				ColdStarts: cold,
			})
		}
		prevUnits = units
	}
	return res
}

// applyScaleLimit enforces the AWS Lambda scaling-rate rule.
func applyScaleLimit(target, prev int, cfg ConcConfig, stepSec float64) int {
	if cfg.ScaleLimitThreshold <= 0 || cfg.ScaleLimitPerMinute <= 0 {
		return target
	}
	if prev <= cfg.ScaleLimitThreshold || target <= prev {
		return target
	}
	maxNew := int(math.Ceil(float64(cfg.ScaleLimitPerMinute) * stepSec / 60))
	if target-prev > maxNew {
		return prev + maxNew
	}
	return target
}
