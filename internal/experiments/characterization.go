package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/characterize"
	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
	"github.com/ubc-cirrus-lab/femux-go/internal/rum"
	"github.com/ubc-cirrus-lab/femux-go/internal/sim"
	"github.com/ubc-cirrus-lab/femux-go/internal/timeseries"
	"github.com/ubc-cirrus-lab/femux-go/internal/trace"
)

// IBMDataset generates the IBM-shape dataset used by the characterization
// experiments.
func IBMDataset(s Scale) *trace.Dataset {
	return trace.GenerateIBM(trace.IBMGenConfig{Seed: s.Seed, Apps: s.Apps, Days: s.Days, TrafficScale: 1, Workers: sweepWorkers})
}

// Table1Result summarizes the synthetic dataset against the published
// dataset properties (Table 1).
type Table1Result struct {
	Apps             int
	Days             float64
	TotalInvocations int
	MsResolution     bool
	HasConfigs       bool
	HasScaleEvents   bool
}

// Table1 computes the dataset summary.
func Table1(d *trace.Dataset) Table1Result {
	return Table1Result{
		Apps:             len(d.Apps),
		Days:             d.Horizon.Hours() / 24,
		TotalInvocations: d.TotalInvocations(),
		MsResolution:     true, // arrivals carry sub-millisecond offsets
		HasConfigs:       true, // §3.4 configuration fields are populated
		HasScaleEvents:   true, // the simulators expose scale up/down events
	}
}

// String renders the table row.
func (r Table1Result) String() string {
	return fmt.Sprintf("IBM-synthetic: %d workloads, %.1f days, %d invocations, ms-resolution=%v, configs=%v, scale-events=%v",
		r.Apps, r.Days, r.TotalInvocations, r.MsResolution, r.HasConfigs, r.HasScaleEvents)
}

// Fig1Result carries the traffic-seasonality statistics.
type Fig1Result struct {
	Hourly      []float64
	Seasonality characterize.SeasonalityStats
}

// Fig1 computes hourly traffic and its weekday/weekend peak-to-trough spans
// (paper: ~60% weekday, ~40% weekend, plus a seasonal ramp).
func Fig1(d *trace.Dataset) Fig1Result {
	hourly := characterize.Traffic(d, time.Hour)
	return Fig1Result{Hourly: hourly, Seasonality: characterize.Seasonality(hourly)}
}

// String renders the headline numbers.
func (r Fig1Result) String() string {
	return fmt.Sprintf("weekday peak-to-trough span %.0f%% (paper ~60%%), weekend %.0f%% (paper ~40%%), seasonal gain %.2fx",
		r.Seasonality.WeekdaySpan*100, r.Seasonality.WeekendSpan*100, r.Seasonality.SeasonalGain)
}

// Fig2 computes the IAT characterization (paper: 94.5% of invocations
// sub-second; 46%/86% of workloads with sub-second/sub-minute median IATs;
// 96% with CV > 1).
func Fig2(d *trace.Dataset) characterize.IATStats {
	return characterize.IAT(d, 5)
}

// Fig3And4 computes the execution-time characterization (paper: 82% of
// apps sub-second mean; median of means ~10 ms vs median of p99s ~800 ms).
func Fig3And4(d *trace.Dataset) characterize.ExecStats {
	return characterize.Exec(d)
}

// Fig5Row is one policy's outcome in the sub-minute scaling study.
type Fig5Row struct {
	Policy       string
	ColdStarts   int
	ColdStartSec float64
	AllocatedGBs float64
}

// Fig5Result compares scaling policies at different timesteps.
type Fig5Result struct {
	Rows []Fig5Row
	// Headline reductions in total cold-start duration.
	FFT10VsMA     float64 // paper: 60% reduction vs 1-min moving average
	FFT10VsKA5    float64 // paper: 38% vs 5-minute keep-alive
	FFT10VsFFT60  float64 // paper: 11% vs FFT at 60-second steps
	ExtraAllocFFT float64 // paper: <1% additional allocation
}

// Fig5 runs the sub-minute scaling study on the interval-level simulator
// over the average-concurrency representation — the paper's methodology
// ("per-app traffic is captured by an application's average concurrency"):
// FFT forecasting at 10 s and 60 s steps versus Knative's 1-minute moving
// average (2 s reaction) and a 5-minute keep-alive.
func Fig5(d *trace.Dataset) Fig5Result {
	// Every policy is accounted against the same 10-second-resolution
	// demand (the finest granularity studied); coarser policies simply
	// hold their targets across more accounting intervals. This keeps the
	// comparison apples-to-apples: a minute-level policy does not get to
	// ignore the sub-minute demand peaks that exist either way.
	const tick = 10 * time.Second
	type entry struct {
		name string
		mk   func() sim.Policy
	}
	entries := []entry{
		// FFT forecasters see two hours of history (the paper's window);
		// at 10-second steps that is 720 intervals. Each keeps capacity
		// that served within the last stable window (one minute) —
		// Knative's scale-down semantics.
		{"fft-10s", func() sim.Policy {
			return sim.ForecastPolicy{Forecaster: forecast.NewFFT(10), Horizon: 6, Window: 720, FloorWindow: 6}
		}},
		{"fft-60s", func() sim.Policy {
			return &heldPolicy{inner: sim.ForecastPolicy{Forecaster: forecast.NewFFT(10), Horizon: 6, Window: 720, FloorWindow: 6}, every: 6}
		}},
		{"ma-1min-2s", func() sim.Policy { return sim.KnativeDefaultPolicy{WindowIntervals: 6} }},
		{"keepalive-5min", func() sim.Policy { return sim.KeepAlivePolicy{IdleIntervals: 30} }},
	}
	spansOf := func(app *trace.App) []timeseries.Interval {
		spans := make([]timeseries.Interval, len(app.Invocations))
		for i, inv := range app.Invocations {
			spans[i] = timeseries.Interval{Start: inv.Arrival, End: inv.Arrival + inv.Duration}
		}
		return spans
	}
	var res Fig5Result
	totals := map[string]*Fig5Row{}
	n := int(d.Horizon / tick)
	for _, e := range entries {
		row := &Fig5Row{Policy: e.name}
		totals[e.name] = row
		for _, app := range d.Apps {
			demand := timeseries.AverageConcurrency(spansOf(app), tick, n)
			cfg := sim.ConcConfig{
				Step:            tick,
				UnitConcurrency: app.Config.Concurrency,
				MemoryGB:        app.Config.MemoryGB,
				ColdStartSec:    rum.DefaultColdStartSec,
				MinScale:        app.Config.MinScale,
			}
			out := sim.SimulateApp(sim.AppTrace{Demand: demand}, e.mk(), cfg, false)
			row.ColdStarts += out.Sample.ColdStarts
			row.ColdStartSec += out.Sample.ColdStartSec
			row.AllocatedGBs += out.Sample.AllocatedGBSec
		}
		res.Rows = append(res.Rows, *row)
	}
	reduction := func(a, b float64) float64 {
		if b <= 0 {
			return 0
		}
		return 1 - a/b
	}
	res.FFT10VsMA = reduction(totals["fft-10s"].ColdStartSec, totals["ma-1min-2s"].ColdStartSec)
	res.FFT10VsKA5 = reduction(totals["fft-10s"].ColdStartSec, totals["keepalive-5min"].ColdStartSec)
	res.FFT10VsFFT60 = reduction(totals["fft-10s"].ColdStartSec, totals["fft-60s"].ColdStartSec)
	if totals["keepalive-5min"].AllocatedGBs > 0 {
		res.ExtraAllocFFT = totals["fft-10s"].AllocatedGBs/totals["keepalive-5min"].AllocatedGBs - 1
	}
	return res
}

// String renders the headline numbers.
func (r Fig5Result) String() string {
	var b strings.Builder
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-16s cold starts %6d  cold-start sec %9.1f  alloc GB-s %10.0f\n",
			row.Policy, row.ColdStarts, row.ColdStartSec, row.AllocatedGBs)
	}
	fmt.Fprintf(&b, "  fft@10s vs 1-min MA: %.0f%% (paper 60%%), vs 5-min KA: %.0f%% (paper 38%%), vs fft@60s: %.0f%% (paper 11%%)",
		r.FFT10VsMA*100, r.FFT10VsKA5*100, r.FFT10VsFFT60*100)
	return b.String()
}

// heldPolicy recomputes its inner policy's target only every `every`
// intervals, modelling a coarser decision period against fine-grained
// accounting. One instance serves one app (it is stateful).
type heldPolicy struct {
	inner  sim.Policy
	every  int
	last   int
	target int
}

// Name implements sim.Policy.
func (h *heldPolicy) Name() string { return h.inner.Name() + "-held" }

// Target implements sim.Policy.
func (h *heldPolicy) Target(history []float64, unitConcurrency int, ws *forecast.Workspace) int {
	if h.every < 1 {
		h.every = 1
	}
	if len(history) == 0 || len(history)%h.every == 0 || len(history) < h.last {
		h.target = h.inner.Target(history, unitConcurrency, ws)
	}
	h.last = len(history)
	return h.target
}

// Fig6 measures platform delays by replaying each app on the Knative
// emulator (sim.Emulate) under its default autoscaler, with per-app cold
// starts (custom images produce the long tail, §3.3).
func Fig6(d *trace.Dataset) characterize.DelayStats {
	perApp := make([][]float64, 0, len(d.Apps))
	for _, app := range d.Apps {
		spec := sim.AppSpec{Name: app.Name, Config: app.Config, Invocations: app.Invocations}
		_, delays := sim.Emulate(spec, nil, d.Horizon)
		perApp = append(perApp, delays)
	}
	return characterize.PlatformDelay(perApp)
}

// Fig7 computes the configuration-distribution characterization (§3.4).
func Fig7(d *trace.Dataset) characterize.ConfigStats {
	return characterize.Configs(d)
}

// Fig15Result carries the cross-workload traffic-share comparison.
type Fig15Result struct {
	IBMShares       []float64
	AzureShares     []float64
	IBMBigWorkloads int // workloads with >= 10% of the busiest one's traffic
}

// Fig15 compares traffic concentration across dataset shapes.
func Fig15(s Scale) Fig15Result {
	ibm := IBMDataset(s)
	azure := trace.GenerateAzure(trace.AzureGenConfig{Seed: s.Seed + 1, Apps: s.Apps, Days: int(s.Days + 0.5)})
	var res Fig15Result
	res.IBMShares, res.IBMBigWorkloads = characterize.TrafficShares(ibm)
	// Azure dataset exposes counts, not events; compute shares directly.
	var counts []float64
	var total float64
	for _, a := range azure.Apps {
		c := a.TotalInvocations()
		counts = append(counts, c)
		total += c
	}
	if total > 0 {
		for i := 1; i < len(counts); i++ {
			for j := i; j > 0 && counts[j] > counts[j-1]; j-- {
				counts[j], counts[j-1] = counts[j-1], counts[j]
			}
		}
		for _, c := range counts {
			res.AzureShares = append(res.AzureShares, c/total)
		}
	}
	return res
}

// Fig16Result holds two long-trace example workloads' hourly series.
type Fig16Result struct {
	Seasonal []float64 // workload with diurnal/weekly periodicity
	Trending []float64 // workload with a growing trend
}

// Fig16 extracts example workloads showing why long traces matter.
func Fig16(d *trace.Dataset) Fig16Result {
	var res Fig16Result
	for _, a := range d.Apps {
		switch a.Pattern {
		case "poisson":
			if res.Seasonal == nil && len(a.Invocations) > 1000 {
				res.Seasonal = characterize.HourlySeries(a, d.Horizon)
			}
		case "trend":
			if res.Trending == nil && len(a.Invocations) > 100 {
				res.Trending = characterize.HourlySeries(a, d.Horizon)
			}
		}
	}
	return res
}

// TrendSlope fits a least-squares line to a series and returns its slope,
// used to verify Fig 16's growing-load example.
func TrendSlope(series []float64) float64 {
	n := float64(len(series))
	if n < 2 {
		return 0
	}
	var sumX, sumY, sumXY, sumXX float64
	for i, v := range series {
		x := float64(i)
		sumX += x
		sumY += v
		sumXY += x * v
		sumXX += x * x
	}
	den := n*sumXX - sumX*sumX
	if den == 0 {
		return 0
	}
	return (n*sumXY - sumX*sumY) / den
}

// DelaySummary condenses DelayStats for reporting.
func DelaySummary(ds characterize.DelayStats) string {
	return fmt.Sprintf("sub-ms delays %.0f%%, workload p99<10ms %.0f%% (paper 73%%), p99>1s %.0f%% (paper ~20%%), max %.0fs (paper >300s)",
		ds.SubMsInvFrac*100, ds.P99Below10msFrac*100, ds.P99Above1sFrac*100, ds.MaxDelay)
}
