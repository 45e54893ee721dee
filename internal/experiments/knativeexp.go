package experiments

import (
	"fmt"
	"math"
	"net/http/httptest"
	"sort"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/femux"
	"github.com/ubc-cirrus-lab/femux-go/internal/knative"
	"github.com/ubc-cirrus-lab/femux-go/internal/rum"
	"github.com/ubc-cirrus-lab/femux-go/internal/stats"
	"github.com/ubc-cirrus-lab/femux-go/internal/trace"
)

// SpecsFromTrainApps converts per-minute count traces into millisecond
// invocation events for the Knative emulation, distributing each minute's
// invocations uniformly within the minute (the paper's replay methodology)
// and attaching default configurations.
func SpecsFromTrainApps(apps []femux.TrainApp) []knative.AppSpec {
	specs := make([]knative.AppSpec, 0, len(apps))
	for i, a := range apps {
		cfg := trace.DefaultConfig()
		cfg.Concurrency = 100
		cfg.MemoryGB = a.MemoryGB
		if cfg.MemoryGB <= 0 {
			cfg.MemoryGB = 0.15
		}
		dur := time.Duration(a.ExecSec * float64(time.Second))
		if dur <= 0 {
			dur = 100 * time.Millisecond
		}
		var invs []trace.Invocation
		for m, c := range a.Invocations {
			n := int(c)
			for k := 0; k < n; k++ {
				off := time.Duration(float64(time.Minute) * (float64(k) + 0.5) / float64(n))
				invs = append(invs, trace.Invocation{
					Arrival:  time.Duration(m)*time.Minute + off,
					Duration: dur,
				})
			}
		}
		name := a.Name
		if name == "" {
			name = fmt.Sprintf("app-%d", i)
		}
		specs = append(specs, knative.AppSpec{Name: name, Config: cfg, Invocations: invs})
	}
	return specs
}

// Fig14LeftResult verifies the evaluation subtrace follows the full
// dataset's invocation distribution (Fig 14-Left).
type Fig14LeftResult struct {
	KSDistance float64 // max CDF gap between sample and full shares
}

// Fig14Left samples a subset of apps and compares traffic-share CDFs.
func Fig14Left(apps []femux.TrainApp, sampleEvery int) Fig14LeftResult {
	vol := func(set []femux.TrainApp) []float64 {
		out := make([]float64, 0, len(set))
		for _, a := range set {
			var v float64
			for _, c := range a.Invocations {
				v += c
			}
			out = append(out, math.Log1p(v))
		}
		sort.Float64s(out)
		return out
	}
	if sampleEvery < 1 {
		sampleEvery = 2
	}
	var sample []femux.TrainApp
	for i := 0; i < len(apps); i += sampleEvery {
		sample = append(sample, apps[i])
	}
	full, sub := vol(apps), vol(sample)
	// Two-sample KS distance over the pooled support.
	var ks float64
	for _, v := range full {
		d := math.Abs(stats.CDFAt(full, v) - stats.CDFAt(sub, v))
		if d > ks {
			ks = d
		}
	}
	return Fig14LeftResult{KSDistance: ks}
}

// Fig14Result is the Knative prototype evaluation (Fig 14 mid-left and
// mid-right).
type Fig14Result struct {
	Apps        int
	Invocations int
	// Aggregate RUM under the default Knative policy and under FeMux.
	KnativeRUM float64
	FeMuxRUM   float64
	// RUMReduction: paper reports 36%.
	RUMReduction float64
	// Share of apps whose cold-start fraction improved by >50% (paper:
	// >25% of apps) and share maintained-or-improved within 2%.
	AppsHalved     float64
	AppsMaintained float64
	// ProviderFailures counts the minutes at which the FeMux service gave
	// no target, so the emulation fell back to reactive scaling.
	ProviderFailures int

	knativeSamples, femuxSamples []rum.Sample // per app, in spec order
}

// Fig14Prototype runs the emulated cluster twice — default Knative
// autoscaling versus FeMux-overridden scaling — over the same replay. The
// FeMux run asks the real REST service (Fig 13) over loopback HTTP.
func Fig14Prototype(model *femux.Model, specs []knative.AppSpec, horizon time.Duration) Fig14Result {
	return Fig14PrototypeQuantile(model, specs, horizon, 0)
}

// Fig14PrototypeQuantile is Fig14Prototype with FeMux's pod conversion
// provisioning for the given forecast quantile (0 = point forecast,
// knative-emu's -quantile-level knob).
func Fig14PrototypeQuantile(model *femux.Model, specs []knative.AppSpec, horizon time.Duration, level float64) Fig14Result {
	var res Fig14Result
	res.Apps = len(specs)

	base := knative.Run(specs, knative.EmulatorConfig{
		Autoscaler: knative.DefaultAutoscalerConfig(),
	}, horizon)
	srv := httptest.NewServer(knative.NewServiceWith(model, knative.ServiceOptions{QuantileLevel: level}).Handler())
	defer srv.Close()
	provider := &countingProvider{ScaleProvider: &knative.HTTPProvider{BaseURL: srv.URL}}
	fm := knative.Run(specs, knative.EmulatorConfig{
		Autoscaler: knative.DefaultAutoscalerConfig(),
		Provider:   provider,
	}, horizon)
	res.ProviderFailures = provider.failures

	metric := rum.Default()
	baseSamples := make([]rum.Sample, len(base))
	fmSamples := make([]rum.Sample, len(fm))
	var halved, maintained int
	for i := range base {
		baseSamples[i] = base[i].Sample
		fmSamples[i] = fm[i].Sample
		res.Invocations += base[i].Sample.Invocations
		bFrac := base[i].Sample.ColdStartFraction()
		fFrac := fm[i].Sample.ColdStartFraction()
		if bFrac > 0 && fFrac <= bFrac/2 {
			halved++
		}
		if fFrac <= bFrac+0.02 {
			maintained++
		}
	}
	res.knativeSamples, res.femuxSamples = baseSamples, fmSamples
	res.KnativeRUM = rum.EvalPerApp(metric, baseSamples)
	res.FeMuxRUM = rum.EvalPerApp(metric, fmSamples)
	if res.KnativeRUM > 0 {
		res.RUMReduction = 1 - res.FeMuxRUM/res.KnativeRUM
	}
	if len(base) > 0 {
		res.AppsHalved = float64(halved) / float64(len(base))
		res.AppsMaintained = float64(maintained) / float64(len(base))
	}
	return res
}

// countingProvider counts the calls its ScaleProvider answers with no
// target. The emulator calls it from one goroutine.
type countingProvider struct {
	knative.ScaleProvider
	failures int
}

func (p *countingProvider) Target(app string, minuteAvg float64, unitConcurrency int) (int, bool) {
	target, ok := p.ScaleProvider.Target(app, minuteAvg, unitConcurrency)
	if !ok {
		p.failures++
	}
	return target, ok
}

// String renders the prototype results.
func (r Fig14Result) String() string {
	return fmt.Sprintf("%d apps, %d invocations: knative RUM %.1f vs femux %.1f (%.0f%% reduction, paper 36%%); apps with >50%% cold-start cut: %.0f%% (paper >25%%); maintained within 2%%: %.0f%%",
		r.Apps, r.Invocations, r.KnativeRUM, r.FeMuxRUM, r.RUMReduction*100,
		r.AppsHalved*100, r.AppsMaintained*100)
}

// ScalabilityPoint is one load level of the forecasting-service study.
type ScalabilityPoint struct {
	Apps        int
	MeanLatency time.Duration
	P99Latency  time.Duration
	// AppsPerPod extrapolates capacity at one forecast per app-minute:
	// 60s / mean latency (sequential single-vCPU service, as in §5.2).
	AppsPerPod int
}

// BatchScalabilityPoint is one load level of the batched-observe study:
// the same fleet as Fig14Scalability, but each round posts the whole
// fleet's observations as /v1/observe/batch requests of BatchSize items.
type BatchScalabilityPoint struct {
	Apps        int
	BatchSize   int
	MeanLatency time.Duration // per batch request
	P99Latency  time.Duration // per batch request
	PerObs      time.Duration // mean amortized per observation
	// AppsPerPod extrapolates capacity at one observation per app-minute
	// from the amortized per-observation cost.
	AppsPerPod int
}

// Fig14ScalabilityBatch measures the batched observe path over real HTTP
// at increasing app counts. Comparing PerObs here against MeanLatency in
// Fig14Scalability quantifies what group commit buys: one round trip and
// (with durability on) one fsync per BatchSize observations instead of
// per observation.
func Fig14ScalabilityBatch(model *femux.Model, appCounts []int, perApp, batchSize int) []BatchScalabilityPoint {
	if batchSize < 1 {
		batchSize = 64
	}
	var out []BatchScalabilityPoint
	for _, n := range appCounts {
		svc := knative.NewService(model)
		srv := httptest.NewServer(svc.Handler())
		provider := &knative.HTTPProvider{BaseURL: srv.URL}

		var lats []float64
		var obsTotal int
		for round := 0; round < perApp; round++ {
			for a := 0; a < n; a += batchSize {
				end := a + batchSize
				if end > n {
					end = n
				}
				items := make([]knative.BatchObservation, 0, end-a)
				for k := a; k < end; k++ {
					items = append(items, knative.BatchObservation{
						App:         fmt.Sprintf("app-%d", k),
						Concurrency: float64((k + round) % 5),
					})
				}
				start := time.Now()
				resp, err := provider.ObserveBatch(items)
				if err != nil || resp.Rejected > 0 {
					continue
				}
				lats = append(lats, float64(time.Since(start)))
				obsTotal += len(items)
			}
		}
		srv.Close()
		if len(lats) == 0 {
			continue
		}
		mean := stats.Mean(lats)
		perObs := mean * float64(len(lats)) / float64(obsTotal)
		pt := BatchScalabilityPoint{
			Apps:        n,
			BatchSize:   batchSize,
			MeanLatency: time.Duration(mean),
			P99Latency:  time.Duration(stats.Percentile(lats, 99)),
			PerObs:      time.Duration(perObs),
		}
		if perObs > 0 {
			pt.AppsPerPod = int(float64(time.Minute) / perObs)
		}
		out = append(out, pt)
	}
	return out
}

// Fig14Scalability measures real HTTP round-trip latency of the FeMux
// forecasting service at increasing app counts (Fig 14-Right). Each app
// first receives warmup observations so forecasts run on real histories.
func Fig14Scalability(model *femux.Model, appCounts []int, perApp int) []ScalabilityPoint {
	var out []ScalabilityPoint
	for _, n := range appCounts {
		svc := knative.NewService(model)
		srv := httptest.NewServer(svc.Handler())
		provider := &knative.HTTPProvider{BaseURL: srv.URL}

		var lats []float64
		for round := 0; round < perApp; round++ {
			for a := 0; a < n; a++ {
				app := fmt.Sprintf("app-%d", a)
				start := time.Now()
				if _, ok := provider.Target(app, float64((a+round)%5), 1); !ok {
					continue
				}
				lats = append(lats, float64(time.Since(start)))
			}
		}
		srv.Close()
		if len(lats) == 0 {
			continue
		}
		mean := stats.Mean(lats)
		p99 := stats.Percentile(lats, 99)
		pt := ScalabilityPoint{
			Apps:        n,
			MeanLatency: time.Duration(mean),
			P99Latency:  time.Duration(p99),
		}
		if mean > 0 {
			pt.AppsPerPod = int(float64(time.Minute) / mean)
		}
		out = append(out, pt)
	}
	return out
}
