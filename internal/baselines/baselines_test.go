package baselines

import (
	"math"
	"testing"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/rum"
	"github.com/ubc-cirrus-lab/femux-go/internal/sim"
	"github.com/ubc-cirrus-lab/femux-go/internal/timeseries"
)

func appWith(vals []float64) sim.AppTrace {
	return sim.AppTrace{Demand: timeseries.New(time.Minute, vals)}
}

func TestFaasCacheWarmHitsAfterFirstMiss(t *testing.T) {
	apps := []sim.AppTrace{appWith([]float64{1, 1, 1, 1})}
	mem := []float64{0.15}
	out := SimulateFaasCache(apps, mem, DefaultFaasCacheConfig(10))
	if out[0].ColdStarts != 1 {
		t.Errorf("cold starts = %d, want 1 (only the first access misses)", out[0].ColdStarts)
	}
}

func TestFaasCacheCacheSizeTradeoff(t *testing.T) {
	// Two alternating apps that never overlap: a cache big enough for both
	// keeps each warm (2 cold starts total); a cache holding only one
	// container forces a miss on every activation.
	a := make([]float64, 20)
	b := make([]float64, 20)
	for i := range a {
		if i%2 == 0 {
			a[i] = 1
		} else {
			b[i] = 1
		}
	}
	apps := []sim.AppTrace{appWith(a), appWith(b)}
	mem := []float64{1, 1}

	big := SimulateFaasCache(apps, mem, DefaultFaasCacheConfig(10))
	small := SimulateFaasCache(apps, mem, DefaultFaasCacheConfig(1))

	bigCold := big[0].ColdStarts + big[1].ColdStarts
	smallCold := small[0].ColdStarts + small[1].ColdStarts
	if bigCold != 2 {
		t.Errorf("big cache cold starts = %d, want 2", bigCold)
	}
	if smallCold <= bigCold {
		t.Errorf("small cache should thrash: %d vs %d", smallCold, bigCold)
	}
	// And the big cache wastes more memory.
	bigWaste := big[0].WastedGBSec + big[1].WastedGBSec
	smallWaste := small[0].WastedGBSec + small[1].WastedGBSec
	if bigWaste <= smallWaste {
		t.Errorf("big cache should waste more: %v vs %v", bigWaste, smallWaste)
	}
}

func TestFaasCacheGreedyDualPrefersHotApps(t *testing.T) {
	// App 0 is invoked every interval, app 1 once; with room for one
	// container, the hot app should keep its container and the cold app
	// should be evicted.
	a := make([]float64, 30)
	b := make([]float64, 30)
	for i := range a {
		a[i] = 1
	}
	b[0] = 1
	b[15] = 1
	apps := []sim.AppTrace{appWith(a), appWith(b)}
	mem := []float64{1, 1}
	out := SimulateFaasCache(apps, mem, DefaultFaasCacheConfig(1.5))
	if out[0].ColdStarts > 2 {
		t.Errorf("hot app cold starts = %d, should stay cached", out[0].ColdStarts)
	}
	if out[1].ColdStarts != 2 {
		t.Errorf("cold app cold starts = %d, want 2 (evicted between uses)", out[1].ColdStarts)
	}
}

func TestFaasCachePinnedContainersSurviveEviction(t *testing.T) {
	// Both apps active in the same interval with a cache for one: the
	// in-use (pinned) containers must not be evicted mid-interval, so both
	// still serve, and the budget is enforced afterwards.
	apps := []sim.AppTrace{appWith([]float64{1, 1}), appWith([]float64{1, 1})}
	mem := []float64{1, 1}
	out := SimulateFaasCache(apps, mem, DefaultFaasCacheConfig(1))
	total := out[0].ColdStarts + out[1].ColdStarts
	if total < 2 {
		t.Errorf("cold starts = %d, want >= 2", total)
	}
	// No panics and allocations accounted.
	if out[0].AllocatedGBSec <= 0 || out[1].AllocatedGBSec <= 0 {
		t.Error("allocations missing")
	}
}

func TestFaasCacheInvocationAccounting(t *testing.T) {
	app := appWith([]float64{1, 1})
	app.Invocations = []float64{3, 4}
	app.ExecSec = 2
	out := SimulateFaasCache([]sim.AppTrace{app}, []float64{0.5}, DefaultFaasCacheConfig(5))
	if out[0].Invocations != 7 {
		t.Errorf("invocations = %d, want 7", out[0].Invocations)
	}
	if math.Abs(out[0].ExecSec-14) > 1e-9 {
		t.Errorf("exec = %v, want 14", out[0].ExecSec)
	}
}

func TestIceBreakerEval(t *testing.T) {
	baseline := rum.Sample{ExecSec: 100, ColdStartSec: 10, AllocatedGBSec: 1000}
	run := rum.Sample{ExecSec: 100, ColdStartSec: 80, AllocatedGBSec: 400}
	m := IceBreakerEval(run, baseline)
	wantInc := (180.0 - 110.0) / 110.0
	if math.Abs(m.ServiceTimeIncrease-wantInc) > 1e-12 {
		t.Errorf("service time increase = %v, want %v", m.ServiceTimeIncrease, wantInc)
	}
	if math.Abs(m.KeepAliveCostRatio-0.4) > 1e-12 {
		t.Errorf("cost ratio = %v, want 0.4", m.KeepAliveCostRatio)
	}
	// Degenerate baselines do not divide by zero.
	z := IceBreakerEval(run, rum.Sample{})
	if z.ServiceTimeIncrease != 0 || z.KeepAliveCostRatio != 0 {
		t.Errorf("zero baseline should produce zero metrics: %+v", z)
	}
}

func TestIceBreakerPolicyForecastsPeriodicTraffic(t *testing.T) {
	// Periodic history: the FFT-driven policy should target capacity at
	// bursts and (near) zero off-peak.
	hist := make([]float64, 120)
	for i := range hist {
		if i%10 == 0 {
			hist[i] = 4
		}
	}
	p := IceBreakerPolicy()
	if got := p.Target(hist, 1, nil); got < 0 {
		t.Errorf("negative target %d", got)
	}
	// Low-traffic weakness: near-zero history forecasts zero.
	quiet := make([]float64, 120)
	if got := p.Target(quiet, 1, nil); got != 0 {
		t.Errorf("quiet target = %d, want 0", got)
	}
}

func TestKeepAlive10Min(t *testing.T) {
	p := KeepAlive10Min(1)
	hist := make([]float64, 20)
	hist[12] = 3 // 8 intervals ago: inside the 10-interval window
	if got := p.Target(hist, 1, nil); got != 3 {
		t.Errorf("target = %d, want 3", got)
	}
	hist2 := make([]float64, 20)
	hist2[5] = 3 // 15 intervals ago: outside
	if got := p.Target(hist2, 1, nil); got != 0 {
		t.Errorf("target = %d, want 0", got)
	}
}

func TestAquatopeLearnsPeriodicPattern(t *testing.T) {
	// Strongly periodic series: after training, the forecast at a burst
	// offset should exceed the forecast at a quiet offset.
	series := make([]float64, 400)
	for i := range series {
		if i%8 < 2 {
			series[i] = 5
		}
	}
	cfg := DefaultAquatopeConfig()
	cfg.Window = 16
	cfg.Epochs = 25
	f := TrainAquatope(series[:300], cfg)
	if f.TrainTime <= 0 {
		t.Error("train time not captured")
	}
	// History ending right before a burst (i%8==7 -> next is burst).
	preBurst := series[:303] // index 303 % 8 == 7... ensure alignment below
	for len(preBurst)%8 != 0 {
		preBurst = preBurst[:len(preBurst)-1]
	}
	burstPred := f.ForecastInto(preBurst, 1, nil, nil)[0]
	// History ending mid-quiet (next also quiet).
	midQuiet := series[:300]
	for len(midQuiet)%8 != 4 {
		midQuiet = midQuiet[:len(midQuiet)-1]
	}
	quietPred := f.ForecastInto(midQuiet, 1, nil, nil)[0]
	if burstPred <= quietPred {
		t.Errorf("burst prediction %v should exceed quiet prediction %v", burstPred, quietPred)
	}
}

func TestAquatopeForecastContract(t *testing.T) {
	f := TrainAquatope([]float64{1, 2, 3}, AquatopeConfig{Window: 4, Hidden: 4, Epochs: 2, Seed: 1})
	if got := f.ForecastInto(nil, 3, nil, nil); len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	for _, v := range f.ForecastInto([]float64{1, 2}, 5, nil, nil) {
		if v < 0 || math.IsNaN(v) {
			t.Errorf("invalid forecast value %v", v)
		}
	}
	if f.ForecastInto([]float64{1}, 0, nil, nil) != nil {
		t.Error("horizon 0 should be nil")
	}
	if f.Name() != "aquatope-lstm" {
		t.Errorf("name = %q", f.Name())
	}
}

func TestAquatopeInferenceSlowerThanLightweight(t *testing.T) {
	// The paper's overhead claim at miniature scale: LSTM inference is at
	// least several times slower than a moving average.
	series := make([]float64, 200)
	for i := range series {
		series[i] = float64(i % 7)
	}
	f := TrainAquatope(series, AquatopeConfig{Window: 48, Hidden: 12, Epochs: 2, Seed: 2})
	hist := series[:100]

	start := time.Now()
	for i := 0; i < 200; i++ {
		f.ForecastInto(hist, 1, nil, nil)
	}
	lstmTime := time.Since(start)

	start = time.Now()
	for i := 0; i < 200; i++ {
		quickMA(hist)
	}
	maTime := time.Since(start)
	if lstmTime < maTime {
		t.Errorf("LSTM inference %v should be slower than MA %v", lstmTime, maTime)
	}
}

func quickMA(hist []float64) float64 {
	var s float64
	for _, v := range hist {
		s += v
	}
	return s / float64(len(hist))
}

func BenchmarkFaasCache(b *testing.B) {
	apps := make([]sim.AppTrace, 20)
	mem := make([]float64, 20)
	for i := range apps {
		vals := make([]float64, 200)
		for j := range vals {
			if (j+i)%5 == 0 {
				vals[j] = float64(i%3 + 1)
			}
		}
		apps[i] = appWith(vals)
		mem[i] = 0.15
	}
	cfg := DefaultFaasCacheConfig(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SimulateFaasCache(apps, mem, cfg)
	}
}
