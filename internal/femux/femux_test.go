package femux

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
	"github.com/ubc-cirrus-lab/femux-go/internal/rum"
	"github.com/ubc-cirrus-lab/femux-go/internal/timeseries"
)

// testConfig returns a laptop-scale configuration: 72-minute blocks over
// minute-interval series.
func testConfig() Config {
	cfg := DefaultConfig(rum.Default())
	cfg.BlockSize = 72
	cfg.Window = 60
	cfg.K = 4
	cfg.Forecasters = []forecast.Forecaster{
		forecast.NewAR(10),
		forecast.NewFFT(10),
		forecast.NewExpSmoothing(),
		forecast.NewMarkovChain(4),
	}
	return cfg
}

// mixedFleet builds apps with distinct patterns: periodic (FFT's home
// turf), smooth AR-style, and bursty on/off traffic.
func mixedFleet(seed int64, n, minutes int) []TrainApp {
	apps := make([]TrainApp, 0, n)
	for i := 0; i < n; i++ {
		rng := rand.New(rand.NewSource(seed + int64(i)))
		vals := make([]float64, minutes)
		switch i % 3 {
		case 0: // periodic bursts
			period := 12 + (i%4)*6
			for t := range vals {
				if t%period < 3 {
					vals[t] = 4 + rng.Float64()
				}
			}
		case 1: // smooth autoregressive
			v := 2.0
			for t := range vals {
				v = 0.8*v + 0.4 + 0.3*rng.NormFloat64()
				if v < 0 {
					v = 0
				}
				vals[t] = v
			}
		default: // bursty on/off
			on := false
			for t := range vals {
				if rng.Float64() < 0.1 {
					on = !on
				}
				if on {
					vals[t] = 3 + 2*rng.Float64()
				}
			}
		}
		invs := make([]float64, minutes)
		for t := range invs {
			invs[t] = vals[t] * 6 // ~rate given 10s execs
		}
		apps = append(apps, TrainApp{
			Name:        "app",
			Demand:      timeseries.New(time.Minute, vals),
			Invocations: invs,
			ExecSec:     0.2,
			MemoryGB:    0.15,
		})
	}
	return apps
}

func TestTrainErrors(t *testing.T) {
	cfg := testConfig()
	if _, err := Train(nil, cfg); err == nil {
		t.Error("no apps should error")
	}
	bad := cfg
	bad.BlockSize = 2
	if _, err := Train(mixedFleet(1, 3, 144), bad); err == nil {
		t.Error("tiny block size should error")
	}
	bad = cfg
	bad.Forecasters = nil
	if _, err := Train(mixedFleet(1, 3, 144), bad); err == nil {
		t.Error("empty forecaster set should error")
	}
	bad = cfg
	bad.Classifier = "svm"
	if _, err := Train(mixedFleet(1, 3, 144), bad); err == nil {
		t.Error("unknown classifier should error")
	}
	// Apps shorter than a block -> no blocks.
	short := []TrainApp{{Demand: timeseries.New(time.Minute, make([]float64, 10))}}
	if _, err := Train(short, cfg); err == nil {
		t.Error("no completed blocks should error")
	}
}

func TestTrainProducesModel(t *testing.T) {
	apps := mixedFleet(2, 9, 288) // 4 blocks each
	m, err := Train(apps, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.Diag.Blocks != 9*4 {
		t.Errorf("blocks = %d, want 36", m.Diag.Blocks)
	}
	if m.Diag.Clusters < 1 {
		t.Error("no clusters")
	}
	if m.Diag.TrainTime <= 0 {
		t.Error("train time missing")
	}
	if m.DefaultForecaster() == nil {
		t.Fatal("no default forecaster")
	}
	// All assigned forecasters come from the candidate set.
	names := map[string]bool{}
	for _, fc := range m.cfg.Forecasters {
		names[fc.Name()] = true
	}
	for g, n := range m.Diag.GroupForecaster {
		if !names[n] {
			t.Errorf("group %d assigned unknown forecaster %q", g, n)
		}
	}
}

func TestTrainDeterministic(t *testing.T) {
	apps := mixedFleet(3, 6, 216)
	a, err := Train(apps, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(apps, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.defaultFC != b.defaultFC {
		t.Error("default forecaster differs across runs")
	}
	for i := range a.perGroup {
		if a.perGroup[i] != b.perGroup[i] {
			t.Error("group assignment differs across runs")
			break
		}
	}
}

func TestFeMuxCompetitiveWithBestSingleForecaster(t *testing.T) {
	// The multiplexing claim (Fig 17) at miniature scale: on a mixed fleet
	// FeMux must at least be competitive with the best single forecaster,
	// and strictly beat the worst.
	cfg := testConfig()
	train := mixedFleet(5, 12, 288)
	test := mixedFleet(97, 12, 288)
	m, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fmRes := Evaluate(m, test)

	best, worst := math.Inf(1), 0.0
	for _, fc := range cfg.Forecasters {
		r := EvaluateSingle(fc, test, cfg)
		if r.RUM < best {
			best = r.RUM
		}
		if r.RUM > worst {
			worst = r.RUM
		}
	}
	if fmRes.RUM > best*1.15 {
		t.Errorf("FeMux RUM %v should be within 15%% of best single %v", fmRes.RUM, best)
	}
	if fmRes.RUM >= worst {
		t.Errorf("FeMux RUM %v should beat worst single %v", fmRes.RUM, worst)
	}
}

func TestFeMuxSwitchesForecasters(t *testing.T) {
	cfg := testConfig()
	train := mixedFleet(7, 12, 288)
	m, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// An app whose pattern changes mid-trace: periodic then bursty noise.
	rng := rand.New(rand.NewSource(42))
	vals := make([]float64, 288)
	for t := 0; t < 144; t++ {
		if t%12 < 3 {
			vals[t] = 5
		}
	}
	for t := 144; t < 288; t++ {
		if rng.Float64() < 0.3 {
			vals[t] = 4 * rng.Float64()
		}
	}
	p := m.NewAppPolicy(0.2)
	for t := 1; t <= len(vals); t++ {
		p.Target(vals[:t], 1, nil)
	}
	if p.ForecastersUsed() < 1 {
		t.Error("no forecaster recorded")
	}
	// Blocks completed: 4; classification must have run.
	if got := p.blocksSeen; got != 4 {
		t.Errorf("blocks seen = %d, want 4", got)
	}
}

func TestAppPolicyForecastAndName(t *testing.T) {
	m, err := Train(mixedFleet(9, 6, 144), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := m.NewAppPolicy(0)
	out := p.ForecastWS([]float64{1, 2, 3, 2, 1, 2, 3}, 3, nil, nil)
	if len(out) != 3 {
		t.Fatalf("forecast len = %d", len(out))
	}
	for _, v := range out {
		if v < 0 || math.IsNaN(v) {
			t.Errorf("bad forecast %v", v)
		}
	}
	if p.Name() != "femux-rum-default" {
		t.Errorf("name = %q", p.Name())
	}
	if p.CurrentForecaster() == "" {
		t.Error("no current forecaster")
	}
}

func TestSupervisedClassifiers(t *testing.T) {
	train := mixedFleet(11, 9, 216)
	test := mixedFleet(13, 6, 216)
	for _, clf := range []string{"tree", "forest"} {
		cfg := testConfig()
		cfg.Classifier = clf
		m, err := Train(train, cfg)
		if err != nil {
			t.Fatalf("%s: %v", clf, err)
		}
		res := Evaluate(m, test)
		if len(res.Samples) != len(test) {
			t.Fatalf("%s: samples = %d", clf, len(res.Samples))
		}
		if math.IsNaN(res.RUM) || res.RUM < 0 {
			t.Errorf("%s: RUM = %v", clf, res.RUM)
		}
	}
}

func TestKMeansBeatsOrMatchesSupervised(t *testing.T) {
	// §4.3.4's claim, directionally: clustering should not lose badly to
	// the supervised baselines on a held-out fleet.
	train := mixedFleet(15, 12, 288)
	test := mixedFleet(17, 12, 288)

	kcfg := testConfig()
	km, err := Train(train, kcfg)
	if err != nil {
		t.Fatal(err)
	}
	kRUM := Evaluate(km, test).RUM

	tcfg := testConfig()
	tcfg.Classifier = "tree"
	tm, err := Train(train, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	tRUM := Evaluate(tm, test).RUM

	if kRUM > tRUM*1.3 {
		t.Errorf("kmeans RUM %v should not lose badly to tree %v", kRUM, tRUM)
	}
}

func TestEvaluateHonorsPerAppOverrides(t *testing.T) {
	cfg := testConfig()
	m, err := Train(mixedFleet(19, 6, 144), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// High concurrency: the same demand needs fewer units, so allocation
	// must shrink.
	apps := mixedFleet(21, 3, 144)
	low := Evaluate(m, apps)
	for i := range apps {
		apps[i].UnitConcurrency = 100
	}
	high := Evaluate(m, apps)
	if alloc(high.Samples) >= alloc(low.Samples) {
		t.Errorf("high concurrency should allocate less: %v vs %v",
			alloc(high.Samples), alloc(low.Samples))
	}
}

func alloc(ss []rum.Sample) float64 {
	var s float64
	for _, x := range ss {
		s += x.AllocatedGBSec
	}
	return s
}

func TestOneStepMAE(t *testing.T) {
	// Naive forecaster on a known series: MAE = mean |x_t - x_{t-1}|.
	series := []float64{1, 3, 2, 5}
	got := OneStepMAE(series, forecast.Naive{}, 10, 1)
	want := (math.Abs(3.0-1) + math.Abs(2.0-3) + math.Abs(5.0-2)) / 3
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("MAE = %v, want %v", got, want)
	}
	if OneStepMAE([]float64{1}, forecast.Naive{}, 10, 1) != 0 {
		t.Error("degenerate MAE should be 0")
	}
}

func TestExecAwareTrainingUsesExecFeature(t *testing.T) {
	cfg := testConfig()
	cfg.Metric = rum.DefaultExecAware()
	cfg.Features = append(append([]string(nil), cfg.Features...), "exectime")
	apps := mixedFleet(23, 9, 216)
	// Give the classes very different exec times.
	for i := range apps {
		apps[i].ExecSec = []float64{0.05, 1, 10}[i%3]
	}
	m, err := Train(apps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := Evaluate(m, apps)
	if math.IsNaN(res.RUM) {
		t.Error("exec-aware RUM is NaN")
	}
}

func BenchmarkTrainSmallFleet(b *testing.B) {
	apps := mixedFleet(1, 6, 144)
	cfg := testConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(apps, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppPolicyTarget(b *testing.B) {
	m, err := Train(mixedFleet(1, 6, 144), testConfig())
	if err != nil {
		b.Fatal(err)
	}
	p := m.NewAppPolicy(0.2)
	hist := make([]float64, 120)
	for i := range hist {
		hist[i] = float64(i % 7)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Target(hist, 1, nil)
	}
}
