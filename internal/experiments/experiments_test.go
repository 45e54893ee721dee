package experiments

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/femux"
	"github.com/ubc-cirrus-lab/femux-go/internal/rum"
	"github.com/ubc-cirrus-lab/femux-go/internal/timeseries"
	"github.com/ubc-cirrus-lab/femux-go/internal/trace"
)

// tinyScale keeps experiment tests fast on one core.
func tinyScale() Scale { return Scale{Seed: 3, Apps: 48, Days: 2} }

func fleet(t testing.TB) (train, test []femux.TrainApp) {
	t.Helper()
	apps := AzureFleet(tinyScale())
	train, test = SplitTrainTest(apps, 7)
	if len(train) == 0 || len(test) == 0 {
		t.Fatal("empty split")
	}
	return train, test
}

func TestAzureFleetShape(t *testing.T) {
	apps := AzureFleet(tinyScale())
	if len(apps) != 48 {
		t.Fatalf("apps = %d", len(apps))
	}
	for _, a := range apps {
		if a.Demand.Len() != 2*24*60 {
			t.Fatalf("%s demand len = %d", a.Name, a.Demand.Len())
		}
		if a.ExecSec <= 0 || a.MemoryGB <= 0 {
			t.Fatalf("%s missing exec/memory", a.Name)
		}
		for _, v := range a.Demand.Values {
			if v < 0 || math.IsNaN(v) {
				t.Fatalf("%s bad demand value %v", a.Name, v)
			}
		}
	}
}

func TestSplitTrainTestDisjointAndComplete(t *testing.T) {
	apps := AzureFleet(tinyScale())
	train, test := SplitTrainTest(apps, 1)
	if len(train)+len(test) != len(apps) {
		t.Errorf("split lost apps: %d + %d != %d", len(train), len(test), len(apps))
	}
	seen := map[string]bool{}
	for _, a := range append(append([]femux.TrainApp{}, train...), test...) {
		if seen[a.Name] {
			t.Fatalf("app %s in both sets", a.Name)
		}
		seen[a.Name] = true
	}
}

// TestReadTrainApps pins the one tracegen CSV → training-series
// conversion (femux-train's -apps/-invocations, femux-load's -apps-csv)
// on a small IBM-shape trace: every app's demand is the average
// concurrency of its invocations' spans over the minutes up to the
// trace's last invocation end, its per-minute counts sum to its
// invocation count, its configuration carries over, and a minutes cap
// only cuts the series short.
func TestReadTrainApps(t *testing.T) {
	ds := trace.GenerateIBM(trace.IBMGenConfig{Seed: 5, Apps: 6, Days: 3.0 / 24})
	dir := t.TempDir()
	appsPath, invPath := filepath.Join(dir, "apps.csv"), filepath.Join(dir, "inv.csv")
	var appsCSV, invCSV bytes.Buffer
	if err := trace.WriteApps(&appsCSV, ds); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteInvocations(&invCSV, ds); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(appsPath, appsCSV.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(invPath, invCSV.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	apps, err := ReadTrainApps(appsPath, invPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The CSV keeps microseconds, so the spans are the ones read back.
	read, err := trace.ReadDataset(bytes.NewReader(appsCSV.Bytes()), bytes.NewReader(invCSV.Bytes()), 62*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	var last time.Duration
	for _, a := range read.Apps {
		for _, inv := range a.Invocations {
			if end := inv.Arrival + inv.Duration; end > last {
				last = end
			}
		}
	}
	minutes := int(last/time.Minute) + 1
	if len(apps) != len(ds.Apps) || len(read.Apps) != len(ds.Apps) {
		t.Fatalf("%d apps converted, %d read, %d generated", len(apps), len(read.Apps), len(ds.Apps))
	}
	total := 0
	for i, a := range apps {
		gen, r := ds.Apps[i], read.Apps[i]
		if a.Name != gen.Name || a.MemoryGB != gen.Config.MemoryGB || a.UnitConcurrency != gen.Config.Concurrency {
			t.Errorf("app %d: %s %g GB concurrency %d, generated %s %g GB concurrency %d",
				i, a.Name, a.MemoryGB, a.UnitConcurrency, gen.Name, gen.Config.MemoryGB, gen.Config.Concurrency)
		}
		spans := make([]timeseries.Interval, len(r.Invocations))
		for j, inv := range r.Invocations {
			spans[j] = timeseries.Interval{Start: inv.Arrival, End: inv.Arrival + inv.Duration}
		}
		want := timeseries.AverageConcurrency(spans, time.Minute, minutes)
		if a.Demand.Step != time.Minute || len(a.Demand.Values) != minutes {
			t.Fatalf("%s: demand of %d steps of %s, want %d minutes", a.Name, len(a.Demand.Values), a.Demand.Step, minutes)
		}
		for m, v := range want.Values {
			if math.Float64bits(a.Demand.Values[m]) != math.Float64bits(v) {
				t.Fatalf("%s: demand[%d] = %v, want the spans' average concurrency %v", a.Name, m, a.Demand.Values[m], v)
			}
		}
		sum := 0.0
		for _, c := range a.Invocations {
			sum += c
		}
		if int(sum) != len(gen.Invocations) || len(a.Invocations) != minutes {
			t.Errorf("%s: %v invocations over %d minutes, generated %d over %d", a.Name, sum, len(a.Invocations), len(gen.Invocations), minutes)
		}
		total += len(gen.Invocations)
	}
	if total == 0 {
		t.Fatal("the trace has no invocations: the test checks nothing")
	}
	// A cap keeps the leading minutes bit for bit; one past the trace's
	// end does not lengthen it.
	for _, c := range []struct{ limit, want int }{{30, 30}, {minutes + 50, minutes}} {
		capped, err := ReadTrainApps(appsPath, invPath, c.limit)
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range capped {
			if len(a.Demand.Values) != c.want || len(a.Invocations) != c.want {
				t.Fatalf("cap %d: %s has %d demand and %d count minutes, want %d",
					c.limit, a.Name, len(a.Demand.Values), len(a.Invocations), c.want)
			}
			for m := range c.want {
				if math.Float64bits(a.Demand.Values[m]) != math.Float64bits(apps[i].Demand.Values[m]) ||
					a.Invocations[m] != apps[i].Invocations[m] {
					t.Fatalf("cap %d: %s minute %d differs from the uncapped series", c.limit, a.Name, m)
				}
			}
		}
	}
	if _, err := ReadTrainApps(filepath.Join(dir, "missing.csv"), invPath, 0); err == nil {
		t.Error("a missing apps CSV should fail")
	}
}

func TestVolumeClasses(t *testing.T) {
	apps := AzureFleet(tinyScale())
	classes := VolumeClasses(apps)
	total := len(classes["low"]) + len(classes["mid"]) + len(classes["high"])
	if total != len(apps) {
		t.Errorf("classes cover %d of %d apps", total, len(apps))
	}
	vol := func(a femux.TrainApp) float64 {
		var v float64
		for _, c := range a.Invocations {
			v += c
		}
		return v
	}
	// Every high app out-volumes every low app.
	for _, h := range classes["high"] {
		for _, l := range classes["low"] {
			if vol(h) < vol(l) {
				t.Fatalf("high app %v below low app %v", vol(h), vol(l))
			}
		}
	}
}

func TestCharacterizationExperiments(t *testing.T) {
	d := IBMDataset(Scale{Seed: 4, Apps: 60, Days: 2})

	t1 := Table1(d)
	if t1.Apps != 60 || t1.TotalInvocations == 0 {
		t.Errorf("table1 = %+v", t1)
	}

	f1 := Fig1(d)
	if f1.Seasonality.WeekdaySpan <= 0.2 {
		t.Errorf("weekday span = %v, want visible diurnal pattern", f1.Seasonality.WeekdaySpan)
	}

	f2 := Fig2(d)
	if f2.SubSecondInvFrac < 0.8 {
		t.Errorf("sub-second IAT frac = %v", f2.SubSecondInvFrac)
	}
	if f2.CVAbove1Frac < 0.75 {
		t.Errorf("CV>1 frac = %v", f2.CVAbove1Frac)
	}

	f34 := Fig3And4(d)
	if f34.SubSecondAppFrac < 0.6 {
		t.Errorf("sub-second app frac = %v", f34.SubSecondAppFrac)
	}
	if f34.MedianOfP99s <= f34.MedianOfMeans {
		t.Error("no execution-time variability")
	}

	f7 := Fig7(d)
	sum := f7.MinScale0Frac + f7.MinScale1Frac + f7.MinScaleMoreFrac
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("min-scale fractions sum to %v", sum)
	}

	f15 := Fig15(Scale{Seed: 4, Apps: 40, Days: 1})
	if len(f15.IBMShares) == 0 || len(f15.AzureShares) == 0 {
		t.Error("missing share distributions")
	}

	f16 := Fig16(d)
	if f16.Trending != nil && TrendSlope(f16.Trending) <= 0 {
		t.Errorf("trending workload slope = %v, want positive", TrendSlope(f16.Trending))
	}
}

func TestFig5SubMinuteScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("event-driven sub-minute sim (~25s)")
	}
	// Small dataset keeps the event sim fast; the orderings are the claim.
	d := trace.GenerateIBM(trace.IBMGenConfig{Seed: 6, Apps: 25, Days: 0.5, TrafficScale: 0.5})
	res := Fig5(d)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.FFT10VsFFT60 <= 0 {
		t.Errorf("fft@10s should beat fft@60s: reduction %v", res.FFT10VsFFT60)
	}
	if res.FFT10VsKA5 <= 0 {
		t.Errorf("fft@10s should beat 5-min KA: reduction %v", res.FFT10VsKA5)
	}
}

func TestFig6PlatformDelay(t *testing.T) {
	d := trace.GenerateIBM(trace.IBMGenConfig{Seed: 8, Apps: 40, Days: 0.5, TrafficScale: 0.5})
	ds := Fig6(d)
	// The qualitative shape: most delays tiny, a visible tail.
	if ds.SubMsInvFrac < 0.5 {
		t.Errorf("sub-ms delay frac = %v, want most sub-ms", ds.SubMsInvFrac)
	}
	if ds.MaxDelay < 1 {
		t.Errorf("max delay = %v, want long-tail cold starts (>1s)", ds.MaxDelay)
	}
	if ds.P99Above1sFrac <= 0 {
		t.Errorf("no workloads with p99 > 1s; paper reports ~20%%")
	}
}

func TestC1MetricMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("full per-app forecaster sweep (~20s)")
	}
	train, test := fleet(t)
	res := C1(append(train, test...))
	if res.Apps < 20 {
		t.Fatalf("too few apps: %d", res.Apps)
	}
	// The claim's shape (§4.2.1): switching from MAE to RUM must move the
	// verdict toward FFT — FFT wins RUM for more apps than it wins MAE.
	fftWinsMAE := 1 - res.ARWinsMAE
	if res.FFTWinsRUM <= fftWinsMAE {
		t.Errorf("metrics agree too much: FFT wins MAE %v vs RUM %v", fftWinsMAE, res.FFTWinsRUM)
	}
	if res.ARWinsMAE <= 0 || res.ARWinsMAE >= 1 {
		t.Errorf("degenerate MAE comparison: %v", res.ARWinsMAE)
	}
}

func TestFig8PerClassForecasting(t *testing.T) {
	if testing.Short() {
		t.Skip("per-class forecaster sweep (~15s)")
	}
	train, test := fleet(t)
	res := Fig8(append(train, test...))
	if len(res.Classes) != 3 {
		t.Fatalf("classes = %d", len(res.Classes))
	}
	// Per-class best is never worse than either single choice.
	if res.PerClassBest > res.AllAR+1e-9 || res.PerClassBest > res.AllFFT+1e-9 {
		t.Errorf("per-class best %v should beat all-AR %v and all-FFT %v",
			res.PerClassBest, res.AllAR, res.AllFFT)
	}
}

func TestFig9TemporalSwitching(t *testing.T) {
	res := Fig9(11)
	// Phase 2 is perfectly periodic: the Markov chain must beat the fixed
	// keep-alive there (the paper's Fig 9 story).
	if res.MCPhase2 >= res.KAPhase2 {
		t.Errorf("MC should win the periodic phase: MC %v vs KA %v", res.MCPhase2, res.KAPhase2)
	}
	// And the winner flips (or at least narrows) in the variable phase.
	if res.MCPhase1 < res.KAPhase1 && res.MCPhase2 < res.KAPhase2 &&
		res.KAPhase1/res.MCPhase1 > 2 {
		t.Logf("note: MC dominated both phases (KA1 %v MC1 %v)", res.KAPhase1, res.MCPhase1)
	}
}

func TestFig11FaasCache(t *testing.T) {
	if testing.Short() {
		t.Skip("cache-size sweep plus three FeMux trainings (~60s)")
	}
	train, test := fleet(t)
	res, err := Fig11FaasCache(train, test, []float64{0.5, 2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FCColdStarts) != 3 {
		t.Fatalf("cache sweep rows = %d", len(res.FCColdStarts))
	}
	// Bigger caches give fewer (or equal) cold starts but more waste.
	if res.FCColdStarts[2] > res.FCColdStarts[0] {
		t.Errorf("cache growth increased cold starts: %v", res.FCColdStarts)
	}
	if res.FCWastedGBs[2] < res.FCWastedGBs[0] {
		t.Errorf("cache growth reduced waste: %v", res.FCWastedGBs)
	}
	// FeMux's defining advantage: better RUM than every fixed cache size.
	for i, fc := range res.FCRUM {
		if res.FeMuxDefault.RUM >= fc {
			t.Errorf("femux RUM %v should beat faascache[%d] %v", res.FeMuxDefault.RUM, i, fc)
		}
	}
	// Variant ordering: CS variant has the fewest cold starts.
	if res.FeMuxCS.ColdStarts > res.FeMuxMem.ColdStarts {
		t.Errorf("CS variant cold starts %d exceed Mem variant %d",
			res.FeMuxCS.ColdStarts, res.FeMuxMem.ColdStarts)
	}
}

func TestFig11IceBreaker(t *testing.T) {
	if testing.Short() {
		t.Skip("baseline comparison with full training (~25s)")
	}
	train, test := fleet(t)
	res, err := Fig11IceBreaker(train, test)
	if err != nil {
		t.Fatal(err)
	}
	// Both systems must cut keep-alive cost vs the 10-min KA.
	if res.IceBreaker.KeepAliveCostRatio >= 1 || res.FeMuxMem.KeepAliveCostRatio >= 1 {
		t.Errorf("cost ratios should be below 1: ice %v femux %v",
			res.IceBreaker.KeepAliveCostRatio, res.FeMuxMem.KeepAliveCostRatio)
	}
	// FeMux's service-time increase must be smaller (paper: +170% vs +266%).
	if res.FeMuxMem.ServiceTimeIncrease >= res.IceBreaker.ServiceTimeIncrease {
		t.Errorf("femux service increase %v should be below icebreaker %v",
			res.FeMuxMem.ServiceTimeIncrease, res.IceBreaker.ServiceTimeIncrease)
	}
	if res.RUMReduction <= 0 {
		t.Errorf("RUM reduction = %v, want positive (paper 42%%)", res.RUMReduction)
	}
}

func TestFig11Aquatope(t *testing.T) {
	if testing.Short() {
		t.Skip("per-app LSTM training (~20s)")
	}
	train, test := fleet(t)
	if len(test) > 8 {
		test = test[:8] // per-app LSTM training is the expensive part
	}
	res, err := Fig11Aquatope(train, test, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.RUMReduction <= 0 {
		t.Errorf("femux should reduce RUM vs aquatope: %v", res.RUMReduction)
	}
	if res.AquatopeInference <= res.FeMuxInference {
		t.Errorf("aquatope inference %v should be slower than femux %v",
			res.AquatopeInference, res.FeMuxInference)
	}
	if res.AquatopeTrain <= res.FeMuxTrain/4 {
		t.Logf("note: aquatope train %v vs femux %v", res.AquatopeTrain, res.FeMuxTrain)
	}
}

func TestFig12MultiTier(t *testing.T) {
	if testing.Short() {
		t.Skip("two tiered trainings (~30s)")
	}
	train, test := fleet(t)
	res, err := Fig12(train, test)
	if err != nil {
		t.Fatal(err)
	}
	if res.PremiumApps < 1 || res.RegularApps < 1 {
		t.Fatalf("tiering empty: %+v", res)
	}
	// Tiered deployment must not waste more memory than all-premium.
	if res.WastedTiered > res.WastedAllCS*1.001 {
		t.Errorf("tiered waste %v exceeds all-CS %v", res.WastedTiered, res.WastedAllCS)
	}
	// The CS model must not increase premium cold-start time.
	if res.PremiumCSTiered > res.PremiumCSDefault*1.05 {
		t.Errorf("premium cold-start sec grew: %v vs %v",
			res.PremiumCSTiered, res.PremiumCSDefault)
	}
}

func TestS513ExecAwareRUM(t *testing.T) {
	if testing.Short() {
		t.Skip("two trainings under different RUMs (~20s)")
	}
	train, test := fleet(t)
	res, err := S513(train, test)
	if err != nil {
		t.Fatal(err)
	}
	// Each model should win (or tie) under its own training metric.
	if res.DefaultRUMDefault > res.ExecRUMDefault*1.1 {
		t.Errorf("default model loses its own metric: %v vs %v",
			res.DefaultRUMDefault, res.ExecRUMDefault)
	}
	if res.ExecRUMExec > res.DefaultRUMExec*1.1 {
		t.Errorf("exec model loses its own metric: %v vs %v",
			res.ExecRUMExec, res.DefaultRUMExec)
	}
}

func TestFig17VsIndividualForecasters(t *testing.T) {
	if testing.Short() {
		t.Skip("training plus every individual forecaster (~18s)")
	}
	train, test := fleet(t)
	res, err := Fig17(train, test)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Individual) < 4 {
		t.Fatalf("individual forecasters = %d", len(res.Individual))
	}
	best := res.BestIndividualRUM()
	if res.FeMux.RUM > best*1.15 {
		t.Errorf("femux RUM %v should be within 15%% of best individual %v", res.FeMux.RUM, best)
	}
}

func TestFig18FeatureAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("eight feature-combo trainings (~85s)")
	}
	train, test := fleet(t)
	res, err := Fig18(train, test)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RUM) != 8 {
		t.Fatalf("combos = %d", len(res.RUM))
	}
	full := res.RUM["stationarity+linearity+harmonics+density"]
	if full <= 0 {
		t.Fatal("full-feature RUM missing")
	}
	// Full features should be competitive with the best single feature.
	for combo, v := range res.RUM {
		if v <= 0 {
			t.Errorf("combo %s RUM = %v", combo, v)
		}
	}
}

func TestBlockSizeSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("three block-size trainings (~30s)")
	}
	train, test := fleet(t)
	res, err := BlockSize(train, test, []int{96, 144, 288})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RUM) != 3 {
		t.Fatalf("sweep points = %d", len(res.RUM))
	}
	// Paper: block size changes RUM by only a few percent; allow a wide
	// envelope but catch order-of-magnitude breakage.
	min, max := math.Inf(1), 0.0
	for _, v := range res.RUM {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max > min*2 {
		t.Errorf("block size sensitivity too large: min %v max %v", min, max)
	}
}

func TestClassifierComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("three classifier trainings (~30s)")
	}
	train, test := fleet(t)
	res, err := Classifiers(train, test)
	if err != nil {
		t.Fatal(err)
	}
	if res.KMeansRUM <= 0 || res.TreeRUM <= 0 || res.ForestRUM <= 0 {
		t.Fatalf("missing classifier results: %+v", res)
	}
}

func TestFig14LeftRepresentativity(t *testing.T) {
	apps := AzureFleet(tinyScale())
	res := Fig14Left(apps, 2)
	if res.KSDistance > 0.35 {
		t.Errorf("KS distance = %v, sampled subtrace should track the full distribution", res.KSDistance)
	}
}

func TestFig14PrototypeAndScalability(t *testing.T) {
	if testing.Short() {
		t.Skip("training plus Knative emulation and HTTP study (~13s)")
	}
	train, test := fleet(t)
	model, err := femux.Train(train, expConfig(rum.Default()))
	if err != nil {
		t.Fatal(err)
	}
	// A few low-volume apps keep the emulation fast.
	classes := VolumeClasses(test)
	sel := classes["low"]
	if len(sel) > 6 {
		sel = sel[:6]
	}
	// Truncate traces to 2 hours of replay.
	for i := range sel {
		n := 120
		if sel[i].Demand.Len() < n {
			n = sel[i].Demand.Len()
		}
		sel[i].Demand = sel[i].Demand.Slice(0, n)
		if len(sel[i].Invocations) > n {
			sel[i].Invocations = sel[i].Invocations[:n]
		}
	}
	specs := SpecsFromTrainApps(sel)
	res := Fig14Prototype(model, specs, 2*time.Hour)
	if res.Apps != len(sel) {
		t.Fatalf("apps = %d", res.Apps)
	}
	if res.Invocations == 0 {
		t.Fatal("no invocations replayed")
	}

	pts := Fig14Scalability(model, []int{5, 20}, 3)
	if len(pts) != 2 {
		t.Fatalf("scalability points = %d", len(pts))
	}
	for _, p := range pts {
		if p.MeanLatency <= 0 || p.P99Latency < p.MeanLatency {
			t.Errorf("bad latency point %+v", p)
		}
		if p.AppsPerPod < 10 {
			t.Errorf("apps per pod = %d, implausibly low", p.AppsPerPod)
		}
	}
}

func TestSpecsFromTrainApps(t *testing.T) {
	apps := []femux.TrainApp{{
		Name:        "x",
		Invocations: []float64{2, 0, 3},
		ExecSec:     0.5,
		MemoryGB:    0.25,
	}}
	specs := SpecsFromTrainApps(apps)
	if len(specs) != 1 {
		t.Fatal("missing spec")
	}
	if len(specs[0].Invocations) != 5 {
		t.Fatalf("invocations = %d, want 5", len(specs[0].Invocations))
	}
	// Minute-2 arrivals land inside [2min, 3min).
	for _, inv := range specs[0].Invocations[2:] {
		if inv.Arrival < 2*time.Minute || inv.Arrival >= 3*time.Minute {
			t.Errorf("arrival %v outside minute 2", inv.Arrival)
		}
	}
}

func TestDriftStudyLifecycleBeatsStatic(t *testing.T) {
	scale := Scale{Seed: 5, Apps: 16, Days: 0.5}
	res, err := DriftStudy(scale, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	if res.Promotions < 1 {
		t.Fatal("lifecycle never promoted across the regime change")
	}
	promoted := false
	for _, row := range res.Rows {
		switch {
		case row.Regime == "A":
			// Stationary epochs: the lifecycle idles and the arms agree.
			if row.Outcome == "promoted" {
				t.Errorf("epoch %d promoted during the stationary regime", row.Epoch)
			}
			if row.LifecycleRUM != row.StaticRUM {
				t.Errorf("epoch %d: arms diverged before any promotion", row.Epoch)
			}
		case promoted:
			// Epochs after the promotion: the retrained model must hold RUM
			// well below the frozen model's.
			if row.LifecycleRUM >= 0.8*row.StaticRUM {
				t.Errorf("epoch %d: lifecycle RUM %v not clearly below static %v",
					row.Epoch, row.LifecycleRUM, row.StaticRUM)
			}
		default:
			// The shift epoch itself: drift must be unmistakable.
			if row.MaxDrift < 1 {
				t.Errorf("epoch %d: regime shift scored drift %v, want >= 1", row.Epoch, row.MaxDrift)
			}
		}
		if row.Outcome == "promoted" {
			promoted = true
		}
	}
	if imp := res.Improvement(); imp < 0.2 {
		t.Errorf("post-shift RUM reduction %v, want >= 20%%", imp)
	}

	// The study is deterministic: a second run reproduces every row bit
	// for bit (training is seeded, windows are sorted, caches are pure).
	again, err := DriftStudy(scale, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Rows {
		a, b := res.Rows[i], again.Rows[i]
		if a != b {
			t.Fatalf("row %d not reproducible:\n%+v\n%+v", i, a, b)
		}
	}
}

func TestPolicyZoo(t *testing.T) {
	if testing.Short() {
		t.Skip("every lifetime policy on one fleet (~15s)")
	}
	train, test := fleet(t)
	res, err := PolicyZoo(train, test)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 8 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Rows are sorted best-first.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].RUM < res.Rows[i-1].RUM {
			t.Fatal("rows not sorted by RUM")
		}
	}
	fm, ok := res.RowByName("femux")
	if !ok {
		t.Fatal("femux row missing")
	}
	// FeMux must be at or near the top of the zoo: within 10% of the best.
	if fm.RUM > res.Best().RUM*1.10 {
		t.Errorf("femux RUM %v should be within 10%% of the zoo best %v (%s)",
			fm.RUM, res.Best().RUM, res.Best().Policy)
	}
	// Structural sanity: longer keep-alives waste more and cold-start less.
	ka1, _ := res.RowByName("keepalive-1min")
	ka10, _ := res.RowByName("keepalive-10min")
	if ka10.WastedGBs <= ka1.WastedGBs {
		t.Errorf("KA10 waste %v should exceed KA1 %v", ka10.WastedGBs, ka1.WastedGBs)
	}
	if ka10.ColdStarts > ka1.ColdStarts {
		t.Errorf("KA10 cold starts %v should not exceed KA1 %v", ka10.ColdStarts, ka1.ColdStarts)
	}
}
