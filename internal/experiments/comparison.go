package experiments

import (
	"fmt"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/baselines"
	"github.com/ubc-cirrus-lab/femux-go/internal/femux"
	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
	"github.com/ubc-cirrus-lab/femux-go/internal/parallel"
	"github.com/ubc-cirrus-lab/femux-go/internal/rum"
	"github.com/ubc-cirrus-lab/femux-go/internal/sim"
)

// trainVariants trains the FeMux variants used throughout Fig 11/12:
// default RUM, cold-start-heavy (FeMux-CS), and memory-heavy (FeMux-Mem).
func trainVariants(train []femux.TrainApp) (def, cs, mem *femux.Model, err error) {
	if def, err = femux.Train(train, expConfig(rum.Default())); err != nil {
		return
	}
	if cs, err = femux.Train(train, expConfig(rum.ColdStartHeavy())); err != nil {
		return
	}
	mem, err = femux.Train(train, expConfig(rum.MemoryHeavy()))
	return
}

// Fig11FaasCacheResult is the FeMux-vs-FaasCache Pareto comparison.
type Fig11FaasCacheResult struct {
	// FaasCache outcomes per cache size (GB).
	CacheSizes   []float64
	FCColdStarts []int
	FCWastedGBs  []float64
	FCRUM        []float64
	// FeMux variants.
	FeMuxCS, FeMuxDefault, FeMuxMem VariantOutcome
	// Headlines, both against FaasCache's best-RUM cache size: cold-start
	// reduction of FeMux-CS, and RUM reduction of default FeMux.
	CSReduction  float64 // paper: >64%
	RUMReduction float64 // paper: 30%
}

// VariantOutcome is one FeMux variant's aggregate outcome.
type VariantOutcome struct {
	ColdStarts   int
	ColdStartSec float64
	WastedGBs    float64
	AllocGBs     float64
	RUM          float64
}

func outcomeOf(samples []rum.Sample, metric rum.Metric) VariantOutcome {
	var o VariantOutcome
	for _, s := range samples {
		o.ColdStarts += s.ColdStarts
		o.ColdStartSec += s.ColdStartSec
		o.WastedGBs += s.WastedGBSec
		o.AllocGBs += s.AllocatedGBSec
	}
	o.RUM = rum.EvalPerApp(metric, samples)
	return o
}

// Fig11FaasCache runs the FaasCache comparison on single-unit-concurrency
// apps (FaasCache performs function-level allocation, §5.1.1). cacheSizes
// are in GB and swept as in Fig 11-Left.
func Fig11FaasCache(train, test []femux.TrainApp, cacheSizes []float64) (Fig11FaasCacheResult, error) {
	var res Fig11FaasCacheResult
	def, cs, mem, err := trainVariants(train)
	if err != nil {
		return res, err
	}
	metric := rum.Default()

	appTraces := make([]sim.AppTrace, len(test))
	memGB := make([]float64, len(test))
	for i, a := range test {
		appTraces[i] = sim.AppTrace{Demand: a.Demand, Invocations: a.Invocations, ExecSec: a.ExecSec}
		memGB[i] = a.MemoryGB
		if memGB[i] <= 0 {
			memGB[i] = 0.15
		}
	}
	res.CacheSizes = cacheSizes
	// Cache sizes are independent sweep points (Fig 11-Left's x-axis).
	outcomes := parallel.Map(parallel.Workers(sweepWorkers), len(cacheSizes), func(i int) VariantOutcome {
		samples := baselines.SimulateFaasCache(appTraces, memGB, baselines.DefaultFaasCacheConfig(cacheSizes[i]))
		return outcomeOf(samples, metric)
	})
	for _, o := range outcomes {
		res.FCColdStarts = append(res.FCColdStarts, o.ColdStarts)
		res.FCWastedGBs = append(res.FCWastedGBs, o.WastedGBs)
		res.FCRUM = append(res.FCRUM, o.RUM)
	}
	res.FeMuxDefault = outcomeOf(femux.Evaluate(def, test).Samples, metric)
	res.FeMuxCS = outcomeOf(femux.Evaluate(cs, test).Samples, metric)
	res.FeMuxMem = outcomeOf(femux.Evaluate(mem, test).Samples, metric)

	// Headlines mirror the paper's comparison style: the RUM reduction is
	// against FaasCache's best-tuned (lowest-RUM) cache size, and the
	// cold-start reduction of FeMux-CS is against the cache point with the
	// closest memory waste (the paper's "64% fewer cold starts while
	// wasting 3% more memory" pairs points of comparable memory cost).
	if len(res.FCRUM) > 0 {
		best := 0
		for i, v := range res.FCRUM {
			if v < res.FCRUM[best] {
				best = i
			}
		}
		if res.FCRUM[best] > 0 {
			res.RUMReduction = 1 - res.FeMuxDefault.RUM/res.FCRUM[best]
		}
		closest := 0
		for i, w := range res.FCWastedGBs {
			if absF(w-res.FeMuxCS.WastedGBs) < absF(res.FCWastedGBs[closest]-res.FeMuxCS.WastedGBs) {
				closest = i
			}
		}
		if res.FCColdStarts[closest] > 0 {
			res.CSReduction = 1 - float64(res.FeMuxCS.ColdStarts)/float64(res.FCColdStarts[closest])
		}
	}
	return res, nil
}

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// String renders the comparison.
func (r Fig11FaasCacheResult) String() string {
	s := ""
	for i, size := range r.CacheSizes {
		s += fmt.Sprintf("  faascache %5.1fGB: cold %6d  wasted %9.0f GB-s  RUM %9.1f\n",
			size, r.FCColdStarts[i], r.FCWastedGBs[i], r.FCRUM[i])
	}
	s += fmt.Sprintf("  femux-cs:  cold %6d  wasted %9.0f GB-s  RUM %9.1f\n",
		r.FeMuxCS.ColdStarts, r.FeMuxCS.WastedGBs, r.FeMuxCS.RUM)
	s += fmt.Sprintf("  femux:     cold %6d  wasted %9.0f GB-s  RUM %9.1f\n",
		r.FeMuxDefault.ColdStarts, r.FeMuxDefault.WastedGBs, r.FeMuxDefault.RUM)
	s += fmt.Sprintf("  femux-mem: cold %6d  wasted %9.0f GB-s  RUM %9.1f\n",
		r.FeMuxMem.ColdStarts, r.FeMuxMem.WastedGBs, r.FeMuxMem.RUM)
	s += fmt.Sprintf("  cold-start reduction (CS vs comparable-waste cache) %.0f%% (paper 64%%), RUM reduction %.0f%% (paper 30%%)",
		r.CSReduction*100, r.RUMReduction*100)
	return s
}

// Fig11IceBreakerResult compares FeMux-Mem and IceBreaker against a
// 10-minute keep-alive baseline using IceBreaker's own metrics.
type Fig11IceBreakerResult struct {
	IceBreaker baselines.IceBreakerMetrics
	FeMuxMem   baselines.IceBreakerMetrics
	// RUM reduction of FeMux vs IceBreaker (paper: 42%).
	RUMReduction float64
}

// Fig11IceBreaker runs the IceBreaker comparison.
func Fig11IceBreaker(train, test []femux.TrainApp) (Fig11IceBreakerResult, error) {
	var res Fig11IceBreakerResult
	cfg := expConfig(rum.MemoryHeavy())
	memModel, err := femux.Train(train, cfg)
	if err != nil {
		return res, err
	}
	defCfg := expConfig(rum.Default())

	// IceBreaker runs in its own representation (integer instances with a
	// rounded FFT forecast) via the dedicated baseline policy.
	iceSamples := evalPolicy(baselines.IceBreakerPolicy(), test, defCfg)
	fmRes := femux.Evaluate(memModel, test)
	kaRes := evalPolicy(baselines.KeepAlive10Min(1), test, defCfg)

	iceAgg, fmAgg, kaAgg := rum.Sum(iceSamples), rum.Sum(fmRes.Samples), rum.Sum(kaRes)
	res.IceBreaker = baselines.IceBreakerEval(iceAgg, kaAgg)
	res.FeMuxMem = baselines.IceBreakerEval(fmAgg, kaAgg)
	iceScore := rum.EvalPerApp(rum.Default(), iceSamples)
	fmScore := rum.EvalPerApp(rum.Default(), fmRes.Samples)
	if iceScore > 0 {
		res.RUMReduction = 1 - fmScore/iceScore
	}
	return res, nil
}

// evalPolicy runs a fixed sim.Policy over apps with per-app overrides.
// Apps are independent simulations, fanned out under cfg.Workers; every
// policy in this repository is a stateless value, so one instance safely
// serves all goroutines.
func evalPolicy(p sim.Policy, apps []femux.TrainApp, cfg femux.Config) []rum.Sample {
	out := make([]rum.Sample, len(apps))
	parallel.ForEach(parallel.Workers(cfg.Workers), len(apps), func(i int) {
		app := apps[i]
		simCfg := cfg.Sim
		if app.MemoryGB > 0 {
			simCfg.MemoryGB = app.MemoryGB
		}
		if app.UnitConcurrency > 0 {
			simCfg.UnitConcurrency = app.UnitConcurrency
		} else if simCfg.UnitConcurrency < 1 {
			simCfg.UnitConcurrency = 1
		}
		out[i] = sim.SimulateApp(sim.AppTrace{
			Demand:      app.Demand,
			Invocations: app.Invocations,
			ExecSec:     app.ExecSec,
		}, p, simCfg, false).Sample
	})
	return out
}

// String renders the comparison.
func (r Fig11IceBreakerResult) String() string {
	return fmt.Sprintf("icebreaker: KA cost %.0f%% of 10-min KA, service +%.0f%% | femux-mem: KA cost %.0f%%, service +%.0f%% | RUM reduction %.0f%% (paper 42%%)",
		r.IceBreaker.KeepAliveCostRatio*100, r.IceBreaker.ServiceTimeIncrease*100,
		r.FeMuxMem.KeepAliveCostRatio*100, r.FeMuxMem.ServiceTimeIncrease*100,
		r.RUMReduction*100)
}

// Fig11AquatopeResult compares FeMux and Aquatope on Aquatope's metrics.
type Fig11AquatopeResult struct {
	AquatopeColdStarts int
	AquatopeAllocRatio float64 // vs 10-min KA (paper: 2.14x, i.e. +114%)
	FeMuxColdStarts    int
	FeMuxAllocRatio    float64
	RUMReduction       float64 // paper: 78%
	// Overheads.
	AquatopeTrain     time.Duration
	FeMuxTrain        time.Duration
	AquatopeInference time.Duration // per forecast
	FeMuxInference    time.Duration
}

// Fig11Aquatope runs the Aquatope comparison: per-app LSTMs trained on the
// first 7/12 of each test trace (the paper's 7-of-12-days split).
func Fig11Aquatope(train, test []femux.TrainApp, lstmEpochs int) (Fig11AquatopeResult, error) {
	var res Fig11AquatopeResult
	cfg := expConfig(rum.Default())
	model, err := femux.Train(train, cfg)
	if err != nil {
		return res, err
	}
	res.FeMuxTrain = model.Diag.TrainTime

	metric := rum.Default()
	kaSamples := evalPolicy(baselines.KeepAlive10Min(1), test, cfg)
	kaAlloc := rum.Sum(kaSamples).AllocatedGBSec

	// The paper's 7-of-12-days split: each app is evaluated on its suffix.
	evalSuffix := func(app femux.TrainApp) femux.TrainApp {
		split := app.Demand.Len() * 7 / 12
		return femux.TrainApp{
			Demand:      app.Demand.Slice(split, app.Demand.Len()),
			Invocations: tailFloats(app.Invocations, split),
			ExecSec:     app.ExecSec,
			MemoryGB:    app.MemoryGB,
		}
	}
	workers := parallel.Workers(sweepWorkers)

	// Aquatope: train one LSTM per app on its prefix, evaluate on the rest.
	// Per-app training runs are independent (per-app seeds), the dominant
	// cost of this comparison.
	aqSamples := make([]rum.Sample, len(test))
	aqTrainTimes := make([]time.Duration, len(test))
	parallel.ForEach(workers, len(test), func(i int) {
		app := test[i]
		split := app.Demand.Len() * 7 / 12
		aqCfg := baselines.DefaultAquatopeConfig()
		aqCfg.Epochs = lstmEpochs
		aqCfg.Seed = int64(i + 1)
		fc := baselines.TrainAquatope(app.Demand.Values[:split], aqCfg)
		aqTrainTimes[i] = fc.TrainTime
		aqSamples[i] = evalPolicy(sim.ForecastPolicy{Forecaster: fc, Horizon: 1}, []femux.TrainApp{evalSuffix(app)}, cfg)[0]
	})
	var aqTrainTotal time.Duration
	for _, d := range aqTrainTimes {
		aqTrainTotal += d
	}
	res.AquatopeTrain = aqTrainTotal

	// FeMux over the same evaluation suffixes.
	fmSamples := make([]rum.Sample, len(test))
	parallel.ForEach(workers, len(test), func(i int) {
		fmSamples[i] = femux.Evaluate(model, []femux.TrainApp{evalSuffix(test[i])}).Samples[0]
	})

	// KA baseline over the same suffixes for the allocation ratio.
	kaSuffix := make([]rum.Sample, len(test))
	parallel.ForEach(workers, len(test), func(i int) {
		kaSuffix[i] = evalPolicy(baselines.KeepAlive10Min(1), []femux.TrainApp{evalSuffix(test[i])}, cfg)[0]
	})
	kaAlloc = rum.Sum(kaSuffix).AllocatedGBSec

	aqAgg, fmAgg := rum.Sum(aqSamples), rum.Sum(fmSamples)
	res.AquatopeColdStarts = aqAgg.ColdStarts
	res.FeMuxColdStarts = fmAgg.ColdStarts
	if kaAlloc > 0 {
		res.AquatopeAllocRatio = aqAgg.AllocatedGBSec / kaAlloc
		res.FeMuxAllocRatio = fmAgg.AllocatedGBSec / kaAlloc
	}
	aqScore := rum.EvalPerApp(metric, aqSamples)
	fmScore := rum.EvalPerApp(metric, fmSamples)
	if aqScore > 0 {
		res.RUMReduction = 1 - fmScore/aqScore
	}

	// Inference timing: one forecast each over a representative history.
	hist := test[0].Demand.Values
	if len(hist) > 120 {
		hist = hist[:120]
	}
	aqCfg := baselines.DefaultAquatopeConfig()
	aqCfg.Epochs = 1
	aqFc := baselines.TrainAquatope(hist, aqCfg)
	res.AquatopeInference = timeForecast(aqFc, hist)
	res.FeMuxInference = timeForecast(model.DefaultForecaster(), hist)
	return res, nil
}

func tailFloats(xs []float64, from int) []float64 {
	if xs == nil || from >= len(xs) {
		return nil
	}
	return xs[from:]
}

func timeForecast(fc forecast.Forecaster, hist []float64) time.Duration {
	const reps = 20
	start := time.Now()
	for i := 0; i < reps; i++ {
		fc.ForecastInto(hist, 1, nil, nil)
	}
	return time.Since(start) / reps
}

// String renders the comparison.
func (r Fig11AquatopeResult) String() string {
	return fmt.Sprintf("aquatope: cold %d, alloc %.2fx 10-min-KA (paper 2.14x), train %v, infer %v | femux: cold %d, alloc %.2fx, train %v, infer %v | RUM reduction %.0f%% (paper 78%%)",
		r.AquatopeColdStarts, r.AquatopeAllocRatio, r.AquatopeTrain, r.AquatopeInference,
		r.FeMuxColdStarts, r.FeMuxAllocRatio, r.FeMuxTrain, r.FeMuxInference,
		r.RUMReduction*100)
}

// Fig12Result is the multi-tier study: premium apps under FeMux-CS,
// regular apps under default FeMux, versus all-apps single-objective runs.
type Fig12Result struct {
	PremiumApps int
	RegularApps int
	// Premium cold-start seconds under each deployment.
	PremiumCSTiered  float64 // premium on FeMux-CS
	PremiumCSDefault float64 // premium on default FeMux
	// Total wasted memory under the tiered deployment vs all-CS.
	WastedTiered float64
	WastedAllCS  float64
	// Headlines: premium cold-start reduction (paper: 45%) and memory
	// saving of tiering vs all-premium (paper: 35.4%).
	PremiumCSReduction float64
	MemorySaving       float64
}

// Fig12 runs the multi-tier deployment study with 10% premium apps.
func Fig12(train, test []femux.TrainApp) (Fig12Result, error) {
	var res Fig12Result
	def, cs, _, err := trainVariants(train)
	if err != nil {
		return res, err
	}
	nPrem := len(test) / 10
	if nPrem < 1 {
		nPrem = 1
	}
	premium, regular := test[:nPrem], test[nPrem:]
	res.PremiumApps, res.RegularApps = len(premium), len(regular)

	premCS := femux.Evaluate(cs, premium)
	premDef := femux.Evaluate(def, premium)
	regCS := femux.Evaluate(cs, regular)
	regDef := femux.Evaluate(def, regular)

	res.PremiumCSTiered = rum.Sum(premCS.Samples).ColdStartSec
	res.PremiumCSDefault = rum.Sum(premDef.Samples).ColdStartSec
	res.WastedTiered = rum.Sum(premCS.Samples).WastedGBSec + rum.Sum(regDef.Samples).WastedGBSec
	res.WastedAllCS = rum.Sum(premCS.Samples).WastedGBSec + rum.Sum(regCS.Samples).WastedGBSec

	if res.PremiumCSDefault > 0 {
		res.PremiumCSReduction = 1 - res.PremiumCSTiered/res.PremiumCSDefault
	}
	if res.WastedAllCS > 0 {
		res.MemorySaving = 1 - res.WastedTiered/res.WastedAllCS
	}
	return res, nil
}

// String renders the study.
func (r Fig12Result) String() string {
	return fmt.Sprintf("premium %d / regular %d apps: premium cold-start sec %.1f tiered vs %.1f default (%.0f%% cut, paper 45%%); tiered waste %.0f vs all-CS %.0f GB-s (%.0f%% saved, paper 35%%)",
		r.PremiumApps, r.RegularApps, r.PremiumCSTiered, r.PremiumCSDefault, r.PremiumCSReduction*100,
		r.WastedTiered, r.WastedAllCS, r.MemorySaving*100)
}

// S513Result compares default-RUM FeMux against exec-aware FeMux (§5.1.3).
type S513Result struct {
	DefaultCSsec float64
	ExecCSsec    float64
	DefaultWaste float64
	ExecWaste    float64
	// Each model must win under its own metric.
	DefaultRUMDefault, DefaultRUMExec float64 // default model under both metrics
	ExecRUMDefault, ExecRUMExec       float64 // exec model under both metrics
}

// S513 trains FeMux under Eq. (1) and Eq. (2) and cross-scores both.
func S513(train, test []femux.TrainApp) (S513Result, error) {
	var res S513Result
	defModel, err := femux.Train(train, expConfig(rum.Default()))
	if err != nil {
		return res, err
	}
	execCfg := expConfig(rum.DefaultExecAware())
	execCfg.Features = append(append([]string(nil), execCfg.Features...), "exectime")
	execModel, err := femux.Train(train, execCfg)
	if err != nil {
		return res, err
	}
	defSamples := femux.Evaluate(defModel, test).Samples
	execSamples := femux.Evaluate(execModel, test).Samples

	res.DefaultCSsec = rum.Sum(defSamples).ColdStartSec
	res.ExecCSsec = rum.Sum(execSamples).ColdStartSec
	res.DefaultWaste = rum.Sum(defSamples).WastedGBSec
	res.ExecWaste = rum.Sum(execSamples).WastedGBSec
	res.DefaultRUMDefault = rum.EvalPerApp(rum.Default(), defSamples)
	res.DefaultRUMExec = rum.EvalPerApp(rum.DefaultExecAware(), defSamples)
	res.ExecRUMDefault = rum.EvalPerApp(rum.Default(), execSamples)
	res.ExecRUMExec = rum.EvalPerApp(rum.DefaultExecAware(), execSamples)
	return res, nil
}

// String renders the cross-metric comparison.
func (r S513Result) String() string {
	return fmt.Sprintf("default-RUM model: cs %.1fs waste %.0f (rum %.1f / exec-rum %.1f) | exec model: cs %.1fs waste %.0f (rum %.1f / exec-rum %.1f)",
		r.DefaultCSsec, r.DefaultWaste, r.DefaultRUMDefault, r.DefaultRUMExec,
		r.ExecCSsec, r.ExecWaste, r.ExecRUMDefault, r.ExecRUMExec)
}
