package femux

import (
	"github.com/ubc-cirrus-lab/femux-go/internal/features"
	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
	"github.com/ubc-cirrus-lab/femux-go/internal/memo"
	"github.com/ubc-cirrus-lab/femux-go/internal/rum"
	"github.com/ubc-cirrus-lab/femux-go/internal/sim"
)

// Content-addressed memoization of the offline pipeline's pure stages.
//
// Four computations are cached, each under its own key domain:
//
//   - per-(app, forecaster) block RUM samples (training sweep 1). The RUM
//     metric is deliberately NOT part of the key: sweep 1 produces raw
//     accounting samples and the metric is applied in sweep 2, so trainings
//     that differ only in metric (the RUM-variant study), feature set
//     (Fig 18), or classifier (§4.3.4) all share one simulation per pair.
//   - per-block feature vectors (training sweep 2). Extract computes every
//     feature; the Features subset is selected from the cached vector, so
//     ablations share extraction too.
//   - per-app fleet evaluation under a trained K-means model, keyed by a
//     fingerprint of everything the online policy consults (scaler,
//     centroids, assignment table, config). Supervised-classifier models
//     are not fingerprinted and bypass the cache.
//   - per-app evaluation under one fixed forecaster (the Fig 17 baselines).
//
// Every key hashes full value contents — the demand series itself, not the
// app name — so identical traces share entries and changed inputs cannot
// alias stale results. Each cached function is a deterministic pure
// function of its hashed inputs, which is what makes cached runs
// bit-identical to uncached ones (asserted in cache_equiv_test.go).

const (
	domApp          = "femux/app/v1"
	domBlockSamples = "femux/blockSamples/v1"
	domExtract      = "femux/extract/v1"
	domModel        = "femux/model/v1"
	domEvalApp      = "femux/evalApp/v1"
	domEvalSingle   = "femux/evalSingle/v1"
)

// appSimConfig resolves the per-app overrides (memory, container
// concurrency) onto the fleet simulation defaults.
func appSimConfig(app TrainApp, base sim.ConcConfig) sim.ConcConfig {
	if app.MemoryGB > 0 {
		base.MemoryGB = app.MemoryGB
	}
	if app.UnitConcurrency > 0 {
		base.UnitConcurrency = app.UnitConcurrency
	} else if base.UnitConcurrency < 1 {
		base.UnitConcurrency = 1
	}
	return base
}

// hashSimConfig hashes every ConcConfig field (all of them affect
// simulation output).
func hashSimConfig(h *memo.Hasher, c sim.ConcConfig) {
	h.Int(int64(c.Step))
	h.Int(int64(c.UnitConcurrency))
	h.Float(c.MemoryGB)
	h.Float(c.ColdStartSec)
	h.Int(int64(c.MinScale))
	h.Int(int64(c.ScaleLimitThreshold))
	h.Int(int64(c.ScaleLimitPerMinute))
}

// appTraceKey hashes the trace content that determines an app's simulation:
// the demand series, invocation counts, and execution time. The app name is
// deliberately excluded so identical traces share cache entries. The
// memory/concurrency overrides enter separately via the resolved sim
// config.
func appTraceKey(app TrainApp) memo.Key {
	h := memo.NewHasher(domApp)
	h.Int(int64(app.Demand.Step))
	h.Floats(app.Demand.Values)
	h.Bool(app.Invocations != nil)
	h.Floats(app.Invocations)
	h.Float(app.ExecSec)
	return h.Sum()
}

// cachedBlockSamples memoizes sweep 1: one full-series simulation per
// (app, forecaster) pair. appKey is the precomputed appTraceKey (zero when
// the cache is nil — Do then calls straight through).
func cachedBlockSamples(c *memo.Cache, appKey memo.Key, app TrainApp, fc forecast.Forecaster, cfg Config) []rum.Sample {
	if c == nil {
		return blockSamples(app, fc, cfg)
	}
	h := memo.NewHasher(domBlockSamples)
	h.Key(appKey)
	h.String(fc.Name())
	h.Int(int64(cfg.BlockSize))
	h.Int(int64(cfg.Window))
	h.Int(int64(cfg.Horizon))
	hashSimConfig(h, appSimConfig(app, cfg.Sim))
	return memo.Do(c, h.Sum(), func() []rum.Sample {
		return blockSamples(app, fc, cfg)
	})
}

// cachedExtract memoizes sweep 2's per-block feature extraction. The full
// vector is cached and callers Select their subset from it, so trainings
// with different Features share entries. Cached vectors are shared —
// callers must treat them as read-only.
func cachedExtract(c *memo.Cache, ext *features.Extractor, block []float64, execFeat float64) features.Vector {
	if c == nil {
		return ext.Extract(block, execFeat)
	}
	h := memo.NewHasher(domExtract)
	h.Int(features.ARLags)
	h.Int(features.BDSDim)
	h.Int(features.Harmonics)
	h.Floats(block)
	h.Float(execFeat)
	return memo.Do(c, h.Sum(), func() features.Vector {
		return ext.Extract(block, execFeat)
	})
}

// evalFingerprint hashes everything a trained model consults while
// evaluating an app: block/window geometry, feature selection, extractor
// settings, scaler, centroids, and the group->forecaster assignment.
// Forecasters are hashed by name (a name fully determines a forecaster's
// behavior). The RUM metric is excluded: it scores results after
// simulation and never influences the per-app sample. Only K-means models
// are fingerprintable; supervised classifiers report ok=false and their
// evaluations bypass the cache.
func (m *Model) evalFingerprint() (memo.Key, bool) {
	if m.kmeans == nil {
		return memo.Key{}, false
	}
	h := memo.NewHasher(domModel)
	h.Int(int64(m.cfg.BlockSize))
	h.Int(int64(m.cfg.Window))
	h.Int(int64(m.cfg.Horizon))
	h.Strings(m.cfg.Features)
	names := make([]string, len(m.cfg.Forecasters))
	for i, fc := range m.cfg.Forecasters {
		names[i] = fc.Name()
	}
	h.Strings(names)
	h.Int(features.ARLags)
	h.Int(features.BDSDim)
	h.Int(features.Harmonics)
	h.Floats(m.scaler.Mean)
	h.Floats(m.scaler.Scale)
	h.Int(int64(len(m.kmeans.Centroids)))
	for _, c := range m.kmeans.Centroids {
		h.Floats(c)
	}
	h.Strings(m.perGroup)
	h.String(m.defaultFC)
	return h.Sum(), true
}

// evalAppResult is the cached unit of a fleet evaluation: one app's
// aggregate sample plus the switching diagnostic.
type evalAppResult struct {
	Sample rum.Sample
	Used   int // distinct forecasters the app's policy used
}

// cachedEvalApp memoizes one app's simulation under a trained model. fp is
// the model fingerprint from evalFingerprint; fpOK=false (supervised
// classifier) or a nil cache runs the simulation directly. level > 0
// provisions for that forecast quantile; it enters the key only when
// positive, so the quantile axis cannot alias the existing
// point-forecast entries (and vice versa).
func cachedEvalApp(c *memo.Cache, fp memo.Key, fpOK bool, m *Model, app TrainApp, level float64) evalAppResult {
	run := func() evalAppResult {
		p := m.NewAppPolicy(app.ExecSec)
		out := sim.SimulateApp(sim.AppTrace{
			Demand:      app.Demand,
			Invocations: app.Invocations,
			ExecSec:     app.ExecSec,
		}, atLevel{p, level}, appSimConfig(app, m.cfg.Sim), false)
		return evalAppResult{Sample: out.Sample, Used: p.ForecastersUsed()}
	}
	if c == nil || !fpOK {
		return run()
	}
	h := memo.NewHasher(domEvalApp)
	h.Key(fp)
	h.Key(appTraceKey(app))
	hashSimConfig(h, appSimConfig(app, m.cfg.Sim))
	if level > 0 {
		h.String("quantile")
		h.Float(level)
	}
	return memo.Do(c, h.Sum(), run)
}

// cachedEvalSingle memoizes one app's simulation under one fixed
// forecaster (the individual-forecaster baselines).
func cachedEvalSingle(c *memo.Cache, fc forecast.Forecaster, app TrainApp, cfg Config) rum.Sample {
	run := func() rum.Sample {
		p := sim.ForecastPolicy{Forecaster: fc, Window: cfg.Window, Horizon: cfg.Horizon}
		out := sim.SimulateApp(sim.AppTrace{
			Demand:      app.Demand,
			Invocations: app.Invocations,
			ExecSec:     app.ExecSec,
		}, p, appSimConfig(app, cfg.Sim), false)
		return out.Sample
	}
	if c == nil {
		return run()
	}
	h := memo.NewHasher(domEvalSingle)
	h.Key(appTraceKey(app))
	h.String(fc.Name())
	h.Int(int64(cfg.Window))
	h.Int(int64(cfg.Horizon))
	hashSimConfig(h, appSimConfig(app, cfg.Sim))
	return memo.Do(c, h.Sum(), run)
}
