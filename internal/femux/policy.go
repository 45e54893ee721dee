package femux

import (
	"math/bits"
	"sync"

	"github.com/ubc-cirrus-lab/femux-go/internal/features"
	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
	"github.com/ubc-cirrus-lab/femux-go/internal/parallel"
	"github.com/ubc-cirrus-lab/femux-go/internal/rum"
	"github.com/ubc-cirrus-lab/femux-go/internal/sim"
)

// AppPolicy is the online, per-application FeMux instance: it tracks block
// completion, re-classifies on each completed block, and forecasts with the
// currently assigned forecaster. One AppPolicy serves exactly one
// application (matching the paper's one-thread-per-app deployment, §5.2);
// it implements sim.Policy for simulator integration and is safe for
// concurrent use.
type AppPolicy struct {
	model   *Model
	execSec float64

	mu         sync.Mutex
	cur, group int // the forecaster in use, as an index into cfg.Forecasters; its cluster group
	blocksSeen int
	switches   int
	used       uint64 // bit i: cfg.Forecasters[i] has been current
}

// maxForecasters is the width of AppPolicy.used (the default zoo holds 13).
const maxForecasters = 64

// NewAppPolicy returns a FeMux policy for one application. execSec supplies
// the execution-time feature when the model was trained with it.
func (m *Model) NewAppPolicy(execSec float64) *AppPolicy {
	i := m.forecasterOf(-1)
	return &AppPolicy{model: m, execSec: execSec, cur: i, used: 1 << i}
}

// ResumeAppPolicy rebuilds the policy of an app whose n-observation
// history had its last completed block classified into group — the state
// NewAppPolicy reaches after its first call on that history — without
// extracting features. resumed is false if no block had completed.
func (m *Model) ResumeAppPolicy(execSec float64, n, group int) (p *AppPolicy, resumed bool) {
	p = m.NewAppPolicy(execSec)
	if completed := n / m.cfg.BlockSize; completed > 0 {
		p.assign(group, completed)
		return p, true
	}
	return p, false
}

// Classified returns the cluster group behind the current forecaster and
// whether p is up to date for an n-observation history: the next call on
// it extracts nothing, and ResumeAppPolicy(execSec, n, group) rebuilds p.
func (p *AppPolicy) Classified(n int) (group int, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.group, n/p.model.cfg.BlockSize == p.blocksSeen
}

// assign installs the forecaster of a newly classified block. Caller
// holds p.mu (or owns p exclusively).
func (p *AppPolicy) assign(group, completed int) {
	i := p.model.forecasterOf(group)
	if i != p.cur {
		p.switches++
	}
	p.cur, p.group, p.blocksSeen = i, group, completed
	p.used |= 1 << i
}

// Name implements sim.Policy.
func (p *AppPolicy) Name() string { return "femux-" + p.model.cfg.Metric.Name() }

// Target implements sim.Policy: it re-classifies when a new block has
// completed, then provisions for the peak of the assigned forecaster's
// point forecast over the horizon. The workspace (not the policy) carries
// all forecast scratch state, so concurrent calls remain safe as long as
// each caller supplies its own workspace.
func (p *AppPolicy) Target(history []float64, unitConcurrency int, ws *forecast.Workspace) int {
	return p.TargetQuantilesWS(history, unitConcurrency, 0, ws)
}

// TargetQuantilesWS is Target provisioning for the level-quantile of the
// forecast instead of its point peak (see Decide). Level <= 0 is Target.
func (p *AppPolicy) TargetQuantilesWS(history []float64, unitConcurrency int, level float64, ws *forecast.Workspace) int {
	target, _, _ := p.Decide(history, len(history), unitConcurrency, level, ws)
	return target
}

// Reads reports how many of the latest values of an n-observation
// history p's next call reads, k: everything from the start of a due
// block and the window, or else the lookback of the current forecaster
// (forecast.Lookback). The serving calls that take (view, n) need only
// view = history[n-k:]. No block is due before the history holds due
// values.
func (p *AppPolicy) Reads(n int) (k, lookback, due int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	bs, w := p.model.cfg.BlockSize, p.model.cfg.Window
	lookback = forecast.Lookback(p.model.cfg.Forecasters[p.cur], w)
	if k = min(n, lookback); n/bs > p.blocksSeen {
		k = min(n, max(w, bs+n%bs))
	}
	return k, lookback, (p.blocksSeen + 1) * bs
}

// RingTail copies into dst, oldest first, the last len(dst) <= min(n,
// len(ring)) values of an n-value history kept with value i in
// ring[i % len(ring)], and returns it.
func RingTail(ring []float64, n int, dst []float64) []float64 {
	start := (n - len(dst)) % len(ring)
	c := copy(dst, ring[start:])
	copy(dst[c:], ring[:start])
	return dst
}

// RingFill keeps in ring the last min(len(view), len(ring)) values of
// view, the end of an n-value history, each at its slot.
func RingFill(ring []float64, n int, view []float64) {
	view = view[len(view)-min(len(view), len(ring)):]
	start := (n - len(view)) % len(ring)
	c := copy(ring[start:], view)
	copy(ring, view[c:])
}

// Model returns the model p serves.
func (p *AppPolicy) Model() *Model { return p.model }

// Decide is one observation's whole policy step, the call the serving
// paths make: it re-classifies when a new block has completed, then
// returns the target of the assigned forecaster's sim.ForecastPolicy over
// the model's window and horizon, with no headroom and at the given
// quantile level (0: the point forecast), the name of that forecaster,
// and whether this call extracted features — all from one hold of the
// policy lock. tail holds at least the last Reads(n) values of the app's
// n-observation history; a shorter one (a capped store that no longer
// holds a due block) leaves the block unclassified, to be tried again on
// the next call.
func (p *AppPolicy) Decide(tail []float64, n, unitConcurrency int, level float64, ws *forecast.Workspace) (target int, forecaster string, extracted bool) {
	cur, extracted := p.currentFor(tail, n)
	cfg := &p.model.cfg
	target = sim.ForecastPolicy{Forecaster: cfg.Forecasters[cur], Window: cfg.Window, Horizon: cfg.Horizon, Level: level}.
		Target(tail, unitConcurrency, ws)
	return target, p.model.fcNames[cur], extracted
}

// currentFor re-classifies when a new block has completed and returns
// the forecaster assigned to this app right now, as an index into
// cfg.Forecasters, and whether it extracted features to get there — the
// shared front half of every Target and Forecast variant. tail ends an
// n-observation history (see Decide); n = 0 completes no block, so it
// only reads. An extraction runs in an Extractor of its own, garbage when
// the call returns: a block completes once per BlockSize observations, so
// no scratch is kept between them.
func (p *AppPolicy) currentFor(tail []float64, n int) (cur int, extracted bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	bs := p.model.cfg.BlockSize
	completed := n / bs
	start := (completed-1)*bs - (n - len(tail)) // the block's offset in tail
	if extracted = completed > p.blocksSeen && start >= 0; extracted {
		execFeat := 0.0
		if hasExecFeature(p.model.cfg.Features) {
			execFeat = p.execSec
		}
		vec := features.NewExtractor().Extract(tail[start:start+bs], execFeat)
		p.assign(p.model.Classify(vec), completed)
	}
	return p.cur, extracted
}

// ForecastWS predicts the next horizon intervals with the currently
// assigned forecaster over the windowed history, into dst with scratch
// state in ws; both may be nil.
func (p *AppPolicy) ForecastWS(history []float64, horizon int, dst []float64, ws *forecast.Workspace) []float64 {
	return p.ForecastTail(history, len(history), horizon, dst, ws)
}

// ForecastTail is ForecastWS over the tail of an n-observation history
// (see Decide), the serving path behind /v1/forecast.
func (p *AppPolicy) ForecastTail(tail []float64, n, horizon int, dst []float64, ws *forecast.Workspace) []float64 {
	cur, _ := p.currentFor(tail, n)
	return p.model.cfg.Forecasters[cur].ForecastInto(tail[len(tail)-min(p.model.cfg.Window, len(tail)):], horizon, dst, ws)
}

// ForecastQuantilesTail emits level-major quantile curves
// (len(levels)*horizon values, dst[q*horizon+t]) from the currently
// assigned forecaster over the windowed tail of an n-observation history
// (see Decide) — the serving path behind /v1/forecast?quantiles=. dst and
// ws may be nil.
func (p *AppPolicy) ForecastQuantilesTail(tail []float64, n, horizon int, levels, dst []float64, ws *forecast.Workspace) []float64 {
	cur, _ := p.currentFor(tail, n)
	return p.model.cfg.Forecasters[cur].ForecastQuantilesInto(tail[len(tail)-min(p.model.cfg.Window, len(tail)):], horizon, levels, dst, ws)
}

// CurrentForecaster returns the name of the forecaster in use.
func (p *AppPolicy) CurrentForecaster() string {
	cur, _ := p.currentFor(nil, 0)
	return p.model.fcNames[cur]
}

// Switches returns how many times the policy changed forecasters.
func (p *AppPolicy) Switches() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.switches
}

// ForecastersUsed returns the distinct forecasters this app has used.
func (p *AppPolicy) ForecastersUsed() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return bits.OnesCount64(p.used)
}

// EvalResult aggregates a fleet evaluation.
type EvalResult struct {
	Samples []rum.Sample // per app, input order
	RUM     float64      // per-app sum under the model's metric
	// Switching diagnostics (Fig 17).
	AppsSwitched     int // apps that used more than one forecaster
	AppsManySwitched int // apps that used four or more forecasters
}

// Evaluate runs the trained model over test apps through the concurrency
// simulator and scores the result under the model's metric. Apps are
// simulated concurrently (bounded by the model's Workers setting); each
// app's simulation is independent, so results match the serial order. When
// the model's config carries a cache, per-app simulations are memoized
// under a fingerprint of the trained model (see cache.go).
func Evaluate(m *Model, apps []TrainApp) EvalResult {
	return EvaluateQuantile(m, apps, 0)
}

// EvaluateQuantile is Evaluate with the pod-conversion policy
// provisioning for the given forecast quantile level instead of the
// point forecast (the RUM sweep behind the cold-start-vs-waste
// frontier). A level <= 0 reproduces Evaluate exactly, including its
// cache keys.
func EvaluateQuantile(m *Model, apps []TrainApp, level float64) EvalResult {
	res := EvalResult{Samples: make([]rum.Sample, len(apps))}
	used := make([]int, len(apps))
	fp, fpOK := m.evalFingerprint()
	parallel.ForEach(parallel.Workers(m.cfg.Workers), len(apps), func(i int) {
		out := cachedEvalApp(m.cfg.Cache, fp, fpOK, m, apps[i], level)
		res.Samples[i] = out.Sample
		used[i] = out.Used
	})
	for _, u := range used {
		if u > 1 {
			res.AppsSwitched++
		}
		if u >= 4 {
			res.AppsManySwitched++
		}
	}
	res.RUM = rum.EvalPerApp(m.cfg.Metric, res.Samples)
	return res
}

// atLevel is an AppPolicy that provisions at a fixed quantile level
// (Decide's level; 0 is the point forecast).
type atLevel struct {
	*AppPolicy
	level float64
}

// Target implements sim.Policy.
func (a atLevel) Target(history []float64, unitConcurrency int, ws *forecast.Workspace) int {
	return a.TargetQuantilesWS(history, unitConcurrency, a.level, ws)
}

// EvaluateSingle runs one fixed forecaster over the same apps, for the
// FeMux-vs-individual-forecasters study (Fig 17). Like Evaluate, apps are
// simulated concurrently under cfg.Workers and per-app results are
// memoized through cfg.Cache.
func EvaluateSingle(fc forecast.Forecaster, apps []TrainApp, cfg Config) EvalResult {
	res := EvalResult{Samples: make([]rum.Sample, len(apps))}
	parallel.ForEach(parallel.Workers(cfg.Workers), len(apps), func(i int) {
		res.Samples[i] = cachedEvalSingle(cfg.Cache, fc, apps[i], cfg)
	})
	res.RUM = rum.EvalPerApp(cfg.Metric, res.Samples)
	return res
}

// OneStepMAE computes the mean absolute error of one-step-ahead forecasts
// over a series, the statistical accuracy metric contrasted with RUM in
// §4.2.1. window bounds the forecaster's input.
func OneStepMAE(series []float64, fc forecast.Forecaster, window, warmup int) float64 {
	if warmup < 1 {
		warmup = 1
	}
	if warmup >= len(series) {
		return 0
	}
	var sum float64
	var n int
	ws := forecast.NewWorkspace()
	for t := warmup; t < len(series); t++ {
		lo := t - window
		if lo < 0 {
			lo = 0
		}
		pred := fc.ForecastInto(series[lo:t], 1, ws.Out(1), ws)[0]
		d := pred - series[t]
		if d < 0 {
			d = -d
		}
		sum += d
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
