package lifecycle

import (
	"sync"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/femux"
	"github.com/ubc-cirrus-lab/femux-go/internal/memo"
	"github.com/ubc-cirrus-lab/femux-go/internal/serving"
	"github.com/ubc-cirrus-lab/femux-go/internal/timeseries"
)

// AppWindow is one app's recent observation window, as handed to the
// retrainer by the serving instance.
type AppWindow struct {
	Name   string
	Window []float64
}

// Snapshot is everything one retrain cycle reads from the serving
// instance, captured at cycle start so the cycle's decision is a pure
// function of it (plus the manager's seed).
type Snapshot struct {
	// Model is the currently-serving model; its config seeds the
	// candidate's (same geometry, forecasters, metric).
	Model *femux.Model
	// Apps holds the fleet's observation windows, sorted by name so
	// training input order — and with it the candidate model — is
	// deterministic.
	Apps []AppWindow
	// MaxDrift/Drifted/Tracked summarize per-app drift across Apps'
	// windows: the largest score, how many apps sit at or above the
	// caller's threshold, and how many were examined.
	MaxDrift float64
	Drifted  int
	Tracked  int
}

// Serving is the slice of the serving instance the lifecycle drives.
// *knative.Service implements it; tests and the offline regime-change
// study substitute their own.
type Serving interface {
	// LifecycleSnapshot captures the retrain inputs; driftThreshold
	// feeds the Drifted count.
	LifecycleSnapshot(driftThreshold float64) Snapshot
	// SwapModel atomically replaces the serving model, or, on an error,
	// leaves the live model as it is.
	SwapModel(*femux.Model) error
}

// Config tunes the retrain lifecycle.
type Config struct {
	// RetrainEvery is the background cycle period for Start. RunCycle
	// ignores it — tests and the admin endpoint trigger cycles directly.
	RetrainEvery time.Duration
	// DriftThreshold gates retraining: a cycle proceeds only when some
	// app's drift score reaches it. 0 retrains every cycle.
	DriftThreshold float64
	// ShadowWindow bounds how many trailing observations per app feed
	// retraining and shadow evaluation. 0 uses each app's whole window.
	ShadowWindow int
	// MinImprove is the fractional shadow-RUM improvement required to
	// promote: candidate RUM must be <= live RUM * (1 - MinImprove).
	// Negative values promote even slightly-worse candidates (useful in
	// smoke tests, dangerous in production).
	MinImprove float64
	// Workers is the candidate training parallelism (0 = one per CPU).
	Workers int
	// Seed seeds candidate training; for a fixed seed and snapshot the
	// promotion decision is bit-repeatable. 0 means seed 1.
	Seed int64
	// Cache, when set, memoizes per-app training and evaluation work, so
	// an app whose window did not change since a cycle that used the same
	// cache is a hit. nil caches nothing: in a server every cycle's
	// windows are new, so a cache kept across cycles only grows. The
	// offline drift study shares its process-wide cache this way.
	Cache *memo.Cache
	// Logf, when set, receives one line per non-idle cycle.
	Logf func(format string, args ...interface{})
}

// Outcome classifies one retrain cycle.
type Outcome string

const (
	// OutcomeNoData: the snapshot had no app windows to train on.
	OutcomeNoData Outcome = "no-data"
	// OutcomeIdle: max drift below the threshold; nothing retrained.
	OutcomeIdle Outcome = "idle"
	// OutcomeFailed: retraining, evaluation or the promotion's swap
	// errored; the live model is untouched.
	OutcomeFailed Outcome = "failed"
	// OutcomeKept: the candidate did not beat the live model by
	// MinImprove on the shadow windows; the live model is kept.
	OutcomeKept Outcome = "kept"
	// OutcomePromoted: the candidate won shadow evaluation and was
	// swapped in.
	OutcomePromoted Outcome = "promoted"
)

// CycleResult reports one retrain cycle's decision and its inputs.
type CycleResult struct {
	Outcome  Outcome `json:"outcome"`
	MaxDrift float64 `json:"maxDrift"`
	Drifted  int     `json:"driftedApps"`
	Tracked  int     `json:"trackedApps"`
	Apps     int     `json:"apps"` // windows fed to the retrainer
	LiveRUM  float64 `json:"liveRUM,omitempty"`
	CandRUM  float64 `json:"candidateRUM,omitempty"`
	TrainMs  int64   `json:"trainMs,omitempty"`
	Error    string  `json:"error,omitempty"`
}

// Status is the /v1/admin/lifecycle view: lifetime counters plus the
// last cycle's result.
type Status struct {
	Running    bool        `json:"running"`
	Cycles     int         `json:"cycles"`
	Retrains   int         `json:"retrains"`
	Promotions int         `json:"promotions"`
	Last       CycleResult `json:"last"`
}

// Manager runs the retrain lifecycle against a serving instance. The
// trigger is injectable by construction: RunCycle is the whole cycle,
// synchronous and sleep-free, and Start merely calls it on a ticker.
type Manager struct {
	cfg Config
	sv  Serving

	// runMu serializes cycles (ticker vs admin POST): the newest snapshot
	// wins, overlapping retrains would just duplicate the work.
	runMu sync.Mutex

	mu     sync.Mutex
	status Status

	metrics *Metrics

	stop chan struct{}
	done chan struct{}
}

// Metrics are the lifecycle's metric families.
type Metrics struct {
	Cycles     *serving.Counter // femux_lifecycle_cycles_total{outcome}
	Retrains   *serving.Counter // femux_lifecycle_retrains_total
	Promotions *serving.Counter // femux_lifecycle_promotions_total
	Drift      *serving.Gauge   // femux_drift_score
}

// New returns a Manager driving sv under cfg.
func New(sv Serving, cfg Config) *Manager {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &Manager{cfg: cfg, sv: sv}
}

// InstrumentWith registers the lifecycle metric families on reg. Call
// once, before Start.
func (m *Manager) InstrumentWith(reg *serving.Registry) *Metrics {
	lm := &Metrics{
		Cycles: reg.NewCounter("femux_lifecycle_cycles_total",
			"Retrain cycles run, by outcome.", "outcome"),
		Retrains: reg.NewCounter("femux_lifecycle_retrains_total",
			"Candidate models trained by the lifecycle."),
		Promotions: reg.NewCounter("femux_lifecycle_promotions_total",
			"Candidate models auto-promoted after winning shadow evaluation."),
		Drift: reg.NewGauge("femux_drift_score",
			"Largest per-app drift score the last retrain cycle saw."),
	}
	m.mu.Lock()
	m.metrics = lm
	m.mu.Unlock()
	return lm
}

// Status returns the lifecycle status snapshot.
func (m *Manager) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.status
	st.Running = m.stop != nil
	return st
}

// Start runs RunCycle every cfg.RetrainEvery until Stop. No-op when the
// period is zero (lifecycle disabled) or already started.
func (m *Manager) Start() {
	if m.cfg.RetrainEvery <= 0 {
		return
	}
	m.mu.Lock()
	if m.stop != nil {
		m.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	m.stop, m.done = stop, done
	m.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(m.cfg.RetrainEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				m.RunCycle()
			}
		}
	}()
}

// Stop halts the background trigger and waits for an in-flight cycle.
func (m *Manager) Stop() {
	m.mu.Lock()
	stop, done := m.stop, m.done
	m.stop, m.done = nil, nil
	m.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
	// A cycle the ticker fired just before Stop may still be running;
	// taking runMu (and releasing it immediately) waits it out.
	m.runMu.Lock()
	defer m.runMu.Unlock()
}

// RunCycle runs one full drift -> retrain -> shadow -> promote cycle,
// synchronously. It is the injectable trigger: production calls it from
// a ticker, the admin endpoint calls it on POST, and tests step it
// directly — the decision depends only on the snapshot and the seed.
func (m *Manager) RunCycle() CycleResult {
	m.runMu.Lock()
	defer m.runMu.Unlock()

	snap := m.sv.LifecycleSnapshot(m.cfg.DriftThreshold)
	res := CycleResult{
		MaxDrift: snap.MaxDrift, Drifted: snap.Drifted, Tracked: snap.Tracked,
	}
	switch {
	case len(snap.Apps) == 0:
		res.Outcome = OutcomeNoData
	case snap.MaxDrift < m.cfg.DriftThreshold:
		res.Outcome = OutcomeIdle
	default:
		m.retrainShadowPromote(snap, &res)
	}
	m.record(res)
	return res
}

// retrainShadowPromote trains a candidate on the snapshot's shadow
// windows, replays the same windows through candidate and live model,
// and promotes the candidate when it wins by the configured margin.
func (m *Manager) retrainShadowPromote(snap Snapshot, res *CycleResult) {
	apps := shadowApps(snap.Apps, m.cfg.ShadowWindow)
	res.Apps = len(apps)

	// The candidate inherits the live model's geometry, forecaster set,
	// and metric; only the training data (recent windows), seed, and
	// cache differ.
	cfg := snap.Model.Config()
	cfg.Seed = m.cfg.Seed
	cfg.Cache = m.cfg.Cache
	if m.cfg.Workers != 0 {
		cfg.Workers = m.cfg.Workers
	}
	start := time.Now()
	candidate, err := femux.Train(apps, cfg)
	res.TrainMs = time.Since(start).Milliseconds()
	if err != nil {
		res.Outcome = OutcomeFailed
		res.Error = err.Error()
		return
	}

	// Shadow evaluation: both models replay the identical recent windows
	// through the concurrency simulator; nothing touches live serving.
	res.LiveRUM = femux.Evaluate(snap.Model, apps).RUM
	res.CandRUM = femux.Evaluate(candidate, apps).RUM

	if res.CandRUM > res.LiveRUM*(1-m.cfg.MinImprove) {
		res.Outcome = OutcomeKept
		return
	}
	if err := m.sv.SwapModel(candidate); err != nil {
		res.Outcome = OutcomeFailed
		res.Error = err.Error()
		return
	}
	res.Outcome = OutcomePromoted
}

// record folds one cycle result into the status and metrics.
func (m *Manager) record(res CycleResult) {
	m.mu.Lock()
	m.status.Cycles++
	m.status.Last = res
	switch res.Outcome {
	case OutcomePromoted:
		m.status.Retrains++
		m.status.Promotions++
	case OutcomeKept, OutcomeFailed:
		m.status.Retrains++
	}
	lm := m.metrics
	logf := m.cfg.Logf
	m.mu.Unlock()
	if lm != nil {
		lm.Drift.Set(res.MaxDrift)
		lm.Cycles.Inc(string(res.Outcome))
		switch res.Outcome {
		case OutcomePromoted:
			lm.Retrains.Inc()
			lm.Promotions.Inc()
		case OutcomeKept, OutcomeFailed:
			lm.Retrains.Inc()
		}
	}
	if logf != nil && res.Outcome != OutcomeIdle && res.Outcome != OutcomeNoData {
		logf("lifecycle: %s (maxDrift %.3f, %d apps, live RUM %.4f, candidate RUM %.4f)%s",
			res.Outcome, res.MaxDrift, res.Apps, res.LiveRUM, res.CandRUM,
			errSuffix(res.Error))
	}
}

func errSuffix(e string) string {
	if e == "" {
		return ""
	}
	return ": " + e
}

// shadowApps converts snapshot windows into training apps, keeping only
// the trailing shadowWindow observations of each (0 = all). Windows come
// in sorted by name, so the training input — and the candidate — is
// deterministic.
func shadowApps(windows []AppWindow, shadowWindow int) []femux.TrainApp {
	apps := make([]femux.TrainApp, 0, len(windows))
	for _, w := range windows {
		vals := w.Window
		if shadowWindow > 0 && len(vals) > shadowWindow {
			vals = vals[len(vals)-shadowWindow:]
		}
		if len(vals) == 0 {
			continue
		}
		apps = append(apps, femux.TrainApp{
			Name:   w.Name,
			Demand: timeseries.New(time.Minute, vals),
		})
	}
	return apps
}

// SnapshotFromWindows builds a Snapshot from windows, scoring each one's
// drift with DetectorOf. It is the one drift path: the serving instance's
// LifecycleSnapshot and the offline regime-change study both call it.
func SnapshotFromWindows(model *femux.Model, windows []AppWindow, blockSize int, driftThreshold float64) Snapshot {
	snap := Snapshot{Model: model, Apps: windows}
	for _, w := range windows {
		d := DetectorOf(w.Window, blockSize)
		sc := d.Score()
		snap.Tracked++
		if sc > snap.MaxDrift {
			snap.MaxDrift = sc
		}
		if driftThreshold > 0 && sc >= driftThreshold {
			snap.Drifted++
		}
	}
	return snap
}
