package lifecycle

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/femux"
	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
	"github.com/ubc-cirrus-lab/femux-go/internal/rum"
	"github.com/ubc-cirrus-lab/femux-go/internal/timeseries"
)

const testBlock = 30

// fakeServing is the injectable serving instance: the manager's whole
// contract is the Serving interface, so tests drive retrain -> shadow ->
// promote cycles with no HTTP, no clock, and no sleeps.
type fakeServing struct {
	mu      sync.Mutex
	model   *femux.Model
	windows []AppWindow
	swaps   int
}

func (f *fakeServing) LifecycleSnapshot(driftThreshold float64) Snapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	return SnapshotFromWindows(f.model, f.windows, testBlock, driftThreshold)
}

func (f *fakeServing) SwapModel(m *femux.Model) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.model = m
	f.swaps++
}

func (f *fakeServing) state() (*femux.Model, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.model, f.swaps
}

// regimeA is smooth, periodic, low-level demand; regimeB is bursty
// demand an order of magnitude hotter. A fleet that switches from A to B
// mid-window is the drift scenario.
func regimeA(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, n)
	for t := range vals {
		vals[t] = 2 + math.Sin(2*math.Pi*float64(t)/60) + 0.05*rng.Float64()
	}
	return vals
}

func regimeB(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, n)
	for t := range vals {
		if t%6 < 2 {
			vals[t] = 25 + 5*rng.Float64()
		}
	}
	return vals
}

func trainModel(t testing.TB, apps []femux.TrainApp) *femux.Model {
	t.Helper()
	cfg := femux.DefaultConfig(rum.Default())
	cfg.BlockSize = testBlock
	cfg.Window = 30
	cfg.K = 3
	// Registry forecasters only: the SaveTo round trip reloads by name.
	cfg.Forecasters = []forecast.Forecaster{
		forecast.NewFFT(10), forecast.NewExpSmoothing(), forecast.NewCeilPeak(10),
	}
	m, err := femux.Train(apps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func appsFrom(windows []AppWindow) []femux.TrainApp {
	apps := make([]femux.TrainApp, len(windows))
	for i, w := range windows {
		apps[i] = femux.TrainApp{Name: w.Name, Demand: timeseries.New(time.Minute, w.Window)}
	}
	return apps
}

// steadyFleet: every app still follows the training regime (no drift).
func steadyFleet(n int) []AppWindow {
	ws := make([]AppWindow, n)
	for i := range ws {
		ws[i] = AppWindow{Name: string(rune('a' + i)), Window: regimeA(120, int64(i+1))}
	}
	return ws
}

// driftedFleet: every app ran regime A, then switched to regime B.
func driftedFleet(n int) []AppWindow {
	ws := make([]AppWindow, n)
	for i := range ws {
		w := append(regimeA(120, int64(i+1)), regimeB(120, int64(i+100))...)
		ws[i] = AppWindow{Name: string(rune('a' + i)), Window: w}
	}
	return ws
}

// TestRunCycleOutcomes walks the manager through every outcome with the
// injectable trigger — no ticker, no sleeps.
func TestRunCycleOutcomes(t *testing.T) {
	live := trainModel(t, appsFrom(steadyFleet(4)))

	// No windows at all -> no-data.
	sv := &fakeServing{model: live}
	m := New(sv, Config{Seed: 42})
	if res := m.RunCycle(); res.Outcome != OutcomeNoData {
		t.Fatalf("empty fleet: outcome %q, want %q", res.Outcome, OutcomeNoData)
	}

	// Stationary fleet under a real threshold -> idle, nothing trained.
	sv = &fakeServing{model: live, windows: steadyFleet(4)}
	m = New(sv, Config{DriftThreshold: 0.5, Seed: 42})
	res := m.RunCycle()
	if res.Outcome != OutcomeIdle {
		t.Fatalf("steady fleet: outcome %q (maxDrift %v), want %q", res.Outcome, res.MaxDrift, OutcomeIdle)
	}
	if _, swaps := sv.state(); swaps != 0 {
		t.Fatal("idle cycle must not swap the model")
	}

	// Drifted fleet -> retrain, shadow, promote (the improvement gate is
	// opened wide so the flow itself is what's under test).
	sv = &fakeServing{model: live, windows: driftedFleet(4)}
	m = New(sv, Config{DriftThreshold: 0.5, MinImprove: -100, Seed: 42})
	res = m.RunCycle()
	if res.Outcome != OutcomePromoted {
		t.Fatalf("drifted fleet: outcome %q (err %q), want %q", res.Outcome, res.Error, OutcomePromoted)
	}
	if res.MaxDrift < 0.5 {
		t.Errorf("drifted fleet reported maxDrift %v, want >= 0.5", res.MaxDrift)
	}
	cur, swaps := sv.state()
	if swaps != 1 || cur == live {
		t.Fatalf("promotion must swap in the candidate (swaps=%d)", swaps)
	}
	st := m.Status()
	if st.Cycles != 1 || st.Retrains != 1 || st.Promotions != 1 {
		t.Errorf("status after promotion: %+v", st)
	}

	// An impossible improvement bar -> candidate trained but kept out.
	sv = &fakeServing{model: live, windows: driftedFleet(4)}
	m = New(sv, Config{DriftThreshold: 0.5, MinImprove: 0.999999, Seed: 42})
	res = m.RunCycle()
	if res.Outcome != OutcomeKept {
		t.Fatalf("high bar: outcome %q, want %q", res.Outcome, OutcomeKept)
	}
	if res.LiveRUM <= 0 {
		t.Errorf("shadow evaluation reported live RUM %v, want > 0 on a bursty fleet", res.LiveRUM)
	}
	if _, swaps := sv.state(); swaps != 0 {
		t.Fatal("kept cycle must not swap the model")
	}
}

// TestPromotionBitRepeatable pins determinism: two managers over the same
// snapshot and seed produce bitwise-identical shadow RUMs and the same
// decision.
func TestPromotionBitRepeatable(t *testing.T) {
	live := trainModel(t, appsFrom(steadyFleet(4)))
	run := func() CycleResult {
		sv := &fakeServing{model: live, windows: driftedFleet(4)}
		m := New(sv, Config{DriftThreshold: 0.5, MinImprove: -100, Seed: 1234})
		return m.RunCycle()
	}
	a, b := run(), run()
	a.TrainMs, b.TrainMs = 0, 0 // wall-clock, legitimately differs
	if a != b {
		t.Fatalf("cycle results differ for a fixed seed:\n%+v\n%+v", a, b)
	}
	if math.Float64bits(a.LiveRUM) != math.Float64bits(b.LiveRUM) ||
		math.Float64bits(a.CandRUM) != math.Float64bits(b.CandRUM) {
		t.Fatalf("shadow RUMs not bit-identical: % x/% x vs % x/% x",
			a.LiveRUM, a.CandRUM, b.LiveRUM, b.CandRUM)
	}
}

// TestPromoteSaveTo checks the fleet-propagation half of promotion: the
// winning candidate is written (atomically) where -watch-model followers
// poll, and the file round-trips through the model loader.
func TestPromoteSaveTo(t *testing.T) {
	live := trainModel(t, appsFrom(steadyFleet(4)))
	path := filepath.Join(t.TempDir(), "model.json")
	sv := &fakeServing{model: live, windows: driftedFleet(4)}
	m := New(sv, Config{DriftThreshold: 0.5, MinImprove: -100, Seed: 42, SaveTo: path})
	res := m.RunCycle()
	if res.Outcome != OutcomePromoted || res.Error != "" {
		t.Fatalf("cycle: %+v", res)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("promoted model not saved: %v", err)
	}
	defer f.Close()
	loaded, err := femux.Load(f)
	if err != nil {
		t.Fatalf("saved model does not load: %v", err)
	}
	cur, _ := sv.state()
	if loaded.DefaultForecaster().Name() != cur.DefaultForecaster().Name() {
		t.Errorf("saved model default %q != promoted %q",
			loaded.DefaultForecaster().Name(), cur.DefaultForecaster().Name())
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left behind: %v", err)
	}
}

// TestShadowWindowTrims checks the recency bound: with ShadowWindow set,
// retraining sees only each app's trailing observations.
func TestShadowWindowTrims(t *testing.T) {
	windows := []AppWindow{
		{Name: "a", Window: make([]float64, 500)},
		{Name: "b", Window: make([]float64, 40)},
		{Name: "empty"},
	}
	apps := shadowApps(windows, 120)
	if len(apps) != 2 {
		t.Fatalf("got %d apps, want 2 (empty window dropped)", len(apps))
	}
	if n := len(apps[0].Demand.Values); n != 120 {
		t.Errorf("app a trimmed to %d observations, want 120", n)
	}
	if n := len(apps[1].Demand.Values); n != 40 {
		t.Errorf("app b trimmed to %d observations, want 40 (shorter than the window)", n)
	}
}

// TestStartStop smokes the background trigger without depending on the
// ticker firing: Start flips Running, Stop blocks until the loop exits.
func TestStartStop(t *testing.T) {
	live := trainModel(t, appsFrom(steadyFleet(2)))
	m := New(&fakeServing{model: live}, Config{RetrainEvery: time.Hour})
	m.Start()
	if !m.Status().Running {
		t.Fatal("Start did not mark the manager running")
	}
	m.Start() // second Start is a no-op, not a second goroutine
	m.Stop()
	if m.Status().Running {
		t.Fatal("Stop did not mark the manager stopped")
	}
	m.Stop() // idempotent
}

// TestTrainFailureIsContained: a fleet whose windows cannot complete one
// block fails the retrain; the cycle reports it and the model survives.
func TestTrainFailureIsContained(t *testing.T) {
	live := trainModel(t, appsFrom(steadyFleet(4)))
	short := []AppWindow{{Name: "a", Window: regimeB(10, 1)}} // < one block
	sv := &fakeServing{model: live, windows: short}
	m := New(sv, Config{DriftThreshold: 0, MinImprove: -100, Seed: 42})
	res := m.RunCycle()
	if res.Outcome != OutcomeFailed || res.Error == "" {
		t.Fatalf("short-window cycle: %+v, want failed with an error", res)
	}
	if cur, swaps := sv.state(); swaps != 0 || cur != live {
		t.Fatal("failed retrain must leave the live model untouched")
	}
}
