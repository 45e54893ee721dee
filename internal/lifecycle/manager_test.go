package lifecycle

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
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
	swapErr error // SwapModel's answer: when set, nothing is swapped
}

func (f *fakeServing) LifecycleSnapshot(driftThreshold float64) Snapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	return SnapshotFromWindows(f.model, f.windows, testBlock, driftThreshold)
}

func (f *fakeServing) SwapModel(m *femux.Model) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.swapErr != nil {
		return f.swapErr
	}
	f.model = m
	f.swaps++
	return nil
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
	// Registry forecasters only: the restart round trip reloads by name.
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

// TestSwapFailureKeepsLiveModel: a promotion whose swap fails (the
// store could not write the candidate) is a failed cycle: the error is
// reported, nothing is promoted, and the live model serves on.
func TestSwapFailureKeepsLiveModel(t *testing.T) {
	live := trainModel(t, appsFrom(steadyFleet(4)))
	full := errors.New("no space left on device")
	sv := &fakeServing{model: live, windows: driftedFleet(4), swapErr: full}
	m := New(sv, Config{DriftThreshold: 0.5, MinImprove: -100, Seed: 42})
	res := m.RunCycle()
	if res.Outcome != OutcomeFailed || res.Error != full.Error() {
		t.Fatalf("cycle with a failing swap: %+v, want failed with %q", res, full)
	}
	if st := m.Status(); st.Promotions != 0 || st.Retrains != 1 {
		t.Errorf("status after the failed swap: %+v, want 1 retrain and 0 promotions", st)
	}
	if cur, swaps := sv.state(); swaps != 0 || cur != live {
		t.Fatal("a failed swap must leave the live model serving")
	}
}

// TestRetrainAfterRestart: a restarted service serves the model it
// loaded from its stored bytes. The lifecycle retrains from that model's
// Config, so its candidate must be the one a never-restarted manager
// trains on the same snapshot and seed, saved byte for byte.
func TestRetrainAfterRestart(t *testing.T) {
	live := trainModel(t, appsFrom(steadyFleet(4)))
	var stored bytes.Buffer
	if err := live.Save(&stored); err != nil {
		t.Fatal(err)
	}
	restarted, err := femux.Load(bytes.NewReader(stored.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	candidate := func(m *femux.Model) []byte {
		t.Helper()
		sv := &fakeServing{model: m, windows: driftedFleet(4)}
		if res := New(sv, Config{DriftThreshold: 0.5, MinImprove: -100, Seed: 42}).RunCycle(); res.Outcome != OutcomePromoted {
			t.Fatalf("cycle: %+v", res)
		}
		cur, _ := sv.state()
		var b bytes.Buffer
		if err := cur.Save(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	if a, b := candidate(live), candidate(restarted); !bytes.Equal(a, b) {
		t.Fatalf("the candidate after a restart differs from the never-restarted one:\n%s\nvs\n%s", b, a)
	}
}

// TestPromotionKeepsNoCache: a Manager built without a Cache memoizes
// nothing, so the candidate it promotes carries no cache into the next
// cycle. Each cycle's windows are new, so a cache kept across cycles
// only grew, and within one cycle Train and Evaluate compute each stage
// once.
func TestPromotionKeepsNoCache(t *testing.T) {
	sv := &fakeServing{model: trainModel(t, appsFrom(steadyFleet(4))), windows: driftedFleet(4)}
	if res := New(sv, Config{DriftThreshold: 0.5, MinImprove: -100, Seed: 42}).RunCycle(); res.Outcome != OutcomePromoted {
		t.Fatalf("cycle: %+v", res)
	}
	if cur, _ := sv.state(); cur.Config().Cache != nil {
		t.Fatalf("the promoted candidate holds a cache of %d entries", cur.Config().Cache.Len())
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
