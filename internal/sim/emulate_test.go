package sim

import (
	"math"
	"testing"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/trace"
)

func TestAutoscalerScalesUpOnLoad(t *testing.T) {
	a := newKPA(10)
	now := time.Duration(0)
	for i := 0; i < 30; i++ {
		now += 2 * time.Second
		a.observe(now, 35) // sustained concurrency 35, CC=10 -> 4 pods
	}
	if got := a.desired(now, 1, 0); got != 4 {
		t.Errorf("desired = %d, want 4", got)
	}
}

func TestAutoscalerStableWindowSmoothsSpikes(t *testing.T) {
	a := newKPA(1)
	now := time.Duration(0)
	// 60s of zeros, then one observation of 1.
	for i := 0; i < 30; i++ {
		now += 2 * time.Second
		a.observe(now, 0)
	}
	now += 2 * time.Second
	a.observe(now, 1)
	// Stable average is 1/31 -> still 1 pod wanted (ceil), demonstrating
	// the sliding-window persistence of the 1-minute view.
	if got := a.desired(now, 1, 0); got != 1 {
		t.Errorf("desired = %d, want 1", got)
	}
}

func TestAutoscalerPanicMode(t *testing.T) {
	a := newKPA(1)
	now := time.Duration(0)
	// Quiet for 54s.
	for i := 0; i < 27; i++ {
		now += 2 * time.Second
		a.observe(now, 0)
	}
	// Burst of concurrency 10 for 6s with 1 pod: panic threshold 2.0 is
	// exceeded (10/1 >= 2), so the autoscaler jumps to the panic-window
	// demand instead of the diluted stable average.
	for i := 0; i < 3; i++ {
		now += 2 * time.Second
		a.observe(now, 10)
	}
	got := a.desired(now, 1, 0)
	if got < 10 {
		t.Errorf("panic desired = %d, want >= 10", got)
	}
	// During panic, no scale-down even after the burst fades briefly.
	now += 2 * time.Second
	a.observe(now, 0)
	if got := a.desired(now, 10, 0); got < 10 {
		t.Errorf("panic hold desired = %d, want >= 10", got)
	}
}

func TestAutoscalerScaleToZeroGrace(t *testing.T) {
	a := newKPA(1)
	now := 2 * time.Second
	a.observe(now, 1)
	if got := a.desired(now, 1, 0); got != 1 {
		t.Fatalf("active desired = %d", got)
	}
	// Traffic stops; within the grace period the last pod stays.
	for i := 0; i < 40; i++ {
		now += 2 * time.Second
		a.observe(now, 0)
	}
	// Stable window is now all zeros; want 0 but grace keeps 1 briefly.
	first := a.desired(now, 1, 0)
	if first != 1 {
		t.Fatalf("first zero decision = %d, want 1 (grace)", first)
	}
	now += kpaScaleToZero + 2*time.Second
	a.observe(now, 0)
	if got := a.desired(now, 1, 0); got != 0 {
		t.Errorf("post-grace desired = %d, want 0", got)
	}
}

func TestAutoscalerMinScale(t *testing.T) {
	a := newKPA(1)
	if got := a.desired(time.Minute, 3, 2); got != 2 {
		t.Errorf("desired = %d, want min scale 2", got)
	}
}

func steadyApp(name string, rate float64, execMS int, horizon time.Duration, conc int, minScale int) AppSpec {
	cfg := trace.DefaultConfig()
	cfg.Concurrency = conc
	cfg.MinScale = minScale
	cfg.MemoryGB = 0.5
	cfg.ColdStart = 800 * time.Millisecond
	var invs []trace.Invocation
	gap := time.Duration(float64(time.Second) / rate)
	for at := gap; at < horizon; at += gap {
		invs = append(invs, trace.Invocation{Arrival: at, Duration: time.Duration(execMS) * time.Millisecond})
	}
	return AppSpec{Name: name, Config: cfg, Invocations: invs}
}

func TestEmulatorServesAllRequests(t *testing.T) {
	horizon := 10 * time.Minute
	app := steadyApp("a", 2, 100, horizon, 100, 0)
	s, _ := Emulate(app, nil, horizon)
	if s.Invocations != len(app.Invocations) {
		t.Errorf("served %d of %d invocations", s.Invocations, len(app.Invocations))
	}
	if s.AllocatedGBSec <= 0 {
		t.Error("no allocation recorded")
	}
}

func TestEmulatorMinScaleEliminatesFirstColdStart(t *testing.T) {
	horizon := 5 * time.Minute
	cold := steadyApp("cold", 0.2, 100, horizon, 100, 0)
	warm := steadyApp("warm", 0.2, 100, horizon, 100, 1)
	if s, _ := Emulate(cold, nil, horizon); s.ColdStarts == 0 {
		t.Error("zero-min-scale app should cold start")
	}
	if s, _ := Emulate(warm, nil, horizon); s.ColdStarts != 0 {
		t.Errorf("min-scale-1 app cold starts = %d, want 0", s.ColdStarts)
	}
}

// TestEmulatorColdStartDelayMatchesProvisioning replays 0.5 requests a
// second of 50 ms each. The first request, at 2 s, finds no pod: the tick
// at 4 s sees it queued and scales from zero, and the pod is ready 0.8 s
// later, so it waits 2.8 s. The second, at 4 s, queues behind the same
// provisioning pod and waits 0.8 s. Every later request finds the pod
// warm and waits 0 s, and the delays say so request by request.
func TestEmulatorColdStartDelayMatchesProvisioning(t *testing.T) {
	horizon := 3 * time.Minute
	app := steadyApp("a", 0.5, 50, horizon, 100, 0)
	s, delays := Emulate(app, nil, horizon)
	if s.Invocations != len(app.Invocations) || len(delays) != s.Invocations {
		t.Fatalf("served %d of %d invocations, %d delays", s.Invocations, len(app.Invocations), len(delays))
	}
	if s.ColdStarts != 2 || math.Abs(s.ColdStartSec-3.6) > 1e-9 {
		t.Errorf("%d cold starts, %v s of waiting; want 2 and 3.6 s", s.ColdStarts, s.ColdStartSec)
	}
	for i, d := range delays {
		want := 0.0
		switch i {
		case 0:
			want = 2.8
		case 1:
			want = 0.8
		}
		if math.Abs(d-want) > 1e-9 {
			t.Errorf("request %d waited %v s, want %v s", i, d, want)
		}
	}
}

// TestEmulatorDelaysOmitQueuedAtHorizon ends the replay while the only
// request still waits for its pod: it is neither served nor given a
// delay.
func TestEmulatorDelaysOmitQueuedAtHorizon(t *testing.T) {
	app := steadyApp("a", 0.5, 50, 3*time.Second, 100, 0) // one request, at 2 s
	s, delays := Emulate(app, nil, 4500*time.Millisecond) // its pod is ready at 4.8 s
	if s.Invocations != 0 || len(delays) != 0 {
		t.Errorf("served %d, %d delays; want neither for a request queued at the horizon", s.Invocations, len(delays))
	}
	s, delays = Emulate(app, nil, 5*time.Second)
	if s.Invocations != 1 || len(delays) != 1 || math.Abs(delays[0]-2.8) > 1e-9 {
		t.Errorf("served %d, delays %v; want one request that waited 2.8 s", s.Invocations, delays)
	}
}

// TestEmulatorWasteAccounting keeps one pod by MinScale and sends it no
// traffic: the pod wastes exactly what it is allocated, its memory over
// the whole horizon.
func TestEmulatorWasteAccounting(t *testing.T) {
	cfg := trace.DefaultConfig()
	cfg.MinScale = 1
	cfg.MemoryGB = 0.15
	horizon := 10 * time.Minute
	s, delays := Emulate(AppSpec{Name: "idle", Config: cfg}, nil, horizon)
	want := horizon.Seconds() * cfg.MemoryGB
	if s.AllocatedGBSec != want || s.WastedGBSec != want {
		t.Errorf("allocated %v, wasted %v GB-s; want both %v", s.AllocatedGBSec, s.WastedGBSec, want)
	}
	if s.Invocations != 0 || len(delays) != 0 {
		t.Errorf("%d invocations, %d delays with no traffic", s.Invocations, len(delays))
	}
}

func TestEmulatorScalesToZeroWhenIdle(t *testing.T) {
	horizon := 30 * time.Minute
	// Traffic only in the first minute.
	cfg := trace.DefaultConfig()
	cfg.Concurrency = 100
	cfg.MemoryGB = 1
	app := AppSpec{Name: "burst", Config: cfg, Invocations: []trace.Invocation{
		{Arrival: 5 * time.Second, Duration: 100 * time.Millisecond},
		{Arrival: 10 * time.Second, Duration: 100 * time.Millisecond},
	}}
	// Pod must be reaped after the stable window + grace, so allocation is
	// far below 30 minutes.
	s, _ := Emulate(app, nil, horizon)
	if s.AllocatedGBSec > 5*60 {
		t.Errorf("allocated %v GB-s: pod never scaled to zero", s.AllocatedGBSec)
	}
	if s.AllocatedGBSec <= 0 {
		t.Error("no allocation recorded")
	}
}
