package knative

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/femux"
	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
	"github.com/ubc-cirrus-lab/femux-go/internal/rum"
	"github.com/ubc-cirrus-lab/femux-go/internal/timeseries"
	"github.com/ubc-cirrus-lab/femux-go/internal/trace"
)

// --- Autoscaler ---

func TestAutoscalerScalesUpOnLoad(t *testing.T) {
	a := NewAutoscaler(DefaultAutoscalerConfig(), 10)
	now := time.Duration(0)
	for i := 0; i < 30; i++ {
		now += 2 * time.Second
		a.Observe(now, 35) // sustained concurrency 35, CC=10 -> 4 pods
	}
	if got := a.Desired(now, 1, 0); got != 4 {
		t.Errorf("desired = %d, want 4", got)
	}
}

func TestAutoscalerStableWindowSmoothsSpikes(t *testing.T) {
	a := NewAutoscaler(DefaultAutoscalerConfig(), 1)
	now := time.Duration(0)
	// 60s of zeros, then one observation of 1.
	for i := 0; i < 30; i++ {
		now += 2 * time.Second
		a.Observe(now, 0)
	}
	now += 2 * time.Second
	a.Observe(now, 1)
	// Stable average is 1/31 -> still 1 pod wanted (ceil), demonstrating
	// the sliding-window persistence of the 1-minute view.
	if got := a.Desired(now, 1, 0); got != 1 {
		t.Errorf("desired = %d, want 1", got)
	}
}

func TestAutoscalerPanicMode(t *testing.T) {
	a := NewAutoscaler(DefaultAutoscalerConfig(), 1)
	now := time.Duration(0)
	// Quiet for 54s.
	for i := 0; i < 27; i++ {
		now += 2 * time.Second
		a.Observe(now, 0)
	}
	// Burst of concurrency 10 for 6s with 1 pod: panic threshold 2.0 is
	// exceeded (10/1 >= 2), so the autoscaler jumps to the panic-window
	// demand instead of the diluted stable average.
	for i := 0; i < 3; i++ {
		now += 2 * time.Second
		a.Observe(now, 10)
	}
	got := a.Desired(now, 1, 0)
	if got < 10 {
		t.Errorf("panic desired = %d, want >= 10", got)
	}
	// During panic, no scale-down even after the burst fades briefly.
	now += 2 * time.Second
	a.Observe(now, 0)
	if got := a.Desired(now, 10, 0); got < 10 {
		t.Errorf("panic hold desired = %d, want >= 10", got)
	}
}

func TestAutoscalerScaleToZeroGrace(t *testing.T) {
	cfg := DefaultAutoscalerConfig()
	a := NewAutoscaler(cfg, 1)
	now := 2 * time.Second
	a.Observe(now, 1)
	if got := a.Desired(now, 1, 0); got != 1 {
		t.Fatalf("active desired = %d", got)
	}
	// Traffic stops; within the grace period the last pod stays.
	for i := 0; i < 40; i++ {
		now += 2 * time.Second
		a.Observe(now, 0)
	}
	// Stable window is now all zeros; want 0 but grace keeps 1 briefly.
	first := a.Desired(now, 1, 0)
	if first != 1 {
		t.Fatalf("first zero decision = %d, want 1 (grace)", first)
	}
	now += cfg.ScaleToZeroWait + 2*time.Second
	a.Observe(now, 0)
	if got := a.Desired(now, 1, 0); got != 0 {
		t.Errorf("post-grace desired = %d, want 0", got)
	}
}

func TestAutoscalerMinScale(t *testing.T) {
	a := NewAutoscaler(DefaultAutoscalerConfig(), 1)
	if got := a.Desired(time.Minute, 3, 2); got != 2 {
		t.Errorf("desired = %d, want min scale 2", got)
	}
}

// --- Emulator ---

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
	out := Run([]AppSpec{app}, EmulatorConfig{Autoscaler: DefaultAutoscalerConfig()}, horizon)
	if len(out) != 1 {
		t.Fatalf("results = %d", len(out))
	}
	if out[0].Sample.Invocations != len(app.Invocations) {
		t.Errorf("served %d of %d invocations", out[0].Sample.Invocations, len(app.Invocations))
	}
	if out[0].Sample.AllocatedGBSec <= 0 {
		t.Error("no allocation recorded")
	}
}

func TestEmulatorMinScaleEliminatesFirstColdStart(t *testing.T) {
	horizon := 5 * time.Minute
	cold := steadyApp("cold", 0.2, 100, horizon, 100, 0)
	warm := steadyApp("warm", 0.2, 100, horizon, 100, 1)
	out := Run([]AppSpec{cold, warm}, EmulatorConfig{Autoscaler: DefaultAutoscalerConfig(), CaptureDelays: true}, horizon)
	if out[0].Sample.ColdStarts == 0 {
		t.Error("zero-min-scale app should cold start")
	}
	if out[1].Sample.ColdStarts != 0 {
		t.Errorf("min-scale-1 app cold starts = %d, want 0", out[1].Sample.ColdStarts)
	}
}

func TestEmulatorColdStartDelayMatchesProvisioning(t *testing.T) {
	horizon := 3 * time.Minute
	app := steadyApp("a", 0.5, 50, horizon, 100, 0)
	out := Run([]AppSpec{app}, EmulatorConfig{Autoscaler: DefaultAutoscalerConfig(), CaptureDelays: true}, horizon)
	if len(out[0].PlatformDelays) == 0 {
		t.Fatal("no delays captured")
	}
	// First request arrives with no pods: its delay spans the scale-up
	// decision (next 2 s tick) plus the 0.8 s cold start.
	first := out[0].PlatformDelays[0]
	if first < 0.8 || first > 5 {
		t.Errorf("first delay = %v s, want ~0.8-3 s", first)
	}
	// Most subsequent requests are warm.
	warm := 0
	for _, d := range out[0].PlatformDelays[1:] {
		if d == 0 {
			warm++
		}
	}
	if frac := float64(warm) / float64(len(out[0].PlatformDelays)-1); frac < 0.8 {
		t.Errorf("warm fraction = %v, want most requests warm", frac)
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
	out := Run([]AppSpec{app}, EmulatorConfig{Autoscaler: DefaultAutoscalerConfig()}, horizon)
	// Pod must be reaped after the stable window + grace, so allocation is
	// far below 30 minutes.
	if out[0].Sample.AllocatedGBSec > 5*60 {
		t.Errorf("allocated %v GB-s: pod never scaled to zero", out[0].Sample.AllocatedGBSec)
	}
}

func TestEmulatorCapacityCap(t *testing.T) {
	horizon := 4 * time.Minute
	// Demand needing ~4 pods with a 2-pod cluster cap.
	app := steadyApp("a", 8, 500, horizon, 1, 0)
	capped := Run([]AppSpec{app}, EmulatorConfig{Autoscaler: DefaultAutoscalerConfig(), MaxPods: 2}, horizon)
	free := Run([]AppSpec{app}, EmulatorConfig{Autoscaler: DefaultAutoscalerConfig()}, horizon)
	if capped[0].Sample.AllocatedGBSec >= free[0].Sample.AllocatedGBSec {
		t.Errorf("cap should reduce allocation: %v vs %v",
			capped[0].Sample.AllocatedGBSec, free[0].Sample.AllocatedGBSec)
	}
}

// --- FeMux integration ---

func trainTinyModel(t testing.TB) *femux.Model {
	t.Helper()
	cfg := femux.DefaultConfig(rum.Default())
	cfg.BlockSize = 30
	cfg.Window = 30
	cfg.K = 3
	cfg.Forecasters = []forecast.Forecaster{
		forecast.NewFFT(10),
		forecast.NewExpSmoothing(),
		forecast.NewMovingAverage(1),
	}
	rng := rand.New(rand.NewSource(8))
	apps := make([]femux.TrainApp, 6)
	for i := range apps {
		vals := make([]float64, 120)
		for t := range vals {
			if (t+i)%10 < 2 {
				vals[t] = 2 + rng.Float64()
			}
		}
		apps[i] = femux.TrainApp{
			Demand:   timeseries.New(time.Minute, vals),
			ExecSec:  0.1,
			MemoryGB: 0.2,
		}
	}
	m, err := femux.Train(apps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestEmulatorWithFeMuxProvider runs the emulator with the FeMux REST
// service as its scale provider.
func TestEmulatorWithFeMuxProvider(t *testing.T) {
	horizon := 12 * time.Minute
	app := steadyApp("a", 1, 200, horizon, 100, 0)
	srv := httptest.NewServer(NewService(trainTinyModel(t)).Handler())
	defer srv.Close()
	out := Run([]AppSpec{app}, EmulatorConfig{
		Autoscaler: DefaultAutoscalerConfig(),
		Provider:   &HTTPProvider{BaseURL: srv.URL},
	}, horizon)
	if out[0].Sample.Invocations != len(app.Invocations) {
		t.Errorf("served %d of %d", out[0].Sample.Invocations, len(app.Invocations))
	}
}

// --- HTTP service ---

func TestServiceObserveAndTarget(t *testing.T) {
	svc := NewService(trainTinyModel(t))
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// Observe a few minutes of concurrency 2.
	var tr TargetResponse
	for i := 0; i < 5; i++ {
		resp, err := http.Post(srv.URL+"/v1/apps/demo/observe", "application/json",
			strings.NewReader(`{"concurrency": 2, "unitConcurrency": 1}`))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if tr.History != 5 {
		t.Errorf("history = %d, want 5", tr.History)
	}
	if tr.Target < 1 {
		t.Errorf("target = %d, want >= 1 for steady concurrency 2", tr.Target)
	}
	if tr.Forecaster == "" {
		t.Error("forecaster missing")
	}

	// GET target does not grow history.
	resp, err := http.Get(srv.URL + "/v1/apps/demo/target?concurrency=1")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if tr.History != 5 {
		t.Errorf("GET target grew history to %d", tr.History)
	}

	// Forecast endpoint.
	resp, err = http.Get(srv.URL + "/v1/apps/demo/forecast?horizon=3")
	if err != nil {
		t.Fatal(err)
	}
	var fr ForecastResponse
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(fr.Values) != 3 {
		t.Errorf("forecast len = %d", len(fr.Values))
	}
	if svc.Apps() != 1 {
		t.Errorf("apps = %d", svc.Apps())
	}
}

func TestServiceErrors(t *testing.T) {
	svc := NewService(trainTinyModel(t))
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	cases := []struct {
		method, path, body string
		wantStatus         int
	}{
		{"GET", "/v1/apps/x/observe", "", http.StatusMethodNotAllowed},
		{"POST", "/v1/apps/x/observe", "{bad json", http.StatusBadRequest},
		{"POST", "/v1/apps/x/observe", `{"concurrency": -1}`, http.StatusBadRequest},
		{"GET", "/v1/apps/x/unknown", "", http.StatusNotFound},
		{"GET", "/v1/apps//target", "", http.StatusNotFound},
		{"GET", "/v1/apps/x/target?concurrency=zero", "", http.StatusBadRequest},
		{"GET", "/v1/apps/x/forecast?horizon=100000", "", http.StatusBadRequest},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, srv.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.wantStatus {
			t.Errorf("%s %s: status = %d, want %d", c.method, c.path, resp.StatusCode, c.wantStatus)
		}
	}
	// Health endpoint.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
}

func TestHTTPProviderEndToEnd(t *testing.T) {
	svc := NewService(trainTinyModel(t))
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	p := &HTTPProvider{BaseURL: srv.URL}
	tgt, ok := p.Target("web", 2.5, 1)
	if !ok {
		t.Fatal("provider declined")
	}
	if tgt < 0 {
		t.Errorf("target = %d", tgt)
	}
	// Unreachable server degrades gracefully.
	bad := &HTTPProvider{BaseURL: "http://127.0.0.1:1"}
	if _, ok := bad.Target("web", 1, 1); ok {
		t.Error("unreachable provider should decline")
	}
}

// TestHTTPProviderMatchesPlainTarget pins the REST path to the policy:
// the targets an HTTPProvider gets from the service are exactly the
// targets the allocating Target path returns, observation for
// observation. Four apps of different shapes are driven at once, so the
// service's borrowed workspaces pass between apps and forecasters (and,
// under -race, a workspace lent twice at once is a data race).
func TestHTTPProviderMatchesPlainTarget(t *testing.T) {
	m := trainTinyModel(t)
	srv := httptest.NewServer(NewService(m).Handler())
	defer srv.Close()
	p := &HTTPProvider{BaseURL: srv.URL}
	var wg sync.WaitGroup
	for app := 0; app < 4; app++ {
		wg.Add(1)
		go func(app int) {
			defer wg.Done()
			ref := m.NewAppPolicy(0)
			var hist []float64
			for i := 0; i < 70; i++ {
				v := shapedValue(app, i)
				hist = append(hist, v)
				got, ok := p.Target(fmt.Sprintf("equiv-app-%d", app), v, 1)
				if !ok {
					t.Error("provider declined")
					return
				}
				if want := ref.Target(hist, 1); got != want {
					t.Errorf("app %d obs %d: provider target %d, plain Target %d", app, i, got, want)
					return
				}
			}
		}(app)
	}
	wg.Wait()
}

// TestHTTPProviderDeclinesFailedReplies pins the fallback the emulator
// relies on: a reply that is not a 200 with a target, or no reply at
// all, is declined, so the autoscaler scales reactively that minute.
func TestHTTPProviderDeclinesFailedReplies(t *testing.T) {
	for _, c := range []struct {
		name    string
		handler http.HandlerFunc
	}{
		{"error status", func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "unavailable", http.StatusServiceUnavailable)
		}},
		{"malformed reply", func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, `{"target":`)
		}},
		{"connection closed", func(w http.ResponseWriter, r *http.Request) {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv := httptest.NewServer(c.handler)
			defer srv.Close()
			p := &HTTPProvider{BaseURL: srv.URL}
			if target, ok := p.Target("web", 2.5, 1); ok {
				t.Fatalf("provider accepted the reply: target %d", target)
			}
		})
	}
}

func TestEmulatorWithHTTPProvider(t *testing.T) {
	// Full Fig 13 path: emulation -> REST -> FeMux service -> target.
	svc := NewService(trainTinyModel(t))
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	horizon := 8 * time.Minute
	app := steadyApp("a", 1, 150, horizon, 100, 0)
	out := Run([]AppSpec{app}, EmulatorConfig{
		Autoscaler: DefaultAutoscalerConfig(),
		Provider:   &HTTPProvider{BaseURL: srv.URL},
	}, horizon)
	if out[0].Sample.Invocations != len(app.Invocations) {
		t.Errorf("served %d of %d", out[0].Sample.Invocations, len(app.Invocations))
	}
	if svc.Apps() != 1 {
		t.Errorf("service tracked %d apps", svc.Apps())
	}
}

// BenchmarkServiceObserveLatency is one loopback observe round trip on a
// keep-alive connection. The response body is drained before it is
// closed: net/http only returns a connection to the pool once its body
// has been read to EOF, so closing it unread made every op pay a TCP
// connect (~160 us against ~45 us, ROADMAP item 1).
func BenchmarkServiceObserveLatency(b *testing.B) {
	svc := NewService(trainTinyModel(b))
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := srv.Client()
	body := `{"concurrency": 2, "unitConcurrency": 1}`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(srv.URL+"/v1/apps/bench/observe", "application/json",
			strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
}

func TestEmulatorScaleEvents(t *testing.T) {
	horizon := 6 * time.Minute
	app := steadyApp("a", 1, 200, horizon, 1, 0)
	out := Run([]AppSpec{app}, EmulatorConfig{
		Autoscaler:         DefaultAutoscalerConfig(),
		CaptureScaleEvents: true,
	}, horizon)
	evs := out[0].ScaleEvents
	if len(evs) == 0 {
		t.Fatal("no scale events captured")
	}
	// First event must be a scale-up from zero; pod counts must be
	// consistent with the deltas.
	if evs[0].Delta <= 0 || evs[0].Pods != evs[0].Delta {
		t.Errorf("first event = %+v, want scale-up from zero", evs[0])
	}
	var sawDown bool
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatal("scale events out of order")
		}
		if evs[i].Delta < 0 {
			sawDown = true
		}
	}
	_ = sawDown // traffic is steady; scale-down may only occur at horizon
}
