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
	"github.com/ubc-cirrus-lab/femux-go/internal/sim"
	"github.com/ubc-cirrus-lab/femux-go/internal/timeseries"
	"github.com/ubc-cirrus-lab/femux-go/internal/trace"
)

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
				if want := ref.Target(hist, 1, nil); got != want {
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

// TestEmulatorWithHTTPProvider runs the full Fig 13 path: emulation ->
// REST -> FeMux service -> target.
func TestEmulatorWithHTTPProvider(t *testing.T) {
	svc := NewService(trainTinyModel(t))
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	horizon := 8 * time.Minute
	cfg := trace.DefaultConfig()
	cfg.Concurrency = 100
	var invs []trace.Invocation
	for at := time.Second; at < horizon; at += time.Second {
		invs = append(invs, trace.Invocation{Arrival: at, Duration: 150 * time.Millisecond})
	}
	s, _ := sim.Emulate(sim.AppSpec{Name: "a", Config: cfg, Invocations: invs}, &HTTPProvider{BaseURL: srv.URL}, horizon)
	if s.Invocations != len(invs) {
		t.Errorf("served %d of %d", s.Invocations, len(invs))
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
