package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/femux"
	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
	"github.com/ubc-cirrus-lab/femux-go/internal/knative"
	"github.com/ubc-cirrus-lab/femux-go/internal/lifecycle"
	"github.com/ubc-cirrus-lab/femux-go/internal/rum"
	"github.com/ubc-cirrus-lab/femux-go/internal/serving"
	"github.com/ubc-cirrus-lab/femux-go/internal/timeseries"
)

func tinyModel(t testing.TB) *femux.Model {
	t.Helper()
	cfg := femux.DefaultConfig(rum.Default())
	cfg.BlockSize = 30
	cfg.Window = 30
	cfg.K = 3
	// Only registry forecasters: the round-trip test reloads by name.
	cfg.Forecasters = []forecast.Forecaster{
		forecast.NewFFT(10),
		forecast.NewExpSmoothing(),
		forecast.NewCeilPeak(10),
	}
	rng := rand.New(rand.NewSource(11))
	apps := make([]femux.TrainApp, 6)
	for i := range apps {
		vals := make([]float64, 120)
		for tt := range vals {
			if (tt+i)%8 < 2 {
				vals[tt] = 1 + rng.Float64()
			}
		}
		apps[i] = femux.TrainApp{Demand: timeseries.New(time.Minute, vals), ExecSec: 0.1, MemoryGB: 0.2}
	}
	m, err := femux.Train(apps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestModelSaveLoadRoundTrip is the regression test for the CLI
// save/load path (writeModel previously ignored the Close error, so a
// full disk could silently truncate the model file).
func TestModelSaveLoadRoundTrip(t *testing.T) {
	m := tinyModel(t)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := writeModel(path, m); err != nil {
		t.Fatalf("writeModel: %v", err)
	}
	got, err := loadModelFile(path)
	if err != nil {
		t.Fatalf("loadModelFile: %v", err)
	}
	if got.DefaultForecaster().Name() != m.DefaultForecaster().Name() {
		t.Errorf("default forecaster %q != %q",
			got.DefaultForecaster().Name(), m.DefaultForecaster().Name())
	}
	if got.Diag.Clusters != m.Diag.Clusters {
		t.Errorf("clusters %d != %d", got.Diag.Clusters, m.Diag.Clusters)
	}
	// Decisions must survive the round trip byte-for-byte.
	hist := []float64{0, 1, 2, 3, 2, 1, 0, 1, 2, 3}
	p1, p2 := m.NewAppPolicy(0), got.NewAppPolicy(0)
	for i := 1; i <= len(hist); i++ {
		if a, b := p1.Target(hist[:i], 1), p2.Target(hist[:i], 1); a != b {
			t.Fatalf("target diverged at step %d: %d != %d", i, a, b)
		}
	}
}

// TestWindowCapValidated pins -window-cap validation: a negative cap, or
// a positive one shorter than the model's block or window, cannot serve
// the due blocks and tail refills a hot app reads from the store, so
// femuxd refuses it — at startup, and on a reload, which then keeps the
// serving model — with an error naming the cap and the geometry. 0
// (unlimited) and any cap of at least max(block, window) are served.
func TestWindowCapValidated(t *testing.T) {
	model := tinyModel(t) // block 30, window 30
	path := filepath.Join(t.TempDir(), "model.json")
	if err := writeModel(path, model); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		cap int
		ok  bool
	}{{-1, false}, {-45, false}, {1, false}, {29, false}, {0, true}, {30, true}, {45, true}} {
		_, err := buildModel(buildOpts{modelPath: path, windowCap: c.cap})
		if c.ok != (err == nil) {
			t.Fatalf("-window-cap %d: err = %v, want ok=%v", c.cap, err, c.ok)
		}
		if err != nil && !strings.Contains(err.Error(), fmt.Sprintf("-window-cap %d ", c.cap)) ||
			err != nil && !strings.Contains(err.Error(), "block 30 and window 30") {
			t.Fatalf("-window-cap %d: the error %q names neither the cap nor the geometry", c.cap, err)
		}
	}

	svc := knative.NewService(model)
	reg := serving.NewRegistry()
	svc.InstrumentWith(reg)
	rebuild := func() (*femux.Model, error) { return buildModel(buildOpts{modelPath: path, windowCap: 29}) }
	srv := httptest.NewServer(newHandler(svc, reg, rebuild, log.New(io.Discard, "", 0), 5*time.Second, nil, nil))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/admin/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "-window-cap 29 ") {
		t.Fatalf("reload under a short cap: %d %s", resp.StatusCode, body)
	}
	if svc.Reloads() != 0 || svc.Model() != model {
		t.Fatal("a refused reload swapped the model")
	}
}

func TestWriteModelErrors(t *testing.T) {
	m := tinyModel(t)
	if err := writeModel(filepath.Join(t.TempDir(), "no", "such", "dir", "m.json"), m); err == nil {
		t.Error("writeModel into a missing directory should fail")
	}
	// Loading garbage fails cleanly.
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := writeModel(path, m); err != nil {
		t.Fatal(err)
	}
	if _, err := loadModelFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("loading a missing file should fail")
	}
}

// TestHandlerAdminReload exercises the full production handler stack:
// metrics scrape, admin reload happy path, method guard, rebuild failure,
// and the busy guard against overlapping reloads.
func TestHandlerAdminReload(t *testing.T) {
	model := tinyModel(t)
	svc := knative.NewService(model)
	reg := serving.NewRegistry()
	reg.RegisterGoMetrics()
	svc.InstrumentWith(reg)

	next := tinyModel(t)
	block := make(chan struct{})
	var rebuildErr error
	rebuild := func() (*femux.Model, error) {
		<-block
		if rebuildErr != nil {
			return nil, rebuildErr
		}
		return next, nil
	}
	logger := log.New(io.Discard, "", 0)
	srv := httptest.NewServer(newHandler(svc, reg, rebuild, logger, 5*time.Second, nil, nil))
	defer srv.Close()

	// Wrong method.
	resp, err := http.Get(srv.URL + "/v1/admin/reload")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET reload = %d, want 405", resp.StatusCode)
	}

	// Overlapping reloads: the first blocks in rebuild, the second is
	// rejected with 409.
	first := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/v1/admin/reload", "", nil)
		if err != nil {
			first <- nil
			return
		}
		first <- resp
	}()
	waitUntil(t, func() bool { return reloadBusy.Load() })
	resp, err = http.Post(srv.URL+"/v1/admin/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("concurrent reload = %d, want 409", resp.StatusCode)
	}
	close(block)
	r1 := <-first
	if r1 == nil {
		t.Fatal("first reload request failed")
	}
	var rr reloadResponse
	if err := json.NewDecoder(r1.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	r1.Body.Close()
	if r1.StatusCode != http.StatusOK || rr.Reloads != 1 {
		t.Errorf("first reload: status=%d resp=%+v", r1.StatusCode, rr)
	}
	if svc.Model() != next {
		t.Error("model not swapped by admin reload")
	}

	// Rebuild failure surfaces as 500 and leaves the model untouched.
	rebuildErr = io.ErrUnexpectedEOF
	resp, err = http.Post(srv.URL+"/v1/admin/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("failed reload = %d, want 500", resp.StatusCode)
	}
	if svc.Model() != next {
		t.Error("failed reload must not swap the model")
	}

	// The stack serves API traffic and reflects it in /metrics.
	resp, err = http.Post(srv.URL+"/v1/apps/demo/observe", "application/json",
		strings.NewReader(`{"concurrency": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe through stack = %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`femux_http_requests_total{endpoint="observe",method="POST",code="200"} 1`,
		`femux_observations_total{app="demo"} 1`,
		"femux_model_reloads_total 1",
		"go_goroutines",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// pprof index is mounted.
	resp, err = http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index = %d", resp.StatusCode)
	}
}

// TestHandlerAdminLifecycle covers the /v1/admin/lifecycle surface: 404
// while the lifecycle is disabled, GET status, POST as the synchronous
// cycle trigger, and the method guard.
func TestHandlerAdminLifecycle(t *testing.T) {
	model := tinyModel(t)
	svc := knative.NewService(model)
	reg := serving.NewRegistry()
	svc.InstrumentWith(reg)
	logger := log.New(io.Discard, "", 0)
	rebuild := func() (*femux.Model, error) { return model, nil }

	// Disabled (-retrain-every 0): the endpoint 404s.
	off := httptest.NewServer(newHandler(svc, reg, rebuild, logger, 5*time.Second, nil, nil))
	defer off.Close()
	resp, err := http.Get(off.URL + "/v1/admin/lifecycle")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("disabled lifecycle GET = %d, want 404", resp.StatusCode)
	}

	lcm := lifecycle.New(svc, lifecycle.Config{DriftThreshold: 0, MinImprove: -100, Seed: 3})
	lcm.InstrumentWith(reg)
	srv := httptest.NewServer(newHandler(svc, reg, rebuild, logger, 5*time.Second, nil, lcm))
	defer srv.Close()

	// GET: status JSON, zero cycles so far.
	resp, err = http.Get(srv.URL + "/v1/admin/lifecycle")
	if err != nil {
		t.Fatal(err)
	}
	var st lifecycle.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || st.Cycles != 0 {
		t.Errorf("initial status: code=%d %+v", resp.StatusCode, st)
	}

	// POST triggers one synchronous cycle; an empty service has no data.
	resp, err = http.Post(srv.URL+"/v1/admin/lifecycle", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var res lifecycle.CycleResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || res.Outcome != lifecycle.OutcomeNoData {
		t.Errorf("empty-fleet cycle: code=%d outcome=%q", resp.StatusCode, res.Outcome)
	}

	// With real windows the POSTed cycle retrains and promotes.
	for _, app := range []string{"x", "y", "z"} {
		for i := 0; i < 120; i++ {
			c := "0"
			if i%8 < 2 {
				c = "2.5"
			}
			resp, err := http.Post(srv.URL+"/v1/apps/"+app+"/observe", "application/json",
				strings.NewReader(`{"concurrency": `+c+`}`))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
	}
	resp, err = http.Post(srv.URL+"/v1/admin/lifecycle", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if res.Outcome != lifecycle.OutcomePromoted {
		t.Errorf("cycle outcome = %q (err %q), want promoted", res.Outcome, res.Error)
	}
	if svc.Reloads() != 1 {
		t.Errorf("reloads = %d, want 1 after promotion", svc.Reloads())
	}

	// Method guard.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/admin/lifecycle", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE lifecycle = %d, want 405", resp.StatusCode)
	}
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}
