package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/femux"
	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
	"github.com/ubc-cirrus-lab/femux-go/internal/knative"
	"github.com/ubc-cirrus-lab/femux-go/internal/rum"
	"github.com/ubc-cirrus-lab/femux-go/internal/serving"
	"github.com/ubc-cirrus-lab/femux-go/internal/store"
	"github.com/ubc-cirrus-lab/femux-go/internal/timeseries"
	"github.com/ubc-cirrus-lab/femux-go/internal/trace"
)

func tinyTestModel(t testing.TB) *femux.Model {
	t.Helper()
	cfg := femux.DefaultConfig(rum.Default())
	cfg.BlockSize = 30
	cfg.Window = 30
	cfg.K = 3
	cfg.Forecasters = []forecast.Forecaster{
		forecast.NewExpSmoothing(),
		forecast.NewCeilPeak(10),
	}
	rng := rand.New(rand.NewSource(5))
	apps := make([]femux.TrainApp, 4)
	for i := range apps {
		vals := make([]float64, 90)
		for tt := range vals {
			if (tt+i)%7 < 3 {
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

func tinyService(t testing.TB) (*knative.Service, *httptest.Server) {
	t.Helper()
	svc := knative.NewService(tinyTestModel(t))
	reg := serving.NewRegistry()
	svc.InstrumentWith(reg)
	hm := serving.NewHTTPMetrics(reg)
	// Mirror femuxd's route layout: API at /, /metrics alongside.
	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	mux.Handle("/metrics", reg.Handler())
	srv := httptest.NewServer(hm.Instrument(mux))
	t.Cleanup(srv.Close)
	return svc, srv
}

func TestSyntheticWorkloadShape(t *testing.T) {
	wl := syntheticWorkload(3, 0, 50, 7, 0)
	if wl.apps != 3 || wl.minutes != 50 {
		t.Fatalf("shape = %d apps x %d minutes", wl.apps, wl.minutes)
	}
	if len(wl.events) != 150 {
		t.Fatalf("events = %d, want 150", len(wl.events))
	}
	lastMinute := -1
	for _, ev := range wl.events {
		if ev.minute < lastMinute {
			t.Fatal("events not sorted by minute")
		}
		lastMinute = ev.minute
		if ev.conc < 0 {
			t.Fatalf("negative concurrency %v", ev.conc)
		}
	}
	// Deterministic for a fixed seed.
	again := syntheticWorkload(3, 0, 50, 7, 0)
	for i := range wl.events {
		if wl.events[i] != again.events[i] {
			t.Fatal("synthetic workload not deterministic")
		}
	}
}

func TestSyntheticWorkloadShift(t *testing.T) {
	const shift = 25
	flat := syntheticWorkload(3, 0, 50, 7, 0)
	shifted := syntheticWorkload(3, 0, 50, 7, shift)

	// Prefix stability across the regime change: minutes before the shift
	// are identical to the unshifted run's, minutes after diverge.
	byApp := func(wl workload) map[string][]obsEvent {
		m := map[string][]obsEvent{}
		for _, ev := range wl.events {
			m[ev.app] = append(m[ev.app], ev)
		}
		return m
	}
	fa, sa := byApp(flat), byApp(shifted)
	diverged := false
	for app, fevs := range fa {
		sevs := sa[app]
		if len(sevs) != len(fevs) {
			t.Fatalf("%s: event counts differ: %d vs %d", app, len(fevs), len(sevs))
		}
		for i := range fevs {
			if fevs[i].minute < shift && fevs[i] != sevs[i] {
				t.Fatalf("%s minute %d: pre-shift event changed: %+v vs %+v",
					app, fevs[i].minute, fevs[i], sevs[i])
			}
			if fevs[i].minute >= shift && fevs[i] != sevs[i] {
				diverged = true
			}
		}
	}
	if !diverged {
		t.Fatal("regime never changed after the shift minute")
	}

	// Resume still works through the shift: head + tail == one full run.
	head := syntheticWorkload(3, 0, 30, 7, shift)
	tail := syntheticWorkload(3, 30, 20, 7, shift)
	joined := append(append([]obsEvent{}, head.events...), tail.events...)
	sortEvents(joined)
	if len(joined) != len(shifted.events) {
		t.Fatalf("resumed events = %d, want %d", len(joined), len(shifted.events))
	}
	for i := range joined {
		if joined[i] != shifted.events[i] {
			t.Fatalf("event %d: resumed %+v != full %+v", i, joined[i], shifted.events[i])
		}
	}
}

func TestReplayAgainstService(t *testing.T) {
	_, srv := tinyService(t)
	wl := syntheticWorkload(4, 0, 40, 3, 0) // 160 observations
	rep := replay(wl, replayConfig{
		BaseURL:     srv.URL,
		Speedup:     0,
		Concurrency: 8,
		Timeout:     10 * time.Second,
	})
	if rep.Requests != 160 {
		t.Errorf("requests = %d, want 160", rep.Requests)
	}
	if rep.Errors != 0 {
		t.Errorf("errors = %d, want 0", rep.Errors)
	}
	if rep.P50 <= 0 || rep.P99 < rep.P50 || rep.Max < rep.P99 {
		t.Errorf("percentiles inconsistent: %+v", rep)
	}
	if err := checkMetrics(srv.URL, false, rep); err != nil {
		t.Errorf("metrics check: %v", err)
	}
	// The check must actually bite: a wrong expected count fails.
	wrong := rep
	wrong.Requests++
	wrong.Items++
	if err := checkMetrics(srv.URL, false, wrong); err == nil {
		t.Error("checkMetrics accepted a wrong count")
	}
	out := rep.String()
	for _, want := range []string{"requests:", "errors:", "throughput:", "p99"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestReplaySpeedupPacing(t *testing.T) {
	_, srv := tinyService(t)
	wl := syntheticWorkload(2, 0, 5, 1, 0) // 5 minutes of trace
	start := time.Now()
	rep := replay(wl, replayConfig{
		BaseURL:     srv.URL,
		Speedup:     1200, // one trace-minute per 50 ms -> >= 200 ms floor
		Concurrency: 4,
		Timeout:     5 * time.Second,
	})
	if rep.Errors != 0 {
		t.Fatalf("errors = %d", rep.Errors)
	}
	// 5 minutes at 1200x is 250 ms of pacing; the last minute's sleep also
	// counts, so the wall clock must be at least 4 full budgets.
	if elapsed := time.Since(start); elapsed < 200*time.Millisecond {
		t.Errorf("replay finished in %s; pacing not applied", elapsed)
	}
}

func TestCSVWorkloadRoundTrip(t *testing.T) {
	// Generate a small dataset, write it with the trace package, and make
	// sure the load generator derives a consistent workload from it.
	ds := trace.GenerateIBM(trace.IBMGenConfig{Seed: 9, Apps: 3, Days: 45.0 / (24 * 60)})
	dir := t.TempDir()
	appsPath := filepath.Join(dir, "apps.csv")
	invPath := filepath.Join(dir, "inv.csv")
	var apps, invs bytes.Buffer
	if err := trace.WriteApps(&apps, ds); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteInvocations(&invs, ds); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(appsPath, apps.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(invPath, invs.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	wl, err := csvWorkload(appsPath, invPath, 0, 30)
	if err != nil {
		t.Fatal(err)
	}
	if wl.apps != 3 {
		t.Errorf("apps = %d", wl.apps)
	}
	if wl.minutes != 30 {
		t.Errorf("minutes = %d (cap not applied)", wl.minutes)
	}
	if len(wl.events) != wl.apps*wl.minutes {
		t.Errorf("events = %d, want %d", len(wl.events), wl.apps*wl.minutes)
	}

	// And the CSV-derived workload replays cleanly end to end.
	_, srv := tinyService(t)
	rep := replay(wl, replayConfig{BaseURL: srv.URL, Concurrency: 4, Timeout: 5 * time.Second})
	if rep.Errors != 0 {
		t.Errorf("replay errors = %d", rep.Errors)
	}
	if rep.Requests != len(wl.events) {
		t.Errorf("requests = %d, want %d", rep.Requests, len(wl.events))
	}
}

// TestCSVWorkloadGolden pins the events femux-load replays from a
// tracegen CSV pair, with -start-minute and -minutes set, to the
// SHA-256 of those its own conversion loop produced before it shared
// experiments.ReadTrainApps with femux-train: app, minute and the
// concurrency's bits. The rows cover a window inside the trace, the
// whole trace, one running past its end and one wholly after it.
func TestCSVWorkloadGolden(t *testing.T) {
	ds := trace.GenerateIBM(trace.IBMGenConfig{Seed: 5, Apps: 4, Days: 90.0 / (24 * 60)})
	dir := t.TempDir()
	appsPath, invPath := filepath.Join(dir, "apps.csv"), filepath.Join(dir, "inv.csv")
	var apps, invs bytes.Buffer
	if err := trace.WriteApps(&apps, ds); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteInvocations(&invs, ds); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(appsPath, apps.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(invPath, invs.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		startMin, maxMinutes  int
		apps, minutes, events int
		sha256                string
	}{
		{17, 40, 4, 40, 160, "bf9801ea6fd5dcccacefe2d55ce731582e1536b653710be128efb66d0d0e7ca7"},
		{0, 0, 4, 91, 364, "195a8f2fed1ad1f67b48a5909ff5d0677e4118387f1c378136453d867e64bbe0"},
		{80, 30, 4, 11, 44, "b0742de0864f4c143219ee49d0f2dd913bb1aff6d201c5ad8e7350020183871d"},
		{200, 10, 4, 0, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	} {
		wl, err := csvWorkload(appsPath, invPath, c.startMin, c.maxMinutes)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, ev := range wl.events {
			fmt.Fprintf(h, "%s %d %x\n", ev.app, ev.minute, math.Float64bits(ev.conc))
		}
		if wl.apps != c.apps || wl.minutes != c.minutes || len(wl.events) != c.events {
			t.Errorf("-start-minute %d -minutes %d: %d apps, %d minutes, %d events; want %d, %d, %d",
				c.startMin, c.maxMinutes, wl.apps, wl.minutes, len(wl.events), c.apps, c.minutes, c.events)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.sha256 {
			t.Errorf("-start-minute %d -minutes %d: events hash to %s, want %s", c.startMin, c.maxMinutes, got, c.sha256)
		}
	}
}

func TestPercentile(t *testing.T) {
	ds := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(ds, 0.5); got != 5 {
		t.Errorf("p50 = %d", got)
	}
	if got := percentile(ds, 0.99); got != 10 {
		t.Errorf("p99 = %d", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %d", got)
	}
}

// TestSyntheticWorkloadPrefixStable: because every app draws from its
// own random stream, the trace for a minute range must not depend on
// where the replay starts or ends — the property the crash-recovery
// smoke relies on when it resumes an interrupted replay with
// -start-minute.
func TestSyntheticWorkloadPrefixStable(t *testing.T) {
	full := syntheticWorkload(3, 0, 50, 7, 0)
	head := syntheticWorkload(3, 0, 30, 7, 0)
	tail := syntheticWorkload(3, 30, 20, 7, 0)

	if len(head.events)+len(tail.events) != len(full.events) {
		t.Fatalf("split sizes: %d + %d != %d", len(head.events), len(tail.events), len(full.events))
	}
	index := func(evs []obsEvent) map[string]float64 {
		m := make(map[string]float64, len(evs))
		for _, ev := range evs {
			m[fmt.Sprintf("%s@%d", ev.app, ev.minute)] = ev.conc
		}
		return m
	}
	want := index(full.events)
	for key, conc := range index(head.events) {
		if want[key] != conc {
			t.Errorf("head %s: %v != %v", key, conc, want[key])
		}
	}
	for key, conc := range index(tail.events) {
		if want[key] != conc {
			t.Errorf("tail %s: %v != %v (resume would diverge)", key, conc, want[key])
		}
	}
	for _, ev := range tail.events {
		if ev.minute < 30 {
			t.Fatalf("tail contains minute %d < 30", ev.minute)
		}
	}
}

// TestBatchReplay: batch mode carries the same observations in far
// fewer requests, and the batch-aware metrics check agrees with the
// server's counters.
func TestBatchReplay(t *testing.T) {
	_, srv := tinyService(t)
	wl := syntheticWorkload(5, 0, 30, 3, 0) // 150 observations
	rep := replay(wl, replayConfig{
		BaseURL:     srv.URL,
		Concurrency: 4,
		Batch:       8,
		Timeout:     10 * time.Second,
	})
	if rep.Items != 150 {
		t.Errorf("items = %d, want 150", rep.Items)
	}
	if rep.ItemErrors != 0 || rep.Errors != 0 {
		t.Errorf("errors = %d, item errors = %d (first: %s)", rep.Errors, rep.ItemErrors, rep.FirstItemError)
	}
	// 5 apps per minute in batches of 8 -> one request per minute.
	if rep.Requests >= rep.Items {
		t.Errorf("requests = %d, not batched (items %d)", rep.Requests, rep.Items)
	}
	if err := checkMetrics(srv.URL, true, rep); err != nil {
		t.Errorf("batch metrics check: %v", err)
	}
	wrong := rep
	wrong.Items += 3
	if err := checkMetrics(srv.URL, true, wrong); err == nil {
		t.Error("batch checkMetrics accepted a wrong count")
	}
}

// TestReplayReportsPartialBatchFailure is the regression test for the
// partial-failure contract: a batch server answers 200 while rejecting
// individual items, and the replay report must surface those rejections
// (main exits non-zero on ItemErrors > 0) instead of reading the 200 as
// success.
func TestReplayReportsPartialBatchFailure(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/observe/batch" {
			http.NotFound(w, r)
			return
		}
		var req knative.BatchObserveRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		out := knative.BatchObserveResponse{Results: make([]knative.BatchItemResult, len(req.Observations))}
		for i, obs := range req.Observations {
			out.Results[i].App = obs.App
			if obs.App == "load-1" { // reject exactly one app's items
				out.Results[i].Error = "synthetic rejection"
				out.Rejected++
				continue
			}
			out.Results[i].Target = 1
			out.Accepted++
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(out)
	}))
	defer srv.Close()

	wl := syntheticWorkload(3, 0, 10, 2, 0) // load-0..load-2, 10 minutes
	rep := replay(wl, replayConfig{
		BaseURL:     srv.URL,
		Concurrency: 2,
		Batch:       3,
		Timeout:     5 * time.Second,
	})
	if rep.Errors != 0 {
		t.Errorf("whole-request errors = %d, want 0 (server answered 200)", rep.Errors)
	}
	if rep.ItemErrors != 10 {
		t.Errorf("item errors = %d, want 10 (one per minute for load-1)", rep.ItemErrors)
	}
	if !strings.Contains(rep.FirstItemError, "synthetic rejection") {
		t.Errorf("first item error = %q", rep.FirstItemError)
	}
	out := rep.String()
	if !strings.Contains(out, "item errors: 10") {
		t.Errorf("report does not surface item errors:\n%s", out)
	}
}

// TestReplayResumeBitIdentical is the femux-load-level zero-state-loss
// oracle: replay half a trace into a durable service, tear the whole
// serving process state down, restore from the same data directory, and
// resume with -start-minute. Every target and forecast afterwards must
// be bit-identical to a service that replayed the whole trace without
// interruption.
func TestReplayResumeBitIdentical(t *testing.T) {
	model := tinyTestModel(t)
	const apps, half, total = 4, 25, 50

	run := func(srvURL string, startMin, minutes int) {
		wl := syntheticWorkload(apps, startMin, minutes, 11, 0)
		// Concurrency 1: with parallel workers the per-app append order
		// varies run to run, so the two replays wouldn't be comparable.
		rep := replay(wl, replayConfig{BaseURL: srvURL, Concurrency: 1, Batch: 4, Timeout: 10 * time.Second})
		if rep.Errors != 0 || rep.ItemErrors != 0 {
			t.Fatalf("replay [%d,%d): errors=%d itemErrors=%d (%s)",
				startMin, startMin+minutes, rep.Errors, rep.ItemErrors, rep.FirstItemError)
		}
	}

	// Control: one uninterrupted in-memory service.
	ctlSrv := httptest.NewServer(knative.NewService(model).Handler())
	defer ctlSrv.Close()
	run(ctlSrv.URL, 0, total)

	// Durable service, destroyed mid-trace and restored.
	dir := t.TempDir()
	st1, err := store.Open(dir, store.Options{Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(knative.NewServiceWith(model, knative.ServiceOptions{Store: st1}).Handler())
	run(srv1.URL, 0, half)
	srv1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	svc2 := knative.NewServiceWith(model, knative.ServiceOptions{Store: st2})
	if svc2.Restored() != apps {
		t.Fatalf("restored %d apps, want %d", svc2.Restored(), apps)
	}
	srv2 := httptest.NewServer(svc2.Handler())
	defer srv2.Close()
	run(srv2.URL, half, total-half)

	for a := 0; a < apps; a++ {
		app := fmt.Sprintf("load-%d", a)
		var want, got knative.TargetResponse
		getJSON(t, ctlSrv.URL+"/v1/apps/"+app+"/target?concurrency=1", &want)
		getJSON(t, srv2.URL+"/v1/apps/"+app+"/target?concurrency=1", &got)
		if want != got {
			t.Errorf("%s: target %+v (uninterrupted) != %+v (resumed)", app, want, got)
		}
		var wantF, gotF knative.ForecastResponse
		getJSON(t, ctlSrv.URL+"/v1/apps/"+app+"/forecast?horizon=5", &wantF)
		getJSON(t, srv2.URL+"/v1/apps/"+app+"/forecast?horizon=5", &gotF)
		if len(wantF.Values) != len(gotF.Values) {
			t.Fatalf("%s: forecast lengths differ", app)
		}
		for i := range wantF.Values {
			if math.Float64bits(wantF.Values[i]) != math.Float64bits(gotF.Values[i]) {
				t.Errorf("%s: forecast[%d] %v != %v (not bit-identical)",
					app, i, wantF.Values[i], gotF.Values[i])
			}
		}
	}
}

func getJSON(t testing.TB, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
}

// TestSparseWorkloadPrefixStable: the sparse generator must have the
// same resume property as the dense one — per-app streams are seeded
// independently of the window, so head+tail at any split point is the
// full trace. It also sanity-checks the sparse shape: far fewer events
// than app-minutes, and a heavy tail (some apps near-silent, some busy).
func TestSparseWorkloadPrefixStable(t *testing.T) {
	full := sparseWorkload(40, 0, 200, 11, 1440)
	head := sparseWorkload(40, 0, 120, 11, 1440)
	tail := sparseWorkload(40, 120, 80, 11, 1440)

	if len(head.events)+len(tail.events) != len(full.events) {
		t.Fatalf("split sizes: %d + %d != %d", len(head.events), len(tail.events), len(full.events))
	}
	index := func(evs []obsEvent) map[string]float64 {
		m := make(map[string]float64, len(evs))
		for _, ev := range evs {
			m[fmt.Sprintf("%s@%d", ev.app, ev.minute)] = ev.conc
		}
		return m
	}
	want := index(full.events)
	for key, conc := range index(head.events) {
		if want[key] != conc {
			t.Errorf("head %s: %v != %v", key, conc, want[key])
		}
	}
	for key, conc := range index(tail.events) {
		if want[key] != conc {
			t.Errorf("tail %s: %v != %v (resume would diverge)", key, conc, want[key])
		}
	}
	for _, ev := range tail.events {
		if ev.minute < 120 {
			t.Fatalf("tail contains minute %d < 120", ev.minute)
		}
	}

	// Sparsity: the fleet must not observe every app every minute.
	if len(full.events) >= 40*200/2 {
		t.Fatalf("sparse trace has %d events over %d app-minutes — not sparse", len(full.events), 40*200)
	}
	// Heavy tail: per-app activity spreads widely between the busiest
	// and the median app (5x here over a 200-minute window; the spread
	// grows with the window as slow apps' gaps exceed it entirely).
	perApp := map[string]int{}
	for _, ev := range full.events {
		perApp[ev.app]++
	}
	counts := make([]int, 0, len(perApp))
	for _, c := range perApp {
		counts = append(counts, c)
	}
	sort.Ints(counts)
	if len(counts) < 10 {
		t.Fatalf("only %d apps ever fired", len(counts))
	}
	busiest, median := counts[len(counts)-1], counts[len(counts)/2]
	if median == 0 || busiest < 5*median {
		t.Errorf("rate spread busiest=%d median=%d — want heavy tail (>=5x)", busiest, median)
	}
}

// TestSparseWorkloadSeedStable: same seed, same trace; different seed,
// different trace.
func TestSparseWorkloadSeedStable(t *testing.T) {
	a := sparseWorkload(10, 0, 100, 3, 1440)
	b := sparseWorkload(10, 0, 100, 3, 1440)
	if len(a.events) != len(b.events) {
		t.Fatalf("same seed: %d vs %d events", len(a.events), len(b.events))
	}
	for i := range a.events {
		if a.events[i] != b.events[i] {
			t.Fatalf("same seed diverges at event %d", i)
		}
	}
	c := sparseWorkload(10, 0, 100, 4, 1440)
	if len(c.events) == len(a.events) {
		same := true
		for i := range c.events {
			if c.events[i] != a.events[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}
