package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/femux"
	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
	"github.com/ubc-cirrus-lab/femux-go/internal/knative"
	"github.com/ubc-cirrus-lab/femux-go/internal/lifecycle"
	"github.com/ubc-cirrus-lab/femux-go/internal/rum"
	"github.com/ubc-cirrus-lab/femux-go/internal/serving"
	"github.com/ubc-cirrus-lab/femux-go/internal/store"
	"github.com/ubc-cirrus-lab/femux-go/internal/timeseries"
)

func tinyModel(t testing.TB) *femux.Model {
	t.Helper()
	return tinyModelSeeded(t, 11)
}

// tinyModelSeeded trains tinyModel's geometry on a fleet drawn from seed.
func tinyModelSeeded(t testing.TB, seed int64) *femux.Model {
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
	rng := rand.New(rand.NewSource(seed))
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

// writeModelFile saves m where a test's femuxd reads its -model.
func writeModelFile(t testing.TB, path string, m *femux.Model) {
	t.Helper()
	var b bytes.Buffer
	if err := m.Save(&b); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestParseConfig pins femuxd's command line in process: the defaults
// a command line naming only -model parses to, each refused value or
// combination (refused by parseConfig, so before any model is loaded or
// store opened) naming its flag, and each removed flag being a flag
// error rather than a setting silently ignored. The training flags left
// for femux-train.
func TestParseConfig(t *testing.T) {
	t.Run("defaults", func(t *testing.T) {
		got, err := parseConfig([]string{"-model", "m.json"})
		if err != nil {
			t.Fatal(err)
		}
		want := config{
			addr: ":8080", modelPath: "m.json",
			shutdownTimeout: 15 * time.Second,
			fsync:           "always", sync: store.SyncAlways,
			shards: 1, driftThreshold: 0.5, minImprove: 0.01,
		}
		if got != want {
			t.Errorf("parseConfig(-model m.json) = %+v\nwant %+v", got, want)
		}
	})
	// The model source: -model, or a -data-dir that may hold one.
	for _, c := range []struct {
		args []string
		want string
	}{
		{nil, "-model is required without -data-dir"},
		{[]string{"-addr", ":9090", "-shards", "2"}, "-model is required without -data-dir"},
		{[]string{"-data-dir", "d"}, ""},
	} {
		t.Run("source "+strings.Join(c.args, " "), func(t *testing.T) {
			_, err := parseConfig(c.args)
			if c.want == "" {
				if err != nil {
					t.Fatalf("refused: %v", err)
				}
			} else if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want one containing %q", err, c.want)
			}
		})
	}
	// Every other row names -model, so only its own flags decide.
	for _, c := range []struct {
		args []string
		want string // "" = accepted; else a substring of the error
	}{
		{[]string{"-shards", "2", "-shard-id", "1"}, ""},
		{[]string{"-shards", "2", "-shard-id", "2"}, "-shard-id"},
		{[]string{"-shard-id", "-1"}, "-shard-id"},
		{[]string{"-shards", "0"}, "-shard-id"},
		{[]string{"-max-warm-apps", "10", "-data-dir", "d"}, ""},
		{[]string{"-max-warm-apps", "10"}, "-max-warm-apps requires -data-dir"},
		{[]string{"-fsync", "interval"}, ""},
		{[]string{"-fsync", "bogus"}, "-fsync"},
		{[]string{"-quantile-level", "0.95"}, ""},
		{[]string{"-quantile-level", "1"}, "-quantile-level"},
		{[]string{"-quantile-level", "-0.1"}, "-quantile-level"},
		{[]string{"-quantile-level", "NaN"}, "-quantile-level"},
		{[]string{"-window-cap", "100"}, "flag provided but not defined: -window-cap"},
		{[]string{"-replica-of", "http://127.0.0.1:1"}, "flag provided but not defined: -replica-of"},
		{[]string{"-repl-interval", "100ms"}, "flag provided but not defined: -repl-interval"},
		{[]string{"-request-timeout", "10s"}, "flag provided but not defined: -request-timeout"},
		{[]string{"-fsync-interval", "100ms"}, "flag provided but not defined: -fsync-interval"},
		{[]string{"-compact-every", "256"}, "flag provided but not defined: -compact-every"},
		{[]string{"-watch-interval", "2s"}, "flag provided but not defined: -watch-interval"},
		{[]string{"-shadow-window", "100"}, "flag provided but not defined: -shadow-window"},
		{[]string{"-watch-model", "-model", "m.json"}, "flag provided but not defined: -watch-model"},
		{[]string{"-promote-save", "m.json"}, "flag provided but not defined: -promote-save"},
		{[]string{"-apps", "apps.csv"}, "flag provided but not defined: -apps"},
		{[]string{"-invocations", "inv.csv"}, "flag provided but not defined: -invocations"},
		{[]string{"-fleet", "8"}, "flag provided but not defined: -fleet"},
		{[]string{"-days", "0.5"}, "flag provided but not defined: -days"},
		{[]string{"-seed", "1"}, "flag provided but not defined: -seed"},
		{[]string{"-block", "60"}, "flag provided but not defined: -block"},
		{[]string{"-workers", "2"}, "flag provided but not defined: -workers"},
		{[]string{"-save", "m.json"}, "flag provided but not defined: -save"},
	} {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			_, err := parseConfig(append([]string{"-model", "m.json"}, c.args...))
			if c.want == "" {
				if err != nil {
					t.Fatalf("refused: %v", err)
				}
			} else if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want one containing %q", err, c.want)
			}
		})
	}
}

// TestBootModel pins where femuxd's boot model comes from: a store that
// holds a model serves it, and -model is only logged; an empty store is
// seeded from -model, which it then holds; an empty store with no
// -model is refused, naming femux-train, and one whose -model is
// missing or truncated is refused, naming it; a refused store still
// holds nothing.
func TestBootModel(t *testing.T) {
	saved := func(m *femux.Model) []byte {
		var b bytes.Buffer
		if err := m.Save(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	storedModel, fileModel := tinyModel(t), tinyModelSeeded(t, 12)
	if bytes.Equal(saved(storedModel), saved(fileModel)) {
		t.Fatal("the two models save to the same bytes: the test cannot tell them apart")
	}
	for _, c := range []struct {
		name       string
		stored     *femux.Model // in the store before boot
		model      string       // -model: "" none, "file" holding fileModel, "missing", "truncated"
		serve      *femux.Model // want served and held by the store after boot
		wantErr    string
		wantLogged []string
	}{
		{"stored model served, -model logged", storedModel, "file", storedModel, "",
			[]string{"serving the model stored in", "is not the stored model"}},
		{"empty store seeded from -model", nil, "file", fileModel, "",
			[]string{"loaded model from"}},
		{"empty store without -model refused", nil, "", nil, "femux-train", nil},
		{"empty store with a missing -model refused", nil, "missing", nil, "-model", nil},
		{"empty store with a truncated -model refused", nil, "truncated", nil, "model.json", nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := config{dataDir: filepath.Join(dir, "data")}
			if c.model != "" {
				cfg.modelPath = filepath.Join(dir, "model.json")
			}
			switch c.model {
			case "file":
				writeModelFile(t, cfg.modelPath, fileModel)
			case "truncated":
				b := saved(fileModel)
				if err := os.WriteFile(cfg.modelPath, b[:len(b)/2], 0o644); err != nil {
					t.Fatal(err)
				}
			}
			st, err := store.Open(cfg.dataDir, store.Options{Sync: store.SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if c.stored != nil {
				if err := st.SaveModel(saved(c.stored)); err != nil {
					t.Fatal(err)
				}
			}
			var logs strings.Builder
			log.SetOutput(&logs)
			defer log.SetOutput(os.Stderr)

			m, err := bootModel(cfg, st)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, c.wantErr)
				}
				if st.Model() != nil {
					t.Error("a refused boot stored a model")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if want := saved(c.serve); !bytes.Equal(saved(m), want) {
				t.Error("bootModel serves the wrong model")
			} else if !bytes.Equal(st.Model(), want) {
				t.Error("the store does not hold the served model")
			}
			for _, want := range c.wantLogged {
				if !strings.Contains(logs.String(), want) {
					t.Errorf("boot did not log %q:\n%s", want, logs.String())
				}
			}
		})
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
	srv := httptest.NewServer(newHandler(svc, reg, rebuild, logger, nil))
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

	// Started without -model (a -data-dir that held one): a reload fails,
	// naming the flag, and swaps nothing.
	noModel := httptest.NewServer(newHandler(svc, serving.NewRegistry(), config{}.loadModel, logger, nil))
	defer noModel.Close()
	resp, err = http.Post(noModel.URL+"/v1/admin/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(msg), "-model") {
		t.Errorf("reload without -model = %d %q, want 500 naming -model", resp.StatusCode, msg)
	}
	if svc.Model() != next || svc.Reloads() != 1 {
		t.Error("a reload without -model must not swap the model")
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
		"\nfemux_observations_total 1\n",
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
	off := httptest.NewServer(newHandler(svc, reg, rebuild, logger, nil))
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
	srv := httptest.NewServer(newHandler(svc, reg, rebuild, logger, lcm))
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

// TestStoreFsyncsMetric pins femux_store_fsyncs_total on the store
// femuxd opens: without -data-dir it reads 0 after a Sync and a
// compaction, which reach no disk; with -data-dir it counts each.
func TestStoreFsyncsMetric(t *testing.T) {
	for _, c := range []struct {
		name string
		open func() (*store.Store, error)
		want string
	}{
		{"memory", func() (*store.Store, error) { return store.OpenMemory(), nil }, "femux_store_fsyncs_total 0\n"},
		{"data_dir", func() (*store.Store, error) {
			return store.Open(t.TempDir(), store.Options{Sync: store.SyncNever, CompactEvery: -1})
		}, "femux_store_fsyncs_total 2\n"},
	} {
		t.Run(c.name, func(t *testing.T) {
			st, err := c.open()
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			reg := serving.NewRegistry()
			registerStoreMetrics(reg, st.Stats)
			for _, step := range []func() error{
				func() error { return st.Append("a", 1) }, st.Sync,
				func() error { return st.Append("a", 2) }, st.Compact,
			} {
				if err := step(); err != nil {
					t.Fatal(err)
				}
			}
			rec := httptest.NewRecorder()
			reg.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
			if !strings.Contains(rec.Body.String(), c.want) {
				t.Errorf("scrape lacks %q:\n%s", c.want, rec.Body.String())
			}
		})
	}
}

// TestStoreMetricsOneStatsReadPerScrape pins that a /metrics scrape
// reads the store's stats once, however many store gauges it renders,
// and that every gauge reports that read.
func TestStoreMetricsOneStatsReadPerScrape(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i, app := range []string{"a", "b", "c", "a"} {
		if err := st.Append(app, float64(i)+0.5); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.PageOut("b"); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	calls := 0
	reg := serving.NewRegistry()
	registerStoreMetrics(reg, func() store.Stats { calls++; return st.Stats() })

	for scrape := 1; scrape <= 2; scrape++ {
		rec := httptest.NewRecorder()
		reg.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if calls != scrape {
			t.Fatalf("after %d scrapes, %d stats reads", scrape, calls)
		}
		got := map[string]string{}
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			if name, v, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
				got[name] = v
			}
		}
		s := st.Stats()
		for name, want := range map[string]int64{
			"femux_store_observations":      s.Observations,
			"femux_store_apps":              int64(s.Apps),
			"femux_store_wal_bytes":         s.WALBytes,
			"femux_store_wal_segments":      int64(s.Segments),
			"femux_store_fsyncs_total":      s.Fsyncs,
			"femux_store_paged_apps":        int64(s.PagedApps),
			"femux_store_page_bytes":        s.PageBytes,
			"femux_store_window_bytes":      s.WindowBytes,
			"femux_store_page_outs_total":   s.PageOuts,
			"femux_store_page_errors_total": s.PageErrors,
		} {
			if got[name] != strconv.FormatInt(want, 10) {
				t.Errorf("%s = %q, want %d", name, got[name], want)
			}
		}
		if len(got) != 10 {
			t.Errorf("scrape has %d metrics, want the 10 store ones:\n%s", len(got), rec.Body.String())
		}
	}
	if s := st.Stats(); s.PagedApps != 1 || s.Observations != 4 || s.WALBytes == 0 {
		t.Errorf("store state too trivial to check the gauges: %+v", s)
	}
}

// TestObserveReplyMatchesStore drives femuxd's handler chain with
// concurrent observes over shared apps: every observe answered 200 is
// in the store, and the store holds nothing else. A server-side
// deadline that answers 503 while the abandoned handler still commits
// breaks the second half, and a client that retries such an answer
// counts one interval twice.
func TestObserveReplyMatchesStore(t *testing.T) {
	model := tinyModel(t)
	st := store.OpenMemory()
	svc := knative.NewServiceWith(model, knative.ServiceOptions{Store: st})
	reg := serving.NewRegistry()
	svc.InstrumentWith(reg)
	srv := httptest.NewServer(newHandler(svc, reg,
		func() (*femux.Model, error) { return model, nil }, log.New(io.Discard, "", 0), nil))
	defer srv.Close()

	const clients, perClient = 8, 50
	apps := []string{"pay", "auth", "feed", "mail"}
	var mu sync.Mutex
	acked, refused := map[string][]float64{}, 0
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				app, v := apps[(c+i)%len(apps)], float64(c*perClient+i)+0.25
				resp, err := http.Post(srv.URL+"/v1/apps/"+app+"/observe", "application/json",
					strings.NewReader(fmt.Sprintf(`{"concurrency": %g}`, v)))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				mu.Lock()
				if resp.StatusCode == http.StatusOK {
					acked[app] = append(acked[app], v)
				} else {
					refused++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if refused > 0 {
		t.Errorf("%d of %d observes were not answered 200", refused, clients*perClient)
	}
	stored := st.Windows()
	for _, app := range apps {
		got, want := stored[app], acked[app]
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s: store holds %d observations, %d were answered 200; they differ", app, len(got), len(want))
		}
		delete(stored, app)
	}
	for app := range stored {
		t.Errorf("store holds app %q, which no observe named", app)
	}
}
