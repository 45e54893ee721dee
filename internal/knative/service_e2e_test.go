package knative

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"

	"github.com/ubc-cirrus-lab/femux-go/internal/serving"
	"github.com/ubc-cirrus-lab/femux-go/internal/store"
)

func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{Sync: store.SyncNever, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func postObserve(t *testing.T, baseURL, app string, conc float64) int {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/apps/"+app+"/observe", "application/json",
		strings.NewReader(fmt.Sprintf(`{"concurrency": %g}`, conc)))
	if err != nil {
		t.Fatalf("observe %s: %v", app, err)
	}
	defer resp.Body.Close()
	return resp.StatusCode
}

func mustObserve(t *testing.T, baseURL, app string, conc float64) {
	t.Helper()
	if code := postObserve(t, baseURL, app, conc); code != http.StatusOK {
		t.Fatalf("observe %s via %s: HTTP %d", app, baseURL, code)
	}
}

// newInstrumentedServer stands up the same stack femuxd serves in
// production: service handler behind instrument + body-limit middleware,
// with /metrics mounted on the same mux.
func newInstrumentedServer(t testing.TB) (*Service, *serving.Registry, *httptest.Server) {
	t.Helper()
	svc := NewService(trainTinyModel(t))
	reg := serving.NewRegistry()
	reg.RegisterGoMetrics()
	svc.InstrumentWith(reg)
	hm := serving.NewHTTPMetrics(reg)
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/", svc.Handler())
	srv := httptest.NewServer(hm.Instrument(mux))
	t.Cleanup(srv.Close)
	return svc, reg, srv
}

func doReq(t *testing.T, method, url, body string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp, readAll(t, resp)
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return b.String()
}

// TestHealthzReportsFailedWAL: once the store's WAL fails — here a
// segment rotation into a data directory deleted underneath it — every
// observe after the failure answers 500, and /healthz answers 503 with
// the error, so a router's health loop fails the instance over. The
// observe whose own write landed before the rotation failed is acked.
func TestHealthzReportsFailedWAL(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Sync: store.SyncNever, SegmentBytes: 1, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := httptest.NewServer(NewServiceWith(trainTinyModel(t), ServiceOptions{Store: st}).Handler())
	defer srv.Close()
	mustObserve(t, srv.URL, "app", 1)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if code := postObserve(t, srv.URL, "app", 2); code != http.StatusOK {
		t.Fatalf("observe written before the failed rotation = %d, want 200", code)
	}
	for i := 0; i < 2; i++ {
		if code := postObserve(t, srv.URL, "app", 2); code != http.StatusInternalServerError {
			t.Fatalf("observe %d over a failed WAL = %d, want 500", i, code)
		}
	}
	if resp, body := doReq(t, "GET", srv.URL+"/healthz", ""); resp.StatusCode != http.StatusServiceUnavailable ||
		!strings.Contains(body, "opening segment") {
		t.Fatalf("healthz over a failed WAL = %d %q, want 503 with the error", resp.StatusCode, body)
	}
}

func TestE2EHappyPaths(t *testing.T) {
	svc, _, srv := newInstrumentedServer(t)

	// /healthz
	resp, body := doReq(t, "GET", srv.URL+"/healthz", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}

	// observe grows history and returns a decision.
	var tr TargetResponse
	for i := 1; i <= 4; i++ {
		resp, body = doReq(t, "POST", srv.URL+"/v1/apps/web/observe",
			`{"concurrency": 3, "unitConcurrency": 2}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("observe %d = %d %q", i, resp.StatusCode, body)
		}
		if err := json.Unmarshal([]byte(body), &tr); err != nil {
			t.Fatal(err)
		}
		if tr.History != i {
			t.Errorf("observe %d: history = %d", i, tr.History)
		}
	}
	if tr.App != "web" || tr.Forecaster == "" || tr.Target < 0 {
		t.Errorf("bad target response: %+v", tr)
	}

	// target is read-only.
	resp, body = doReq(t, "GET", srv.URL+"/v1/apps/web/target?concurrency=2", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("target = %d", resp.StatusCode)
	}
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.History != 4 {
		t.Errorf("target grew history to %d", tr.History)
	}

	// forecast returns exactly horizon values.
	resp, body = doReq(t, "GET", srv.URL+"/v1/apps/web/forecast?horizon=7", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forecast = %d", resp.StatusCode)
	}
	var fr ForecastResponse
	if err := json.Unmarshal([]byte(body), &fr); err != nil {
		t.Fatal(err)
	}
	if len(fr.Values) != 7 || fr.Forecaster == "" {
		t.Errorf("forecast response: %+v", fr)
	}

	if svc.Apps() != 1 {
		t.Errorf("apps tracked = %d", svc.Apps())
	}
}

func TestE2EErrorPaths(t *testing.T) {
	_, _, srv := newInstrumentedServer(t)
	oversized := `{"concurrency": 1, "pad": "` + strings.Repeat("x", maxObserveBody+1) + `"}`
	cases := []struct {
		name, method, path, body string
		wantStatus               int
	}{
		{"wrong method observe", "GET", "/v1/apps/x/observe", "", http.StatusMethodNotAllowed},
		{"wrong method target", "POST", "/v1/apps/x/target", "{}", http.StatusMethodNotAllowed},
		{"wrong method forecast", "DELETE", "/v1/apps/x/forecast", "", http.StatusMethodNotAllowed},
		{"malformed json", "POST", "/v1/apps/x/observe", "{nope", http.StatusBadRequest},
		{"wrong body type", "POST", "/v1/apps/x/observe", `{"concurrency": "high"}`, http.StatusBadRequest},
		{"negative concurrency", "POST", "/v1/apps/x/observe", `{"concurrency": -4}`, http.StatusBadRequest},
		{"oversized payload", "POST", "/v1/apps/x/observe", oversized, http.StatusRequestEntityTooLarge},
		{"unknown action", "GET", "/v1/apps/x/selfdestruct", "", http.StatusNotFound},
		{"empty app name", "GET", "/v1/apps//target", "", http.StatusNotFound},
		{"missing action", "GET", "/v1/apps/x", "", http.StatusNotFound},
		{"bare prefix", "GET", "/v1/apps/", "", http.StatusNotFound},
		{"bad target concurrency", "GET", "/v1/apps/x/target?concurrency=-2", "", http.StatusBadRequest},
		{"non-numeric concurrency", "GET", "/v1/apps/x/target?concurrency=lots", "", http.StatusBadRequest},
		{"zero horizon", "GET", "/v1/apps/x/forecast?horizon=0", "", http.StatusBadRequest},
		{"huge horizon", "GET", "/v1/apps/x/forecast?horizon=99999", "", http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, _ := doReq(t, c.method, srv.URL+c.path, c.body)
		if resp.StatusCode != c.wantStatus {
			t.Errorf("%s: %s %s = %d, want %d", c.name, c.method, c.path, resp.StatusCode, c.wantStatus)
		}
	}
}

// TestE2EObserveReplies pins a single observe's whole reply — status,
// headers and body, byte for byte — down its precedence chain: a bad path
// beats a misroute, which beats the method,
// the body size, the body, the value, and the store. Each case breaks
// every later rule too, so a reordered check changes its reply.
func TestE2EObserveReplies(t *testing.T) {
	model := trainTinyModel(t)
	var own, foreign string // shards 0 and 1 of 2
	for i := 0; own == "" || foreign == ""; i++ {
		name := fmt.Sprintf("app-%d", i)
		switch {
		case store.ShardOf(name, 2) == 1:
			if foreign == "" {
				foreign = name
			}
		case own == "":
			own = name
		}
	}
	sharded := NewServiceWith(model, ServiceOptions{Shards: 2})
	st, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	closed := NewServiceWith(model, ServiceOptions{Store: st, Shards: 2})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	oversized := `{"concurrency": -1, "pad": "` + strings.Repeat("x", maxObserveBody) + `"}`
	cases := []struct {
		name         string
		svc          *Service
		method, path string
		body         string
		want         string
	}{
		{"404 path", sharded, "GET", "/v1/apps/" + foreign + "/observe/more", "{bad",
			"404\nContent-Type: text/plain; charset=utf-8\nX-Content-Type-Options: nosniff\nexpected /v1/apps/{app}/{observe|target|forecast}\n"},
		{"421 foreign", sharded, "GET", "/v1/apps/" + foreign + "/observe", "{bad",
			"421\nContent-Type: text/plain; charset=utf-8\nX-Content-Type-Options: nosniff\nX-Femux-Owner: 1\napp \"app-3\" belongs to shard 1, this instance is shard 0 of 2\n"},
		{"405 method", sharded, "GET", "/v1/apps/" + own + "/observe", oversized,
			"405\nContent-Type: text/plain; charset=utf-8\nX-Content-Type-Options: nosniff\nobserve requires POST\n"},
		{"413 size", sharded, "POST", "/v1/apps/" + own + "/observe", oversized,
			"413\nContent-Type: text/plain; charset=utf-8\nX-Content-Type-Options: nosniff\nbody exceeds 1048576 bytes\n"},
		{"400 body", sharded, "POST", "/v1/apps/" + own + "/observe", `{"concurrency": "high"}`,
			"400\nContent-Type: text/plain; charset=utf-8\nX-Content-Type-Options: nosniff\nbad body: json: cannot unmarshal string into Go struct field ObserveRequest.concurrency of type float64\n"},
		{"400 negative", closed, "POST", "/v1/apps/" + own + "/observe", `{"concurrency": -1}`,
			"400\nContent-Type: text/plain; charset=utf-8\nX-Content-Type-Options: nosniff\nconcurrency must be non-negative\n"},
		{"500 store", closed, "POST", "/v1/apps/" + own + "/observe", `{"concurrency": 1}`,
			"500\nContent-Type: text/plain; charset=utf-8\nX-Content-Type-Options: nosniff\ndurable store append failed: store: closed\n"},
		{"200", sharded, "POST", "/v1/apps/" + own + "/observe", `{"concurrency": 2.5, "unitConcurrency": 2}`,
			"200\nContent-Type: application/json\n{\"app\":\"app-0\",\"target\":2,\"forecaster\":\"fft10\",\"historyLen\":1}\n"},
	}
	for _, c := range cases {
		rec := serveInProcess(c.svc.Handler(), c.method, c.path, c.body)
		var got strings.Builder
		fmt.Fprintf(&got, "%d\n", rec.Code)
		keys := make([]string, 0, len(rec.Header()))
		for k := range rec.Header() {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&got, "%s: %s\n", k, strings.Join(rec.Header()[k], ","))
		}
		got.WriteString(rec.Body.String())
		if got.String() != c.want {
			t.Errorf("%s: reply\n%q\nwant\n%q", c.name, got.String(), c.want)
		}
	}
}

func TestE2EMetricsMatchTraffic(t *testing.T) {
	svc, _, srv := newInstrumentedServer(t)
	const observes, targets, forecasts = 7, 3, 2
	for i := 0; i < observes; i++ {
		resp, _ := doReq(t, "POST", srv.URL+"/v1/apps/m/observe", `{"concurrency": 1}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("observe = %d", resp.StatusCode)
		}
	}
	for i := 0; i < targets; i++ {
		doReq(t, "GET", srv.URL+"/v1/apps/m/target", "")
	}
	for i := 0; i < forecasts; i++ {
		doReq(t, "GET", srv.URL+"/v1/apps/m/forecast", "")
	}
	doReq(t, "POST", srv.URL+"/v1/apps/m/observe", "{bad") // 400: counted by HTTP, not by app metrics

	resp, body := doReq(t, "GET", srv.URL+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	wants := []string{
		fmt.Sprintf(`femux_http_requests_total{endpoint="observe",method="POST",code="200"} %d`, observes),
		`femux_http_requests_total{endpoint="observe",method="POST",code="400"} 1`,
		fmt.Sprintf(`femux_http_requests_total{endpoint="target",method="GET",code="200"} %d`, targets),
		fmt.Sprintf(`femux_http_requests_total{endpoint="forecast",method="GET",code="200"} %d`, forecasts),
		fmt.Sprintf("\nfemux_observations_total %d\n", observes),
		fmt.Sprintf("\nfemux_targets_total %d\n", targets),
		fmt.Sprintf("\nfemux_forecasts_total %d\n", forecasts),
		`femux_apps 1`,
		`femux_model_reloads_total 0`,
		fmt.Sprintf(`femux_model_info{default_forecaster="%s",clusters="%d"} 1`,
			svc.Model().DefaultForecaster().Name(), svc.Model().Diag.Clusters),
		fmt.Sprintf(`femux_http_request_duration_seconds_count{endpoint="observe"} %d`, observes+1),
		"go_goroutines",
	}
	for _, w := range wants {
		if !strings.Contains(body, w) {
			t.Errorf("metrics missing %q", w)
		}
	}
	if strings.Contains(body, `app="`) {
		t.Error("a metric family has an app label")
	}
	if t.Failed() {
		t.Logf("scrape:\n%s", body)
	}
}

func TestE2EHotReloadKeepsHistory(t *testing.T) {
	svc, _, srv := newInstrumentedServer(t)
	for i := 0; i < 5; i++ {
		doReq(t, "POST", srv.URL+"/v1/apps/keep/observe", `{"concurrency": 2}`)
	}
	next := trainTinyModel(t)
	svc.SwapModel(next)
	if svc.Model() != next {
		t.Fatal("model not swapped")
	}
	if svc.Reloads() != 1 {
		t.Errorf("reloads = %d", svc.Reloads())
	}
	resp, body := doReq(t, "GET", srv.URL+"/v1/apps/keep/target", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("target after reload = %d", resp.StatusCode)
	}
	var tr TargetResponse
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.History != 5 {
		t.Errorf("history after reload = %d, want 5 (preserved)", tr.History)
	}
	_, body = doReq(t, "GET", srv.URL+"/metrics", "")
	if !strings.Contains(body, "femux_model_reloads_total 1") {
		t.Errorf("reload counter missing:\n%s", body)
	}
	if strings.Count(body, "femux_model_info{") != 1 {
		t.Errorf("stale model_info child left behind:\n%s", body)
	}
}
