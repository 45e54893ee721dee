package knative

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ubc-cirrus-lab/femux-go/internal/serving"
	"github.com/ubc-cirrus-lab/femux-go/internal/store"
)

// postBatchJSON posts raw bytes to the batch endpoint and decodes a 200
// reply (the caller checks the status for error paths).
func postBatchJSON(t testing.TB, url string, body []byte) (*http.Response, BatchObserveResponse) {
	t.Helper()
	resp, err := http.Post(url+"/v1/observe/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out BatchObserveResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding batch response: %v", err)
		}
	}
	return resp, out
}

func marshalBatch(t testing.TB, obs ...BatchObservation) []byte {
	t.Helper()
	b, err := json.Marshal(BatchObserveRequest{Observations: obs})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// scrapeSum renders the registry and sums one metric family, so tests can
// assert counters from the same surface operators scrape.
func scrapeSum(t testing.TB, reg *serving.Registry, name string) float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var sum float64
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if len(rest) == 0 || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		// Label values may contain spaces, so split at the closing brace
		// (the sample value is a bare number, so the last '}' is
		// structural), not on whitespace.
		val := rest
		if i := strings.LastIndexByte(rest, '}'); i >= 0 {
			val = rest[i+1:]
		}
		var v float64
		if _, err := fmt.Sscanf(strings.TrimSpace(val), "%g", &v); err == nil {
			sum += v
		}
	}
	return sum
}

func TestBatchObserveHappyPath(t *testing.T) {
	svc, reg, srv := newInstrumentedServer(t)
	const rounds = 3
	apps := []string{"alpha", "beta", "gamma"}
	for round := 1; round <= rounds; round++ {
		obs := make([]BatchObservation, len(apps))
		for i, app := range apps {
			obs[i] = BatchObservation{App: app, Concurrency: float64(i + round)}
		}
		resp, out := postBatchJSON(t, srv.URL, marshalBatch(t, obs...))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: status = %d", round, resp.StatusCode)
		}
		if out.Accepted != len(apps) || out.Rejected != 0 {
			t.Fatalf("round %d: accepted=%d rejected=%d", round, out.Accepted, out.Rejected)
		}
		if len(out.Results) != len(apps) {
			t.Fatalf("round %d: %d results", round, len(out.Results))
		}
		for i, res := range out.Results {
			if res.App != apps[i] {
				t.Errorf("round %d item %d: app %q, want %q (order lost)", round, i, res.App, apps[i])
			}
			if res.Error != "" || res.History != round || res.Forecaster == "" || res.Target < 0 {
				t.Errorf("round %d item %d: %+v", round, i, res)
			}
		}
	}
	if got := svc.Apps(); got != len(apps) {
		t.Errorf("apps tracked = %d, want %d", got, len(apps))
	}
	if got := scrapeSum(t, reg, "femux_observations_total"); got != float64(rounds*len(apps)) {
		t.Errorf("femux_observations_total = %g, want %d", got, rounds*len(apps))
	}
	if got := scrapeSum(t, reg, "femux_batch_requests_total"); got != rounds {
		t.Errorf("femux_batch_requests_total = %g, want %d", got, rounds)
	}
}

func TestBatchObservePartialFailure(t *testing.T) {
	_, reg, srv := newInstrumentedServer(t)
	resp, out := postBatchJSON(t, srv.URL, marshalBatch(t,
		BatchObservation{App: "good-1", Concurrency: 2},
		BatchObservation{App: "", Concurrency: 1},
		BatchObservation{App: "bad", Concurrency: -3},
		BatchObservation{App: "good-2", Concurrency: 0.5},
	))
	// Partial failure is HTTP 200 with per-item errors — the contract
	// femux-load's exit code depends on.
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 with per-item errors", resp.StatusCode)
	}
	if out.Accepted != 2 || out.Rejected != 2 {
		t.Fatalf("accepted=%d rejected=%d, want 2/2", out.Accepted, out.Rejected)
	}
	for _, i := range []int{1, 2} {
		if out.Results[i].Error == "" {
			t.Errorf("item %d: rejected item has no error: %+v", i, out.Results[i])
		}
	}
	for _, i := range []int{0, 3} {
		if out.Results[i].Error != "" || out.Results[i].History != 1 {
			t.Errorf("item %d: valid item not applied: %+v", i, out.Results[i])
		}
	}
	if got := scrapeSum(t, reg, "femux_observations_total"); got != 2 {
		t.Errorf("femux_observations_total = %g, want 2", got)
	}
}

func TestBatchObserveErrorPaths(t *testing.T) {
	_, reg, srv := newInstrumentedServer(t)

	tooMany := make([]BatchObservation, maxBatchItems+1)
	for i := range tooMany {
		tooMany[i] = BatchObservation{App: "a", Concurrency: 1}
	}
	cases := []struct {
		name   string
		method string
		body   []byte
		want   int
	}{
		{"wrong method", "GET", nil, http.StatusMethodNotAllowed},
		{"malformed json", "POST", []byte(`{"observations": [nope`), http.StatusBadRequest},
		{"wrong type", "POST", []byte(`{"observations": "lots"}`), http.StatusBadRequest},
		{"empty batch", "POST", []byte(`{"observations": []}`), http.StatusBadRequest},
		{"missing field", "POST", []byte(`{}`), http.StatusBadRequest},
		{"too many items", "POST", marshalBatch(t, tooMany...), http.StatusBadRequest},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, srv.URL+"/v1/observe/batch", bytes.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status = %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
	// None of the failed requests may move the observation counters.
	if got := scrapeSum(t, reg, "femux_observations_total"); got != 0 {
		t.Errorf("femux_observations_total = %g after only failed batches", got)
	}
	if got := scrapeSum(t, reg, "femux_batch_requests_total"); got != 0 {
		t.Errorf("femux_batch_requests_total = %g after only failed batches", got)
	}
}

// TestBatchObserveGroupCommit proves the WAL group-commit property the
// batch path exists for: one fsync per batch request, not per
// observation.
func TestBatchObserveGroupCommit(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	svc := NewServiceWith(trainTinyModel(t), ServiceOptions{Store: st})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	const batches, perBatch = 4, 25
	for b := 0; b < batches; b++ {
		obs := make([]BatchObservation, perBatch)
		for i := range obs {
			obs[i] = BatchObservation{App: fmt.Sprintf("gc-%d", i), Concurrency: float64(b)}
		}
		resp, out := postBatchJSON(t, srv.URL, marshalBatch(t, obs...))
		if resp.StatusCode != http.StatusOK || out.Accepted != perBatch {
			t.Fatalf("batch %d: status=%d accepted=%d", b, resp.StatusCode, out.Accepted)
		}
	}
	stats := st.Stats()
	if stats.Observations != batches*perBatch {
		t.Errorf("durable observations = %d, want %d", stats.Observations, batches*perBatch)
	}
	if stats.Fsyncs != batches {
		t.Errorf("fsyncs = %d, want %d (one per batch, not %d per observation)",
			stats.Fsyncs, batches, batches*perBatch)
	}
}

// TestServiceRestartBitIdenticalForecasts is the in-process zero-state-
// loss oracle: a durable service is fed a mixed single/batch workload,
// torn down, and rebuilt from the same data directory; every target and
// forecast it serves afterwards must be bit-identical to an
// uninterrupted service that saw the same stream.
func TestServiceRestartBitIdenticalForecasts(t *testing.T) {
	model := trainTinyModel(t)
	dir := t.TempDir()
	apps := []string{"pay", "auth", "feed", "img", "cron"}

	feed := func(srvURL string, from, to int) {
		for m := from; m < to; m++ {
			// Odd minutes arrive as singles, even minutes as one batch.
			if m%2 == 1 {
				for i, app := range apps {
					body := fmt.Sprintf(`{"concurrency": %g}`, float64((m+i)%6)+0.25)
					resp, err := http.Post(srvURL+"/v1/apps/"+app+"/observe",
						"application/json", strings.NewReader(body))
					if err != nil {
						t.Fatal(err)
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("observe minute %d: %d", m, resp.StatusCode)
					}
				}
				continue
			}
			obs := make([]BatchObservation, len(apps))
			for i, app := range apps {
				obs[i] = BatchObservation{App: app, Concurrency: float64((m+i)%6) + 0.25}
			}
			resp, out := postBatchJSON(t, srvURL, marshalBatch(t, obs...))
			if resp.StatusCode != http.StatusOK || out.Rejected != 0 {
				t.Fatalf("batch minute %d: status=%d rejected=%d", m, resp.StatusCode, out.Rejected)
			}
		}
	}

	// Uninterrupted control: in-memory service over the full stream.
	ctl := NewService(model)
	ctlSrv := httptest.NewServer(ctl.Handler())
	defer ctlSrv.Close()
	feed(ctlSrv.URL, 0, 80)

	// Durable service, killed (store closed, process state dropped) at
	// minute 40 and restarted from the same directory.
	st1, err := store.Open(dir, store.Options{Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	svc1 := NewServiceWith(model, ServiceOptions{Store: st1})
	srv1 := httptest.NewServer(svc1.Handler())
	feed(srv1.URL, 0, 40)
	srv1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	svc2 := NewServiceWith(model, ServiceOptions{Store: st2})
	if svc2.Restored() != len(apps) {
		t.Fatalf("restored %d apps, want %d", svc2.Restored(), len(apps))
	}
	srv2 := httptest.NewServer(svc2.Handler())
	defer srv2.Close()
	feed(srv2.URL, 40, 80)

	for _, app := range apps {
		a, b := fetchDecision(t, ctlSrv.URL, app), fetchDecision(t, srv2.URL, app)
		if a.target.History != b.target.History {
			t.Errorf("%s: history %d (control) != %d (restarted)", app, a.target.History, b.target.History)
		}
		if a.target.Target != b.target.Target || a.target.Forecaster != b.target.Forecaster {
			t.Errorf("%s: target %+v != %+v", app, a.target, b.target)
		}
		if len(a.forecast.Values) != len(b.forecast.Values) {
			t.Fatalf("%s: forecast lengths %d != %d", app, len(a.forecast.Values), len(b.forecast.Values))
		}
		for i := range a.forecast.Values {
			if math.Float64bits(a.forecast.Values[i]) != math.Float64bits(b.forecast.Values[i]) {
				t.Errorf("%s: forecast[%d] %v != %v (not bit-identical)",
					app, i, a.forecast.Values[i], b.forecast.Values[i])
			}
		}
	}
}

type decision struct {
	target   TargetResponse
	forecast ForecastResponse
}

func fetchDecision(t testing.TB, srvURL, app string) decision {
	t.Helper()
	var d decision
	resp, err := http.Get(srvURL + "/v1/apps/" + app + "/target?concurrency=1")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&d.target); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(srvURL + "/v1/apps/" + app + "/forecast?horizon=6")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&d.forecast); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return d
}

// FuzzBatchObserve hammers the batch endpoint with arbitrary bodies. The
// invariants: the server never panics, answers only 200/400/413, the
// observation counter moves in lockstep with the Accepted counts it
// acknowledged — a malformed body changes nothing — and every app an
// accepted body touched counts its store window's length and holds its
// end as the hot tail, in order, however often the body named it.
func FuzzBatchObserve(f *testing.F) {
	f.Add([]byte(`{"observations":[{"app":"a","concurrency":1.5}]}`))
	f.Add([]byte(`{"observations":[]}`))
	f.Add([]byte(`{"observations":[{"app":"","concurrency":1}]}`))
	f.Add([]byte(`{"observations":[{"app":"x","concurrency":-2}]}`))
	f.Add([]byte(`{"observations": [nope`))
	f.Add([]byte(`{}`))
	f.Add([]byte{0x00, 0xff, 0x13, 0x37})
	f.Add([]byte(`{"observations":[{"app":"a","concurrency":1e308},{"app":"b","concurrency":0}]}`))
	for _, body := range nonCanonicalBodies {
		f.Add([]byte(body))
	}

	svc := NewService(trainTinyModel(f))
	reg := serving.NewRegistry()
	svc.InstrumentWith(reg)
	handler := svc.Handler()

	// The handler is driven in-process (no real sockets): panics surface
	// in the test instead of being swallowed by the HTTP server goroutine,
	// and no transport flake can desync the accepted-count oracle.
	accepted := 0
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/observe/batch", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		handler.ServeHTTP(rec, req)
		resp := rec.Result()
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			var out BatchObserveResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatalf("200 with undecodable body: %v", err)
			}
			if out.Accepted+out.Rejected != len(out.Results) {
				t.Fatalf("accounting broken: accepted=%d rejected=%d results=%d",
					out.Accepted, out.Rejected, len(out.Results))
			}
			accepted += out.Accepted
			for _, res := range out.Results {
				if res.Error != "" {
					continue
				}
				if slips := walOrderSlips(t, svc, res.App); slips != 0 {
					t.Fatalf("%q: %d hot history positions out of WAL order", res.App, slips)
				}
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			// rejected wholesale; counters must not move (checked below)
		default:
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
		if got := scrapeSum(t, reg, "femux_observations_total"); got != float64(accepted) {
			t.Fatalf("femux_observations_total = %g, want %d (exactly the acknowledged items)",
				got, accepted)
		}
	})
}

// TestBatchObserveStoreFailure: when the WAL cannot commit, the batch
// must fail as a whole with 500 and apply nothing in memory — an
// unacknowledged observation must not influence forecasts.
func TestBatchObserveStoreFailure(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	svc := NewServiceWith(trainTinyModel(t), ServiceOptions{Store: st})
	reg := serving.NewRegistry()
	svc.InstrumentWith(reg)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	if err := st.Close(); err != nil { // closed store: every append fails
		t.Fatal(err)
	}
	resp, _ := postBatchJSON(t, srv.URL, marshalBatch(t,
		BatchObservation{App: "doomed", Concurrency: 1}))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("batch against closed store = %d, want 500", resp.StatusCode)
	}
	if got := scrapeSum(t, reg, "femux_observations_total"); got != 0 {
		t.Errorf("observations counted despite failed commit: %g", got)
	}
	if got := scrapeSum(t, reg, "femux_store_errors_total"); got == 0 {
		t.Error("femux_store_errors_total not incremented")
	}
	if svc.Apps() != 0 {
		t.Errorf("app state created despite failed commit: %d apps", svc.Apps())
	}
}

// TestBatchReadsDueBlockBehindLaterItems pins the batch trap. A batch
// commits every item before it applies any, so when an item completes
// an app's block the store already holds the batch's later items for
// that app, and the block must be read that many values before the
// window's end. One batch names an app at n = BlockSize-1, BlockSize and
// BlockSize+1, beside another app; every target, forecaster and history
// length it answers, and the app's forecast with quantile bands after
// it, must be Float64bits-equal to an untiered control fed the same
// values one observe at a time — over a directory and a memory store, at
// hot budgets 0 and 1. Run under -race -count=20 in CI.
func TestBatchReadsDueBlockBehindLaterItems(t *testing.T) {
	// A block longer than the window: the ring cannot hold it, so the
	// block comes from the store.
	model := reshaped(t, muxModelA(t), 64, 16)
	bs := model.Config().BlockSize
	// Consecutive values always differ, so a view off by one shows.
	value := func(app, m int) float64 { return float64((m*7+app*3)%11) + 0.5 }
	for _, backend := range []string{"dir", "memory"} {
		for _, hot := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/hot=%d", backend, hot), func(t *testing.T) {
				so := ServiceOptions{MaxHotApps: hot}
				if backend == "dir" {
					st, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever})
					if err != nil {
						t.Fatal(err)
					}
					defer st.Close()
					so.Store = st
				}
				srv := httptest.NewServer(NewServiceWith(model, so).Handler())
				defer srv.Close()
				ctl := httptest.NewServer(NewService(model).Handler())
				defer ctl.Close()
				apps := []string{"trap", "beside"}
				for m := 0; m < bs-2; m++ {
					for i, app := range apps {
						for _, url := range []string{srv.URL, ctl.URL} {
							if code := postObserve(t, url, app, value(i, m)); code != http.StatusOK {
								t.Fatalf("observe: %d", code)
							}
						}
					}
				}
				batch := []BatchObservation{
					{App: apps[0], Concurrency: value(0, bs-2)},
					{App: apps[1], Concurrency: value(1, bs-2)},
					{App: apps[0], Concurrency: value(0, bs-1)},
					{App: apps[0], Concurrency: value(0, bs)},
				}
				resp, out := postBatchJSON(t, srv.URL, marshalBatch(t, batch...))
				if resp.StatusCode != http.StatusOK || out.Rejected != 0 {
					t.Fatalf("batch: %d, %d rejected", resp.StatusCode, out.Rejected)
				}
				for k, item := range batch {
					want := observeReply(t, ctl.URL, item)
					got := out.Results[k]
					if got.Target != want.Target || got.Forecaster != want.Forecaster || got.History != want.History {
						t.Fatalf("item %d (%s): batch answers %+v, the control %+v", k, item.App, got, want)
					}
				}
				for _, app := range apps {
					a, b := fetchDecision(t, ctl.URL, app), fetchDecision(t, srv.URL, app)
					if a.target != b.target || a.forecast.Forecaster != b.forecast.Forecaster || !sameFloats(a.forecast.Values, b.forecast.Values) {
						t.Fatalf("%s: served %+v %+v, the control %+v %+v", app, b.target, b.forecast, a.target, a.forecast)
					}
					qa, qb := fetchQuantileBands(t, ctl.URL, app), fetchQuantileBands(t, srv.URL, app)
					if len(qa) != len(qb) {
						t.Fatalf("%s: %d quantile bands, the control %d", app, len(qb), len(qa))
					}
					for q := range qa {
						if qa[q].Level != qb[q].Level || !sameFloats(qa[q].Values, qb[q].Values) {
							t.Fatalf("%s: band %v, the control %v", app, qb[q], qa[q])
						}
					}
				}
			})
		}
	}
}

// observeReply posts one observe and decodes its reply.
func observeReply(t testing.TB, url string, obs BatchObservation) TargetResponse {
	t.Helper()
	resp, err := http.Post(url+"/v1/apps/"+obs.App+"/observe", "application/json",
		strings.NewReader(fmt.Sprintf(`{"concurrency": %v}`, obs.Concurrency)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out TargetResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("observe %s: %d %v", obs.App, resp.StatusCode, err)
	}
	return out
}

// sameFloats reports whether a and b hold the same values, bit for bit.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestLostPageBatchKeepsBlockDue drives a hot app whose store copy is
// paged out and then lost — its page file corrupted — before its first
// block is due, so the views its due block is read from fall short of
// the block and of the forecaster's lookback: one batch still answers
// every item, with the app's count; the block stays due and unclassified;
// and the app classifies it once the store again holds a whole block.
func TestLostPageBatchKeepsBlockDue(t *testing.T) {
	model := reshaped(t, muxModelA(t), 64, 16)
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Sync: store.SyncNever, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	svc := NewServiceWith(model, ServiceOptions{Store: st})
	sm := svc.InstrumentWith(serving.NewRegistry())
	const app, before = "lost", 56
	value := func(m int) float64 { return float64((m*7)%11) + 0.5 }
	results := make([]BatchItemResult, 16)
	observe := func(from, to int) {
		t.Helper()
		items := make([]BatchObservation, 0, to-from)
		for m := from; m < to; m++ {
			items = append(items, BatchObservation{App: app, Concurrency: value(m)})
		}
		if n, err := svc.observe(items, results[:len(items)]); err != nil || n != len(items) {
			t.Fatalf("observe %d..%d applied %d: %v", from, to, n, err)
		}
		for k, res := range results[:len(items)] {
			if res.Error != "" || res.History != from+k+1 || res.Forecaster == "" {
				t.Fatalf("item %d answered %+v", from+k, res)
			}
		}
	}
	for m := 0; m < before; m++ {
		observe(m, m+1)
	}
	if err := st.PageOut(app); err != nil {
		t.Fatal(err)
	}
	pages, err := filepath.Glob(filepath.Join(dir, "page-*.page"))
	if err != nil || len(pages) != 1 {
		t.Fatalf("page files %v: %v", pages, err)
	}
	data, err := os.ReadFile(pages[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] ^= 0xff
	}
	if err := os.WriteFile(pages[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	// The store now holds only the batch: the item that completes the
	// block reads 8 of the 64 values it asks for, fewer than the 16 its
	// forecaster reads.
	observe(before, before+16)
	a := svc.tier.apps[app]
	if _, _, due := a.policy.Reads(a.n); due != 64 {
		t.Fatalf("after the batch the next block is due at %d, want 64", due)
	}
	if extract, _ := classifications(sm); extract != 0 {
		t.Fatalf("%d blocks classified from short views", extract)
	}
	if st.Stats().PageErrors != 1 {
		t.Fatalf("page errors %d, want 1", st.Stats().PageErrors)
	}
	// At 128 the store holds 72 values, the whole block [64, 128).
	for m := before + 16; m < 127; m++ {
		observe(m, m+1)
	}
	if extract, _ := classifications(sm); extract != 0 {
		t.Fatalf("%d blocks classified before the store held one", extract)
	}
	observe(127, 128)
	if extract, _ := classifications(sm); extract != 1 {
		t.Fatalf("%d blocks classified once the store held one, want 1", extract)
	}
}
