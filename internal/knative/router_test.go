package knative

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/ubc-cirrus-lab/femux-go/internal/store"
)

// newFleet stands up n Services sharing one model, each owning its hash
// partition, plus a ShardRouter in front. Returns the per-shard services
// and the router's test server.
func newFleet(t testing.TB, n int) ([]*Service, *httptest.Server) {
	t.Helper()
	model := trainTinyModel(t)
	svcs := make([]*Service, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		svcs[i] = NewServiceWith(model, ServiceOptions{ShardID: i, Shards: n})
		srv := httptest.NewServer(svcs[i].Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	rt, err := NewShardRouter(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	return svcs, front
}

// TestShardFleetEquivalence is the routing property test: a sharded
// fleet behind the router must be observationally identical to a single
// unsharded instance — same per-app histories, same targets, and
// bit-identical forecasts — for fleets of 2 and 3 shards, under a mixed
// single/batch workload.
func TestShardFleetEquivalence(t *testing.T) {
	for _, shards := range []int{2, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			model := trainTinyModel(t)
			single := NewService(model)
			ctl := httptest.NewServer(single.Handler())
			defer ctl.Close()

			svcs, front := newFleet(t, shards)

			apps := make([]string, 12)
			for i := range apps {
				apps[i] = fmt.Sprintf("svc-%c", 'a'+i)
			}
			rng := rand.New(rand.NewSource(42))
			const minutes = 45
			for m := 0; m < minutes; m++ {
				if m%3 == 0 { // whole fleet in one batch through the router
					obs := make([]BatchObservation, len(apps))
					for i, app := range apps {
						obs[i] = BatchObservation{App: app, Concurrency: math.Round(rng.Float64()*500) / 100}
					}
					for _, url := range []string{ctl.URL, front.URL} {
						resp, out := postBatchJSON(t, url, marshalBatch(t, obs...))
						if resp.StatusCode != http.StatusOK || out.Rejected != 0 {
							t.Fatalf("minute %d via %s: status=%d rejected=%d", m, url, resp.StatusCode, out.Rejected)
						}
					}
					continue
				}
				for i, app := range apps {
					body := fmt.Sprintf(`{"concurrency": %g}`, float64((m*7+i*3)%9)+0.5)
					for _, url := range []string{ctl.URL, front.URL} {
						resp, err := http.Post(url+"/v1/apps/"+app+"/observe",
							"application/json", strings.NewReader(body))
						if err != nil {
							t.Fatal(err)
						}
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							t.Fatalf("minute %d app %s via %s: %d", m, app, url, resp.StatusCode)
						}
					}
				}
			}

			// Every app lives on exactly the shard ShardOf says, and the
			// union of shard-local app sets is the whole fleet.
			total := 0
			for _, svc := range svcs {
				total += svc.Apps()
			}
			if total != len(apps) {
				t.Errorf("fleet tracks %d apps total, want %d (no app may be split or duplicated)", total, len(apps))
			}

			for _, app := range apps {
				want, got := fetchDecision(t, ctl.URL, app), fetchDecision(t, front.URL, app)
				if want.target != got.target {
					t.Errorf("%s: target %+v (single) != %+v (routed fleet)", app, want.target, got.target)
				}
				if len(want.forecast.Values) != len(got.forecast.Values) {
					t.Fatalf("%s: forecast lengths differ", app)
				}
				for i := range want.forecast.Values {
					if math.Float64bits(want.forecast.Values[i]) != math.Float64bits(got.forecast.Values[i]) {
						t.Errorf("%s: forecast[%d] not bit-identical: %v != %v",
							app, i, want.forecast.Values[i], got.forecast.Values[i])
					}
				}
			}
		})
	}
}

// TestShardMisrouteRejected: an instance must refuse to build history
// for an app it does not own — a misconfigured client talking straight
// to the wrong shard gets 421, on both the single and the batch path.
func TestShardMisrouteRejected(t *testing.T) {
	svcs, _ := newFleet(t, 2)
	// Find an app owned by shard 1 and post it to shard 0 directly.
	foreign := ""
	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("probe-%d", i)
		if store.ShardOf(name, 2) == 1 {
			foreign = name
			break
		}
	}
	if foreign == "" {
		t.Fatal("no shard-1 app found in 100 probes")
	}
	srv0 := httptest.NewServer(svcs[0].Handler())
	defer srv0.Close()

	resp, err := http.Post(srv0.URL+"/v1/apps/"+foreign+"/observe",
		"application/json", strings.NewReader(`{"concurrency": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Errorf("foreign observe = %d, want 421", resp.StatusCode)
	}

	respB, out := postBatchJSON(t, srv0.URL, marshalBatch(t,
		BatchObservation{App: foreign, Concurrency: 1}))
	if respB.StatusCode != http.StatusOK || out.Rejected != 1 {
		t.Errorf("foreign batch item: status=%d rejected=%d, want 200 with 1 rejection",
			respB.StatusCode, out.Rejected)
	}
	if out.Results[0].Error == "" || !strings.Contains(out.Results[0].Error, "shard") {
		t.Errorf("foreign batch item error = %q", out.Results[0].Error)
	}
	if svcs[0].Apps() != 0 {
		t.Errorf("misrouted traffic created app state: %d apps", svcs[0].Apps())
	}
}

// TestShardRouterBatchOrderPreserved: the router splits one batch across
// shards and must stitch the per-item results back into input order.
func TestShardRouterBatchOrderPreserved(t *testing.T) {
	_, front := newFleet(t, 3)
	obs := make([]BatchObservation, 30)
	for i := range obs {
		obs[i] = BatchObservation{App: fmt.Sprintf("ord-%d", i), Concurrency: float64(i)}
	}
	resp, out := postBatchJSON(t, front.URL, marshalBatch(t, obs...))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out.Accepted != len(obs) || out.Rejected != 0 {
		t.Fatalf("accepted=%d rejected=%d", out.Accepted, out.Rejected)
	}
	for i, res := range out.Results {
		if res.App != obs[i].App {
			t.Errorf("result %d: app %q, want %q", i, res.App, obs[i].App)
		}
		if res.Error != "" {
			t.Errorf("result %d: %s", i, res.Error)
		}
	}
}

// TestShardRouterEscapedAppNames sends apps whose names need escaping in
// a path through a 2-shard router: each is observed once (x/y through a
// batch, the only way to create it; the others on its escaped per-app
// path), then read on its escaped target path, then observed through
// HTTPProvider, then read again. Every step must answer 200 with the
// app's history, and the app must live on the shard that owns it.
func TestShardRouterEscapedAppNames(t *testing.T) {
	svcs, front := newFleet(t, 2)
	p := &HTTPProvider{BaseURL: front.URL}
	for _, c := range []struct {
		name  string
		batch bool
	}{{"a b", false}, {"a?b", false}, {"a#b", false}, {"a%b", false}, {"x/y", true}} {
		path := front.URL + "/v1/apps/" + url.PathEscape(c.name)
		target := func(want int) {
			t.Helper()
			resp, body := doReq(t, "GET", path+"/target?concurrency=2", "")
			var tr TargetResponse
			if resp.StatusCode != http.StatusOK || json.Unmarshal([]byte(body), &tr) != nil ||
				tr.App != c.name || tr.History != want {
				t.Errorf("%q: target = %d %q, want 200 with historyLen %d", c.name, resp.StatusCode, body, want)
			}
		}
		if c.batch {
			resp, out := postBatchJSON(t, front.URL, marshalBatch(t, BatchObservation{App: c.name, Concurrency: 1}))
			if resp.StatusCode != http.StatusOK || out.Accepted != 1 || out.Results[0].History != 1 {
				t.Fatalf("%q: batch = %d %+v", c.name, resp.StatusCode, out)
			}
		} else {
			resp, body := doReq(t, "POST", path+"/observe", `{"concurrency": 1}`)
			var tr TargetResponse
			if resp.StatusCode != http.StatusOK || json.Unmarshal([]byte(body), &tr) != nil ||
				tr.App != c.name || tr.History != 1 {
				t.Errorf("%q: observe = %d %q, want 200 with historyLen 1", c.name, resp.StatusCode, body)
			}
		}
		target(1)
		if _, ok := p.Target(c.name, 2, 1); !ok {
			t.Errorf("%q: HTTPProvider.Target failed", c.name)
		}
		target(2)
		if n := svcs[store.ShardOf(c.name, 2)].st.Window(c.name); len(n) != 2 {
			t.Errorf("%q: owning shard holds %d observations, want 2", c.name, len(n))
		}
	}
}

// TestShardRouterBackendDown: a dead shard degrades, not destroys — its
// slice of a batch comes back as per-item errors while the live shard
// commits, per-app requests to it return 502, and /healthz goes red.
func TestShardRouterBackendDown(t *testing.T) {
	model := trainTinyModel(t)
	live := NewServiceWith(model, ServiceOptions{ShardID: 0, Shards: 2})
	liveSrv := httptest.NewServer(live.Handler())
	defer liveSrv.Close()
	deadSrv := httptest.NewServer(http.NotFoundHandler())
	deadURL := deadSrv.URL
	deadSrv.Close() // connection refused from here on

	rt, err := NewShardRouter([]string{liveSrv.URL, deadURL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz with dead shard = %d, want 503", resp.StatusCode)
	}

	// Assemble a batch with items for both shards.
	var obs []BatchObservation
	var liveApps, deadApps int
	for i := 0; liveApps == 0 || deadApps == 0 || len(obs) < 8; i++ {
		app := fmt.Sprintf("deg-%d", i)
		if store.ShardOf(app, 2) == 0 {
			liveApps++
		} else {
			deadApps++
		}
		obs = append(obs, BatchObservation{App: app, Concurrency: 1})
	}
	respB, out := postBatchJSON(t, front.URL, marshalBatch(t, obs...))
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("degraded batch status = %d", respB.StatusCode)
	}
	if out.Accepted != liveApps || out.Rejected != deadApps {
		t.Errorf("accepted=%d rejected=%d, want %d/%d", out.Accepted, out.Rejected, liveApps, deadApps)
	}
	for i, res := range out.Results {
		dead := store.ShardOf(obs[i].App, 2) == 1
		if dead && res.Error == "" {
			t.Errorf("item %d on dead shard has no error", i)
		}
		if !dead && res.Error != "" {
			t.Errorf("item %d on live shard failed: %s", i, res.Error)
		}
	}

	// Per-app request to an app owned by the dead shard: 502.
	var deadApp string
	for _, o := range obs {
		if store.ShardOf(o.App, 2) == 1 {
			deadApp = o.App
			break
		}
	}
	resp, err = http.Get(front.URL + "/v1/apps/" + deadApp + "/target")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("target via dead shard = %d, want 502", resp.StatusCode)
	}
}

// TestShardRouterReloadFanout: one reload at the router must hit every
// backend; any backend failing turns the fan-out into a 502 so the
// operator knows part of the fleet serves a stale model.
func TestShardRouterReloadFanout(t *testing.T) {
	var hits [2]atomic.Int64
	var fail atomic.Bool
	mk := func(i int) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/admin/reload" || r.Method != http.MethodPost {
				http.NotFound(w, r)
				return
			}
			hits[i].Add(1)
			if i == 1 && fail.Load() {
				http.Error(w, "retrain failed", http.StatusInternalServerError)
				return
			}
			fmt.Fprintln(w, `{"reloads": 1}`)
		}))
	}
	b0, b1 := mk(0), mk(1)
	defer b0.Close()
	defer b1.Close()
	rt, err := NewShardRouter([]string{b0.URL, b1.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp, err := http.Post(front.URL+"/v1/admin/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var results []struct {
		Shard  int    `json:"shard"`
		Status int    `json:"status"`
		Error  string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&results); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("fan-out reload = %d, want 200", resp.StatusCode)
	}
	if hits[0].Load() != 1 || hits[1].Load() != 1 {
		t.Errorf("reload hits = %d/%d, want 1/1", hits[0].Load(), hits[1].Load())
	}
	if len(results) != 2 {
		t.Errorf("results = %+v", results)
	}

	fail.Store(true)
	resp, err = http.Post(front.URL+"/v1/admin/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("partial reload failure = %d, want 502", resp.StatusCode)
	}

	// GET is not a reload.
	resp, err = http.Get(front.URL + "/v1/admin/reload")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET reload = %d, want 405", resp.StatusCode)
	}
}

// TestBatchItemDegradation pins satellite behavior: a dead shard
// degrades that slice of a routed batch to per-item 503s (retryable,
// the healthy shard still commits), while a misrouted app posted
// directly to the wrong instance gets a per-item 421 naming its owner.
func TestBatchItemDegradation(t *testing.T) {
	model := trainTinyModel(t)
	svcs := make([]*Service, 2)
	urls := make([]string, 2)
	srvs := make([]*httptest.Server, 2)
	for i := range svcs {
		svcs[i] = NewServiceWith(model, ServiceOptions{ShardID: i, Shards: 2})
		srvs[i] = httptest.NewServer(svcs[i].Handler())
		defer srvs[i].Close()
		urls[i] = srvs[i].URL
	}
	rt, err := NewShardRouter(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// One app per shard.
	var app0, app1 string
	for i := 0; app0 == "" || app1 == ""; i++ {
		name := fmt.Sprintf("deg-%d", i)
		if store.ShardOf(name, 2) == 0 && app0 == "" {
			app0 = name
		} else if store.ShardOf(name, 2) == 1 && app1 == "" {
			app1 = name
		}
	}

	// Direct misroute: per-item 421 with the owner identified.
	resp, out := postBatchJSON(t, urls[0], marshalBatch(t,
		BatchObservation{App: app0, Concurrency: 1},
		BatchObservation{App: app1, Concurrency: 1}))
	if resp.StatusCode != http.StatusOK || out.Accepted != 1 || out.Rejected != 1 {
		t.Fatalf("direct misroute: status=%d accepted=%d rejected=%d", resp.StatusCode, out.Accepted, out.Rejected)
	}
	mis := out.Results[1]
	if mis.Status != http.StatusMisdirectedRequest || mis.Owner == nil || *mis.Owner != 1 {
		t.Fatalf("misrouted item = %+v, want Status 421 Owner 1", mis)
	}

	// Dead shard behind the router: that slice degrades to per-item 503,
	// the live shard's slice still commits.
	srvs[1].Close()
	resp, out = postBatchJSON(t, front.URL, marshalBatch(t,
		BatchObservation{App: app0, Concurrency: 2},
		BatchObservation{App: app1, Concurrency: 2}))
	if resp.StatusCode != http.StatusOK || out.Accepted != 1 || out.Rejected != 1 {
		t.Fatalf("dead shard: status=%d accepted=%d rejected=%d", resp.StatusCode, out.Accepted, out.Rejected)
	}
	dead := out.Results[1]
	if dead.Status != http.StatusServiceUnavailable || dead.Error == "" {
		t.Fatalf("dead-shard item = %+v, want Status 503 with error", dead)
	}
	if live := out.Results[0]; live.Error != "" {
		t.Fatalf("live-shard item rejected alongside the dead shard: %+v", live)
	}
}

// TestShardRouterRefusesReplicaGroups pins the deletion of router
// failover: a backend spec that still names a primary|replica group is
// refused with an error saying what recovery is now, not routed to its
// first URL.
func TestShardRouterRefusesReplicaGroups(t *testing.T) {
	for _, backends := range [][]string{
		{"http://127.0.0.1:9090|http://127.0.0.1:9190"},
		{"http://127.0.0.1:9090", "http://127.0.0.1:9091|"},
	} {
		_, err := NewShardRouter(backends, nil)
		if err == nil || !strings.Contains(err.Error(), "recovery is a restart") {
			t.Errorf("NewShardRouter(%q) = %v, want an error saying recovery is a restart", backends, err)
		}
	}
	for _, backends := range [][]string{{""}, {"http://127.0.0.1:9090", " "}} {
		if _, err := NewShardRouter(backends, nil); err == nil {
			t.Errorf("NewShardRouter(%q) accepted an empty backend", backends)
		}
	}
}
