package knative

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
	"github.com/ubc-cirrus-lab/femux-go/internal/store"
)

// serveInProcess drives h with one request and returns the recorded reply.
func serveInProcess(h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	return rec
}

// walOrderSlips counts the positions where app's hot tail differs, in
// Float64bits, from the end of its store window: the history a restart
// or an eviction would rebuild the app from, and the one its due blocks
// are read from. After one target decision, the app's count
// must be the window's length, and its ring must hold exactly the last
// min(n, lookback) values its policy's forecaster reads.
func walOrderSlips(t testing.TB, svc *Service, app string) int {
	t.Helper()
	ws := forecast.GetWorkspace()
	a := svc.acquire(app, ws)
	svc.decide(a, ws, 1, 0, nil)
	forecast.PutWorkspace(ws)
	hot, n, size := ringTail(a), a.n, len(a.history)
	_, look, _ := a.policy.Reads(n)
	svc.releaseApp(a)
	win := svc.st.Window(app)
	if n != len(win) || len(hot) != min(n, look) || size != look {
		t.Fatalf("%s: hot tail of %d values (ring of %d) for %d observations (lookback %d), the store window %d",
			app, len(hot), size, n, look, len(win))
	}
	win = win[n-len(hot):]
	slips := 0
	for i := range hot {
		if math.Float64bits(hot[i]) != math.Float64bits(win[i]) {
			slips++
		}
	}
	return slips
}

// decideInProcess reads app's target and horizon-6 forecast through h.
func decideInProcess(t testing.TB, h http.Handler, app string) decision {
	t.Helper()
	var d decision
	for _, q := range []struct {
		path string
		into any
	}{
		{"/v1/apps/" + app + "/target?concurrency=1", &d.target},
		{"/v1/apps/" + app + "/forecast?horizon=6", &d.forecast},
	} {
		rec := serveInProcess(h, http.MethodGet, q.path, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", q.path, rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), q.into); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestConcurrentObservesKeepWALOrder races four writers observing one app,
// each value distinct, through single observes, batches, or both. When
// they finish, the app's hot history must equal its store window bit for
// bit, because the store's order is the one every restore rebuilds; and
// dropping the hot state must not change the next target or forecast.
// The model's block and window are longer than the whole stream, and its
// forecaster, a moving average over the window, reads all of it, so the
// hot tail is the whole history and every position is compared.
// Run under -race -count=20 in CI: an ordering bug shows only in some
// interleavings.
func TestConcurrentObservesKeepWALOrder(t *testing.T) {
	for _, backend := range []string{"dir", "memory"} {
		for _, mix := range []struct {
			name  string
			batch [4]bool // which writers post batches
		}{
			{"batch+batch", [4]bool{true, true, true, true}},
			{"batch+single", [4]bool{true, true, false, false}},
			{"single+single", [4]bool{}},
		} {
			t.Run(backend+"/"+mix.name, func(t *testing.T) {
				testConcurrentObservesKeepWALOrder(t, backend, mix.batch)
			})
		}
	}
}

func testConcurrentObservesKeepWALOrder(t *testing.T, backend string, batch [4]bool) {
	var so ServiceOptions
	if backend == "dir" {
		st, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		so.Store = st
	}
	const app = "ordered"
	perWriter := 400
	if testing.Short() {
		perWriter = 200
	}
	// One block and window longer than the longest (4 x 400-value) stream.
	model := editModel(t, trainTinyModel(t), func(mj map[string]any) {
		mj["blockSize"], mj["window"], mj["defaultForecaster"] = 1601, 1601, "ma1601"
		mj["forecasters"] = append(mj["forecasters"].([]any), "ma1601")
	}, forecast.NewMovingAverage(1601))
	svc := NewServiceWith(model, so)
	h := svc.Handler()
	var wg sync.WaitGroup
	for g, isBatch := range batch {
		wg.Add(1)
		go func(g int, isBatch bool) {
			defer wg.Done()
			side := fmt.Sprintf("side-%d", g)
			for k := 0; k < perWriter; k++ {
				v := float64(g*perWriter+k) + 0.25
				var rec *httptest.ResponseRecorder
				if isBatch {
					// A second app per batch: the batch locks more than one.
					rec = serveInProcess(h, http.MethodPost, "/v1/observe/batch", fmt.Sprintf(
						`{"observations":[{"app":%q,"concurrency":%g},{"app":%q,"concurrency":%g}]}`,
						app, v, side, v))
				} else {
					rec = serveInProcess(h, http.MethodPost, "/v1/apps/"+app+"/observe",
						fmt.Sprintf(`{"concurrency": %g}`, v))
				}
				if rec.Code != http.StatusOK {
					t.Errorf("writer %d: observe %d: %d %s", g, k, rec.Code, rec.Body)
					return
				}
			}
		}(g, isBatch)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	apps := []string{app}
	for g, isBatch := range batch {
		if isBatch {
			apps = append(apps, fmt.Sprintf("side-%d", g))
		}
	}
	for _, a := range apps {
		if slips := walOrderSlips(t, svc, a); slips != 0 {
			t.Errorf("%s: %d of %d hot history positions out of WAL order",
				a, slips, len(svc.st.Window(a)))
		}
	}
	before := decideInProcess(t, h, app)
	svc.dropCached(app)
	after := decideInProcess(t, h, app)
	if before.target != after.target {
		t.Errorf("target %+v before the drop, %+v after", before.target, after.target)
	}
	for i := range before.forecast.Values {
		if math.Float64bits(before.forecast.Values[i]) != math.Float64bits(after.forecast.Values[i]) {
			t.Errorf("forecast[%d] = %v before the drop, %v after", i,
				before.forecast.Values[i], after.forecast.Values[i])
		}
	}
}
