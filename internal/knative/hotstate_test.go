package knative

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"testing"
	"unsafe"

	"github.com/ubc-cirrus-lab/femux-go/internal/femux"
	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
	"github.com/ubc-cirrus-lab/femux-go/internal/serving"
	"github.com/ubc-cirrus-lab/femux-go/internal/store"
)

// TestHotStateIsBounded drives more than ten blocks per app of observe,
// batch, target and forecast traffic through a service whose hot budget
// keeps evicting and restoring, with dropped apps and model swaps — some
// to a model of another block size or window, whose policies read their
// due blocks from the store. After every step each hot app's ring must
// hold exactly its forecaster's lookback, no slack, which is at most its
// model's Window; unless a refill from the store is pending, it must
// hold the last min(n, lookback) values of the app's stream; an app a
// swap left stale must be rebuilt on the current model by its next
// acquire; and every answer must equal an
// unbounded control's: a fresh policy of the serving model over the
// app's whole stream.
func TestHotStateIsBounded(t *testing.T) {
	models := []*femux.Model{
		muxModelA(t),                      // block 30, window 30
		muxModelB(t),                      // the same geometry
		reshaped(t, muxModelB(t), 45, 40), // a longer block
		reshaped(t, muxModelA(t), 20, 50), // a window longer than the block
	}
	const maxBlock = 45
	cur := 0
	svc := NewServiceWith(models[cur], ServiceOptions{MaxHotApps: 3})
	h := svc.Handler()
	apps := make([]string, 5)
	for i := range apps {
		apps[i] = fmt.Sprintf("bounded-%d", i)
	}
	stream := make([][]float64, len(apps))
	ws := forecast.NewWorkspace()
	levels := []float64{0.5, 0.9}

	get := func(path string, into any) {
		t.Helper()
		rec := serveInProcess(h, http.MethodGet, path, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
			t.Fatal(err)
		}
	}
	// decided compares a served decision for app i with the control's.
	decided := func(what string, i int, got TargetResponse) {
		t.Helper()
		target, name, _ := models[cur].NewAppPolicy(0).Decide(stream[i], len(stream[i]), 1, 0, ws)
		want := TargetResponse{App: apps[i], Target: target, Forecaster: name, History: len(stream[i])}
		if got != want {
			t.Fatalf("%s %s: served %+v, unbounded control %+v", what, apps[i], got, want)
		}
	}
	forecasted := func(i int) {
		t.Helper()
		var got ForecastResponse
		get("/v1/apps/"+apps[i]+"/forecast?horizon=4&quantiles=0.5,0.9", &got)
		p := models[cur].NewAppPolicy(0)
		want := p.ForecastWS(stream[i], 4, nil, ws)
		wantQ := p.ForecastQuantilesTail(stream[i], len(stream[i]), 4, levels, nil, ws)
		same := got.Forecaster == p.CurrentForecaster() && len(got.Values) == len(want) && len(got.Quantiles) == len(levels)
		for k := 0; same && k < len(want); k++ {
			same = math.Float64bits(got.Values[k]) == math.Float64bits(want[k])
			for q := range levels {
				same = same && math.Float64bits(got.Quantiles[q].Values[k]) == math.Float64bits(wantQ[q*4+k])
			}
		}
		if !same {
			t.Fatalf("forecast %s: served %s %v %+v, unbounded control %s %v %v",
				apps[i], got.Forecaster, got.Values, got.Quantiles, p.CurrentForecaster(), want, wantQ)
		}
	}
	// bounded checks every hot app's tail against its bound and stream.
	// It acquires them from the least recently touched on, which keeps
	// their LRU order.
	bounded := func(step int) {
		t.Helper()
		hot := lruNames(svc)
		slices.Reverse(hot)
		for _, name := range hot {
			i := slices.Index(apps, name)
			a := svc.acquire(name)
			m, tail, n, size := a.policy.Model(), ringTail(a), a.n, len(a.history)
			_, look, _ := a.policy.Reads(n)
			if a.due == 0 { // the next call reads the store and refills
				tail = nil
			}
			svc.releaseApp(a)
			if size != look || size > m.Config().Window {
				t.Fatalf("step %d: %s holds a ring of %d values with a lookback of %d and a window of %d",
					step, name, size, look, m.Config().Window)
			}
			if m != models[cur] {
				t.Fatalf("step %d: %s was not rebuilt on the swapped-in model by its next acquire", step, name)
			}
			if n != len(stream[i]) || tail != nil && len(tail) != min(n, look) {
				t.Fatalf("step %d: %s: tail of %d values for %d observations (lookback %d), stream of %d",
					step, name, len(tail), n, look, len(stream[i]))
			}
			for k, v := range tail {
				if math.Float64bits(v) != math.Float64bits(stream[i][n-len(tail)+k]) {
					t.Fatalf("step %d: %s: tail[%d] = %v, the stream holds %v", step, name, k, v, stream[i][n-len(tail)+k])
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(31))
	next := func(i int) float64 {
		v := shapedValue(i, len(stream[i]))
		stream[i] = append(stream[i], v)
		return v
	}
	swaps, reshapes := 0, 0
	for step := 0; ; step++ {
		done := true
		for i := range stream {
			done = done && len(stream[i]) >= 10*maxBlock
		}
		if done {
			break
		}
		switch r := rng.Intn(100); {
		case r < 55:
			i := rng.Intn(len(apps))
			rec := serveInProcess(h, http.MethodPost, "/v1/apps/"+apps[i]+"/observe",
				fmt.Sprintf(`{"concurrency": %v}`, next(i)))
			var got TargetResponse
			if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &got) != nil {
				t.Fatalf("step %d: observe: %d %s", step, rec.Code, rec.Body)
			}
			decided("observe", i, got)
		case r < 70:
			obs := make([]BatchObservation, 1+rng.Intn(6))
			for k := range obs {
				i := rng.Intn(len(apps))
				obs[k] = BatchObservation{App: apps[i], Concurrency: next(i)}
			}
			items := make([]BatchItemResult, len(obs))
			if _, err := svc.observe(obs, items); err != nil {
				t.Fatalf("step %d: batch: %v", step, err)
			}
		case r < 80:
			i := rng.Intn(len(apps))
			var got TargetResponse
			get("/v1/apps/"+apps[i]+"/target?concurrency=1", &got)
			decided("target", i, got)
		case r < 90:
			forecasted(rng.Intn(len(apps)))
		case r < 95:
			svc.dropCached(apps[rng.Intn(len(apps))])
		default:
			prev := models[cur].Config()
			cur = (cur + 1 + rng.Intn(len(models)-1)) % len(models)
			svc.SwapModel(models[cur])
			swaps++
			if next := models[cur].Config(); next.BlockSize != prev.BlockSize || next.Window != prev.Window {
				reshapes++
			}
		}
		bounded(step)
	}
	for i := range apps {
		forecasted(i)
	}
	if swaps == reshapes || reshapes == 0 || svc.Evictions() == 0 {
		t.Errorf("%d swaps, %d to another geometry, %d evictions: want swaps of both kinds and evictions",
			swaps, reshapes, svc.Evictions())
	}
}

// ringTail returns a copy of a's ring, oldest first: the last
// min(n, lookback) values of its history. Callers hold a.mu.
func ringTail(a *svcApp) []float64 {
	return femux.RingTail(a.history, a.n, make([]float64, min(a.n, len(a.history))))
}

// TestRestoreReadsOnlyThePolicysView restores an app of 300 values and
// one of 5,000, warm and cold, on a directory store: first with no memo,
// then, after each of a few rounds of observes, evicted with one. A
// restore reads the app's count and memo and decodes no value; the first
// call reads from the store only what its policy reads. The count, and
// every target and quantile forecast, must equal a never-evicted
// control's, Float64bits-equal, and after each request the workspace's
// history buffer must hold at most BlockSize+Window values (a view is at
// most max(Window, BlockSize + n%BlockSize)): no request decodes an
// app's lifetime.
func TestRestoreReadsOnlyThePolicysView(t *testing.T) {
	model := trainTinyModel(t)
	bound := model.Config().BlockSize + model.Config().Window
	levels := []float64{0.5, 0.9}
	for _, n := range []int{300, 5000} {
		for _, cold := range []bool{false, true} {
			t.Run(fmt.Sprintf("n=%d/cold=%v", n, cold), func(t *testing.T) {
				st, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever, CompactEvery: -1})
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				svc, ctl := NewServiceWith(model, ServiceOptions{Store: st, MaxHotApps: 1}), NewService(model)
				sm := svc.InstrumentWith(serving.NewRegistry())
				const name = "lived"
				seen := 0 // values of the stream handed out so far
				next := func(k int) []BatchObservation {
					obs := make([]BatchObservation, k)
					for i := range obs {
						obs[i] = BatchObservation{App: name, Concurrency: shapedValue(0, seen+i)}
					}
					seen += k
					return obs
				}
				observe := func(s *Service, obs []BatchObservation) []BatchItemResult {
					res := make([]BatchItemResult, len(obs))
					if _, err := s.observe(obs, res); err != nil {
						t.Fatal(err)
					}
					return res
				}
				// The control observes every value and is never evicted. The
				// served app's history is written to the store behind the
				// service's back, so its first touch is a restore.
				var durable []store.Observation
				for seen < n {
					obs := next(min(100, n-seen))
					observe(ctl, obs)
					for _, o := range obs {
						durable = append(durable, store.Observation{App: o.App, Concurrency: o.Concurrency})
					}
				}
				if err := st.AppendBatch(durable); err != nil {
					t.Fatal(err)
				}
				ws, wsCtl := forecast.NewWorkspace(), forecast.NewWorkspace()
				type answer struct {
					n, target  int
					forecaster string
					bands      []uint64
				}
				request := func(s *Service, ws *forecast.Workspace) answer {
					a := s.acquire(name)
					got := answer{n: a.n}
					got.target, got.forecaster = s.decide(a, ws, 1, 0, nil)
					view, due := s.view(a, 0, ws)
					for _, v := range a.policy.ForecastQuantilesTail(view, a.n, 4, levels, nil, ws) {
						got.bands = append(got.bands, math.Float64bits(v))
					}
					if due {
						a.refill(view)
					}
					s.releaseApp(a)
					return got
				}
				for round := 0; round < 4; round++ {
					if cold {
						if err := st.PageOut(name); err != nil {
							t.Fatal(err)
						}
					}
					if svc.tier.apps[name] != nil || cold && st.PagedApps() != 1 {
						t.Fatalf("round %d: the app is not demoted before its restore", round)
					}
					got, want := request(svc, ws), request(ctl, wsCtl)
					if got.n != seen || got.target != want.target || got.forecaster != want.forecaster || !slices.Equal(got.bands, want.bands) {
						t.Fatalf("round %d: restored %+v, never-evicted control %+v (%d values observed)", round, got, want, seen)
					}
					if cold && st.PagedApps() != 0 {
						t.Fatalf("round %d: the restore did not page the app in", round)
					}
					if held := cap(ws.History(0)); held > bound {
						t.Fatalf("round %d: the workspace's history buffer holds %d values after the restore, want at most %d", round, held, bound)
					}
					// A round of observes crosses a block boundary every other
					// round; observing another app evicts this one, memo and
					// all (a read of an app never observed leaves no entry).
					obs := next(model.Config().BlockSize/2 + 1)
					if got, want := observe(svc, obs), observe(ctl, obs); !slices.Equal(got, want) {
						t.Fatalf("round %d: observed %+v, the control %+v", round, got, want)
					}
					observe(svc, []BatchObservation{{App: "other", Concurrency: 1}})
				}
				if _, resumed := classifications(sm); resumed == 0 {
					t.Error("no restore resumed its policy from a memo")
				}
			})
		}
	}
}

// TestSvcAppSize pins a hot app's fixed state in the 96-byte size class:
// one more word moves every hot app to the 112-byte class.
func TestSvcAppSize(t *testing.T) {
	if got := unsafe.Sizeof(svcApp{}); got > 96 {
		t.Fatalf("unsafe.Sizeof(svcApp{}) = %d B, want at most 96", got)
	}
}

// TestTailRingWraps drives three apps through a service whose hot tails
// are rings of the keep-alive lookbacks (7 before the first block, then
// 1 or 3) and an untiered control, over a directory and a memory store at
// hot budgets 0 and 1: single observes that wrap the rings many times,
// a batch in which every app's first block falls due ahead of its later
// items, so its lookback changes mid-batch, target and forecast reads,
// drops that make the next request restore the app, and a swap to a
// model mapping every group to AR (lookback = Window, where the order
// of the view shows in every bit) and back. Every reply must equal the
// control's byte for byte: its targets, forecasts and quantile bands
// Float64bits-equal. Run under -race -count=20 in CI.
func TestTailRingWraps(t *testing.T) {
	ring := editModel(t, trainTinyModel(t), func(mj map[string]any) {
		mj["defaultForecaster"], mj["perGroup"] = "peak7", []string{"warm3", "ma1", "warm3"}
		mj["forecasters"] = append(mj["forecasters"].([]any), "peak7", "warm3")
	}, forecast.NewRecentPeak(7), forecast.NewCeilPeak(3))
	ar := editModel(t, trainTinyModel(t), func(mj map[string]any) {
		mj["defaultForecaster"], mj["perGroup"] = "ar3", []string{"ar3", "ar3", "ar3"}
		mj["forecasters"] = append(mj["forecasters"].([]any), "ar3")
	}, forecast.NewAR(3))
	bs := ring.Config().BlockSize
	for _, backend := range []string{"dir", "memory"} {
		for _, hot := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/hot=%d", backend, hot), func(t *testing.T) {
				so := ServiceOptions{MaxHotApps: hot}
				if backend == "dir" {
					st, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever, CompactEvery: -1, InlineBudget: 1})
					if err != nil {
						t.Fatal(err)
					}
					defer st.Close()
					so.Store = st
				}
				svc, ctl := NewServiceWith(ring, so), NewService(ring)
				h, hc := svc.Handler(), ctl.Handler()
				replies := 0
				same := func(method, path, body string) {
					t.Helper()
					got, want := serveInProcess(h, method, path, body), serveInProcess(hc, method, path, body)
					if got.Code != http.StatusOK || got.Body.String() != want.Body.String() {
						t.Fatalf("reply %d, %s %s %s: served %d %s, the control %d %s",
							replies, method, path, body, got.Code, got.Body, want.Code, want.Body)
					}
					replies++
				}
				apps := []string{"wrap-0", "wrap-1", "wrap-2"}
				minute := make([]int, len(apps))
				next := func(i int) float64 {
					minute[i]++
					return shapedValue(i, minute[i]-1)
				}
				observe := func(i int) {
					same(http.MethodPost, "/v1/apps/"+apps[i]+"/observe", fmt.Sprintf(`{"concurrency": %v}`, next(i)))
				}
				batch := func(idx ...int) {
					obs := make([]BatchObservation, len(idx))
					for k, i := range idx {
						obs[k] = BatchObservation{App: apps[i], Concurrency: next(i)}
					}
					same(http.MethodPost, "/v1/observe/batch", string(marshalBatch(t, obs...)))
				}
				read := func(i int) {
					same(http.MethodGet, "/v1/apps/"+apps[i]+"/target?concurrency=1", "")
					same(http.MethodGet, "/v1/apps/"+apps[i]+"/forecast?horizon=4&quantiles=0.5,0.9", "")
				}
				for m := 0; m < bs-2; m++ {
					for i := range apps {
						observe(i)
					}
				}
				batch(0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2) // n = bs-2 .. bs+1 for each app
				rng := rand.New(rand.NewSource(40))
				drive := func(steps int) {
					for k := 0; k < steps; k++ {
						switch r := rng.Intn(10); {
						case r < 5:
							observe(rng.Intn(len(apps)))
						case r < 7:
							idx := make([]int, 1+rng.Intn(6))
							for j := range idx {
								idx[j] = rng.Intn(len(apps))
							}
							batch(idx...)
						case r < 9:
							read(rng.Intn(len(apps)))
						default:
							svc.dropCached(apps[rng.Intn(len(apps))])
						}
					}
				}
				drive(8 * bs)
				for _, m := range []*femux.Model{ar, ring} {
					svc.SwapModel(m)
					ctl.SwapModel(m)
					drive(4 * bs)
				}
				for i := range apps {
					read(i)
				}
				if hot == 1 && svc.Evictions() == 0 {
					t.Errorf("no evictions at a hot budget of 1")
				}
				t.Logf("%d replies, %d evictions, %v observations per app", replies, svc.Evictions(), minute)
			})
		}
	}
}
