package knative

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"testing"
	"unsafe"

	"github.com/ubc-cirrus-lab/femux-go/internal/femux"
	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
	"github.com/ubc-cirrus-lab/femux-go/internal/store"
)

// TestHotStateIsBounded drives more than ten blocks per app of observe,
// batch, target and forecast traffic through a service whose hot budget
// keeps evicting and restoring, with dropped apps and model swaps — some
// to a model of another block size or window, whose policies read their
// due blocks from the store. After every step each hot app's ring must
// hold exactly its forecaster's lookback, no slack, which is at most its
// model's Window; unless a refill from the store is pending, it must
// hold the last min(n, lookback) values of the app's stream; the app
// must be served by the current model; and every answer must equal an
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
		wantQ := p.ForecastQuantilesWS(stream[i], 4, levels, nil, ws)
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
	bounded := func(step int) {
		t.Helper()
		svc.tier.mu.Lock()
		hot := make(map[string]*svcApp, len(svc.tier.apps))
		for name, a := range svc.tier.apps {
			hot[name] = a
		}
		svc.tier.mu.Unlock()
		for i, name := range apps {
			a := hot[name]
			if a == nil {
				continue
			}
			a.mu.Lock()
			if a.gone {
				a.mu.Unlock()
				continue
			}
			m, tail, n, size := a.policy.Model(), ringTail(a), a.n, len(a.history)
			_, look, _ := a.policy.Reads(n)
			if a.due == 0 { // the next call reads the store and refills
				tail = nil
			}
			a.mu.Unlock()
			if size != look || size > m.Config().Window {
				t.Fatalf("step %d: %s holds a ring of %d values with a lookback of %d and a window of %d",
					step, name, size, look, m.Config().Window)
			}
			if m != models[cur] {
				t.Fatalf("step %d: %s is served by a model swapped out", step, name)
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

// TestLongRestoreLendsNoWorkspace restores an app of 300 values and one
// of maxLentWindow+1. The first is decoded into the request's workspace,
// the second into a buffer of its own, so a pooled workspace keeps no
// buffer sized by the longest-lived app. Both come back whole: the count
// and the ring's values match what was observed.
func TestLongRestoreLendsNoWorkspace(t *testing.T) {
	st := store.OpenMemory()
	defer st.Close()
	svc := NewServiceWith(trainTinyModel(t), ServiceOptions{Store: st})
	for _, n := range []int{300, maxLentWindow + 1} {
		name := fmt.Sprintf("lived-%d", n)
		series := make([]float64, n)
		obs := make([]store.Observation, n)
		for i := range obs {
			series[i] = float64(i%13) + 0.25
			obs[i] = store.Observation{App: name, Concurrency: series[i]}
		}
		if err := st.AppendBatch(obs); err != nil {
			t.Fatal(err)
		}
		ws := forecast.NewWorkspace()
		a := svc.materialize(name, ws)
		tail := ringTail(a)
		if a.n != n || !sameFloats(tail, series[n-len(tail):]) {
			t.Fatalf("%s: restored %d values, ring %v; want %d ending %v", name, a.n, tail, n, series[n-len(tail):])
		}
		lent := cap(ws.History(0))
		if n <= maxLentWindow && lent < n || n > maxLentWindow && lent > maxLentWindow {
			t.Fatalf("%s: the workspace's history buffer holds %d values after the restore", name, lent)
		}
	}
}

// TestSvcAppSize pins a hot app's fixed state in the 240-byte size class:
// one more word moves every hot app to the 256-byte class.
func TestSvcAppSize(t *testing.T) {
	if got := unsafe.Sizeof(svcApp{}); got > 240 {
		t.Fatalf("unsafe.Sizeof(svcApp{}) = %d B, want at most 240", got)
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
