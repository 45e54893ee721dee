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
)

// TestHotStateIsBounded drives more than ten blocks per app of observe,
// batch, target and forecast traffic through a service whose hot budget
// keeps evicting and restoring, with dropped apps and model swaps — some
// to a model of another block size or window, whose policies read their
// due blocks from the store. After every step each hot app's tail must
// have a capacity of at most its model's Window+tailSlack, and of at most
// its forecaster's lookback+tailSlack once its policy has classified;
// it must hold what that forecaster reads, end the app's stream and be
// served by the current model; and every answer must equal an unbounded
// control's: a fresh policy of the serving model over the app's whole
// stream.
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
			m, tail, n, size := a.policy.Model(), append([]float64(nil), a.history...), a.n, cap(a.history)
			_, look, _ := a.policy.Reads(n)
			_, classified := a.policy.Classified(n)
			refill := a.due == 0 // the next call reads the store
			a.mu.Unlock()
			if bound := m.Config().Window + tailSlack; size > bound {
				t.Fatalf("step %d: %s holds a tail of capacity %d after %d observations, over the bound %d",
					step, name, size, n, bound)
			}
			if bound := look + tailSlack; classified && size > bound {
				t.Fatalf("step %d: %s holds a tail of capacity %d with a lookback of %d, over the bound %d",
					step, name, size, look, bound)
			}
			if m != models[cur] {
				t.Fatalf("step %d: %s is served by a model swapped out", step, name)
			}
			if n != len(stream[i]) || len(tail) < min(n, look) && !refill || len(tail) > n {
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

// TestSvcAppSize pins a hot app's fixed state in the 240-byte size class:
// one more word moves every hot app to the 256-byte class.
func TestSvcAppSize(t *testing.T) {
	if got := unsafe.Sizeof(svcApp{}); got > 240 {
		t.Fatalf("unsafe.Sizeof(svcApp{}) = %d B, want at most 240", got)
	}
}
