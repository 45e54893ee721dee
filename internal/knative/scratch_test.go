package knative

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"testing"

	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
)

// TestBorrowedWorkspacesAreScratch: concurrent requests for many apps,
// under a hot budget that keeps evicting them, share pooled workspaces.
// Every reply — observe, target, forecast with quantile bands — must
// equal, in Float64bits, a fresh policy over the app's whole stream
// computed in a workspace of its own: nothing carries
// over from one app, or one request, to the next. The apps fall in
// different cluster groups, so one workspace serves FFT, smoothing and
// moving-average forecasts in turn. Under -race a workspace lent to two
// requests at once is a data race in the kernels.
func TestBorrowedWorkspacesAreScratch(t *testing.T) {
	model := muxModelA(t)
	svc := NewServiceWith(model, ServiceOptions{MaxHotApps: 3})
	h := svc.Handler()
	const goroutines, appsEach = 4, 3
	steps := 240
	if testing.Short() {
		steps = 120
	}
	levels := []float64{0.5, 0.9}

	// drive runs one goroutine's requests over its own apps, checking
	// each reply against its control; it returns the first mismatch.
	drive := func(g int) error {
		ws := forecast.NewWorkspace()
		rng := rand.New(rand.NewSource(int64(g)))
		stream := make([][]float64, appsEach)
		get := func(path string, into any) error {
			rec := serveInProcess(h, http.MethodGet, path, "")
			if rec.Code != http.StatusOK {
				return fmt.Errorf("GET %s: %d %s", path, rec.Code, rec.Body)
			}
			return json.Unmarshal(rec.Body.Bytes(), into)
		}
		for step := 0; step < steps; step++ {
			k := rng.Intn(appsEach)
			i := g*appsEach + k
			app := fmt.Sprintf("scratch-%d", i)
			r := rng.Intn(100)
			if len(stream[k]) == 0 {
				r = 0
			}
			switch {
			case r < 80:
				var got TargetResponse
				if r < 60 {
					v := shapedValue(i, len(stream[k]))
					stream[k] = append(stream[k], v)
					rec := serveInProcess(h, http.MethodPost, "/v1/apps/"+app+"/observe",
						fmt.Sprintf(`{"concurrency": %v}`, v))
					if rec.Code != http.StatusOK {
						return fmt.Errorf("observe %s: %d %s", app, rec.Code, rec.Body)
					}
					if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
						return err
					}
				} else if err := get("/v1/apps/"+app+"/target?concurrency=1", &got); err != nil {
					return err
				}
				target, name, _ := model.NewAppPolicy(0).Decide(stream[k], len(stream[k]), 1, 0, ws)
				want := TargetResponse{App: app, Target: target, Forecaster: name, History: len(stream[k])}
				if got != want {
					return fmt.Errorf("step %d %s: served %+v, own-workspace control %+v", step, app, got, want)
				}
			default:
				var got ForecastResponse
				if err := get("/v1/apps/"+app+"/forecast?horizon=4&quantiles=0.5,0.9", &got); err != nil {
					return err
				}
				p := model.NewAppPolicy(0)
				want := p.ForecastWS(stream[k], 4, nil, ws)
				wantQ := p.ForecastQuantilesTail(stream[k], len(stream[k]), 4, levels, nil, ws)
				same := got.Forecaster == p.CurrentForecaster() && len(got.Values) == len(want) && len(got.Quantiles) == len(levels)
				for s := 0; same && s < len(want); s++ {
					same = math.Float64bits(got.Values[s]) == math.Float64bits(want[s])
					for q := range levels {
						same = same && math.Float64bits(got.Quantiles[q].Values[s]) == math.Float64bits(wantQ[q*4+s])
					}
				}
				if !same {
					return fmt.Errorf("step %d %s: forecast %s %v %+v, own-workspace control %s %v %v",
						step, app, got.Forecaster, got.Values, got.Quantiles, p.CurrentForecaster(), want, wantQ)
				}
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if err := drive(g); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	if svc.Evictions() == 0 {
		t.Error("no evictions: the hot budget never bound")
	}
}
