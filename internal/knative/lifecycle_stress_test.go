package knative

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/lifecycle"
)

// TestStressObserveDuringRetrainAndReload extends the reload stress to
// the full lifecycle: workers hammer observes on overlapping apps while
// one goroutine drives retrain cycles (each ending in a model promotion)
// and another hot-swaps models directly, with a watcher asserting that
// the observation and cycle counters never move backwards. At the end
// every successful observe must be accounted for exactly — retrains and
// promotions may never drop or double-count an observation — and the
// lifecycle counters must agree with the manager's own status.
func TestStressObserveDuringRetrainAndReload(t *testing.T) {
	svc, reg, srv := newInstrumentedServer(t)
	modelA, modelB := svc.Model(), trainTinyModel(t)

	mgr := lifecycle.New(svc, lifecycle.Config{
		DriftThreshold: 0,    // retrain every cycle
		MinImprove:     -100, // promote essentially always: maximizes swap pressure
		Seed:           11,
		Workers:        2,
	})
	lm := mgr.InstrumentWith(reg)

	const (
		workers = 8
		perW    = 60
		apps    = 4 // overlapping: every worker touches every app
	)
	client := &http.Client{Timeout: 10 * time.Second}
	observe := func(app string, v float64) bool {
		resp, err := client.Post(srv.URL+"/v1/apps/"+app+"/observe",
			"application/json", strings.NewReader(fmt.Sprintf(`{"concurrency": %g}`, v)))
		if err != nil {
			return false
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}

	// Seed enough history that every retrain cycle trains successfully.
	var observeOK atomic.Int64
	for a := 0; a < apps; a++ {
		for i := 0; i < 120; i++ {
			v := 0.0
			if (i+a)%8 < 2 {
				v = 3.5
			}
			if !observe(fmt.Sprintf("app-%d", a), v) {
				t.Fatal("seeding observe failed")
			}
			observeOK.Add(1)
		}
	}

	// Retrainer: back-to-back synchronous cycles for the whole storm.
	stopCycle := make(chan struct{})
	var cycleWG sync.WaitGroup
	cycleWG.Add(1)
	go func() {
		defer cycleWG.Done()
		for {
			select {
			case <-stopCycle:
				return
			default:
				if res := mgr.RunCycle(); res.Outcome == lifecycle.OutcomeFailed {
					t.Errorf("cycle failed under stress: %s", res.Error)
					return
				}
			}
		}
	}()

	// Reloader: direct swaps race with the retrainer's promotions.
	stopReload := make(chan struct{})
	var reloadWG sync.WaitGroup
	reloadWG.Add(1)
	go func() {
		defer reloadWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stopReload:
				return
			case <-time.After(2 * time.Millisecond):
				if i%2 == 0 {
					svc.SwapModel(modelB)
				} else {
					svc.SwapModel(modelA)
				}
			}
		}
	}()

	// Monotonicity watcher: mid-flight scrapes of the observation and
	// lifecycle counters must never move backwards.
	stopWatch := make(chan struct{})
	var watchWG sync.WaitGroup
	watchWG.Add(1)
	var monotonicViolations atomic.Int64
	go func() {
		defer watchWG.Done()
		var lastObs, lastCycles float64
		for {
			select {
			case <-stopWatch:
				return
			case <-time.After(time.Millisecond):
				resp, err := client.Get(srv.URL + "/metrics")
				if err != nil {
					continue
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				scrape := string(b)
				obs := sumMetric(scrape, "femux_observations_total")
				cycles := sumMetric(scrape, "femux_lifecycle_cycles_total")
				if obs < lastObs || cycles < lastCycles {
					monotonicViolations.Add(1)
				}
				lastObs, lastCycles = obs, cycles
			}
		}
	}()

	var wg sync.WaitGroup
	var failures atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				app := fmt.Sprintf("app-%d", (w+i)%apps)
				// Distinct values, so a reordered history shows.
				if observe(app, float64((w+i)%9)+float64(w*perW+i)*1e-6) {
					observeOK.Add(1)
				} else {
					failures.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopCycle)
	cycleWG.Wait()
	close(stopReload)
	reloadWG.Wait()
	close(stopWatch)
	watchWG.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d observes failed during lifecycle stress", n)
	}
	if n := monotonicViolations.Load(); n != 0 {
		t.Fatalf("counters moved backwards %d times", n)
	}
	status := mgr.Status()
	if status.Cycles == 0 || status.Promotions == 0 {
		t.Fatalf("stress window ran %d cycles, %d promotions; want both > 0",
			status.Cycles, status.Promotions)
	}
	if svc.Reloads() < status.Promotions {
		t.Fatalf("reloads %d < promotions %d", svc.Reloads(), status.Promotions)
	}

	// Final scrape: exact accounting — no observation dropped or torn
	// across retrains and reloads, and the lifecycle counters agree with
	// the manager's status.
	resp, err := client.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	scrape := string(b)
	if got := sumMetric(scrape, "femux_observations_total"); got != float64(observeOK.Load()) {
		t.Errorf("femux_observations_total = %v, want %d", got, observeOK.Load())
	}
	if got := sumMetric(scrape, "femux_lifecycle_cycles_total"); got != float64(status.Cycles) {
		t.Errorf("cycles counter = %v, status says %d", got, status.Cycles)
	}
	if got := lm.Promotions.Sum(); got != float64(status.Promotions) {
		t.Errorf("promotions counter = %v, status says %d", got, status.Promotions)
	}
	if got := sumMetricFiltered(scrape, "femux_lifecycle_skips_total", `reason="replica"`); got != 0 {
		t.Errorf("replica skips = %v on a non-replica service", got)
	}
	if svc.Apps() != apps {
		t.Errorf("apps tracked = %d, want %d", svc.Apps(), apps)
	}
	for a := 0; a < apps; a++ {
		app := fmt.Sprintf("app-%d", a)
		if slips := walOrderSlips(t, svc, app); slips != 0 {
			t.Errorf("%s: %d hot history positions out of WAL order", app, slips)
		}
	}
}
