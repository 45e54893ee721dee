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
)

// TestStressObserveDuringReload hammers the REST surface from many
// goroutines on overlapping apps while the model is hot-swapped
// concurrently, asserting (under -race) that no request is dropped or
// torn and that the metrics counters account for every request exactly.
func TestStressObserveDuringReload(t *testing.T) {
	svc, _, srv := newInstrumentedServer(t)
	modelA, modelB := svc.Model(), trainTinyModel(t)

	const (
		workers = 8
		perW    = 60
		apps    = 4 // overlapping: every worker touches every app
	)
	client := &http.Client{Timeout: 10 * time.Second}
	var (
		wg                              sync.WaitGroup
		observeOK, targetOK, forecastOK atomic.Int64
		failures                        atomic.Int64
	)

	// Reloader: swap the model several times while traffic is in flight.
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

	// Monotonicity watcher: counters scraped mid-flight must never move
	// backwards (a torn read or a lost update would show up here).
	stopWatch := make(chan struct{})
	var watchWG sync.WaitGroup
	watchWG.Add(1)
	monotonicViolations := atomic.Int64{}
	go func() {
		defer watchWG.Done()
		var last float64
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
				cur := sumMetric(string(b), "femux_observations_total")
				if cur < last {
					monotonicViolations.Add(1)
				}
				last = cur
			}
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				app := fmt.Sprintf("app-%d", (w+i)%apps)
				switch i % 3 {
				case 0:
					// Distinct values, so a reordered history shows.
					resp, err := client.Post(srv.URL+"/v1/apps/"+app+"/observe",
						"application/json", strings.NewReader(fmt.Sprintf(`{"concurrency": %d.5}`, w*perW+i)))
					if err != nil || resp.StatusCode != http.StatusOK {
						failures.Add(1)
					} else {
						observeOK.Add(1)
					}
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				case 1:
					resp, err := client.Get(srv.URL + "/v1/apps/" + app + "/target?concurrency=2")
					if err != nil || resp.StatusCode != http.StatusOK {
						failures.Add(1)
					} else {
						targetOK.Add(1)
					}
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				default:
					resp, err := client.Get(srv.URL + "/v1/apps/" + app + "/forecast?horizon=3")
					if err != nil || resp.StatusCode != http.StatusOK {
						failures.Add(1)
					} else {
						forecastOK.Add(1)
					}
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopReload)
	reloadWG.Wait()
	close(stopWatch)
	watchWG.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d requests failed during reload stress", n)
	}
	if n := monotonicViolations.Load(); n != 0 {
		t.Fatalf("observation counter moved backwards %d times", n)
	}
	if svc.Reloads() == 0 {
		t.Fatal("no reload happened during the stress window; tighten the timing")
	}

	// Final scrape must account for every successful request exactly.
	resp, err := client.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	scrape := string(b)
	checks := map[string]float64{
		"femux_observations_total": float64(observeOK.Load()),
		"femux_targets_total":      float64(targetOK.Load()),
		"femux_forecasts_total":    float64(forecastOK.Load()),
	}
	for name, want := range checks {
		if got := sumMetric(scrape, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := sumMetricFiltered(scrape, "femux_http_requests_total", `endpoint="observe"`, `code="200"`); got != float64(observeOK.Load()) {
		t.Errorf("http observe counter = %v, want %d", got, observeOK.Load())
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

// sumMetric adds up every sample of a metric family in a text scrape.
func sumMetric(scrape, name string) float64 {
	var sum float64
	for _, line := range strings.Split(scrape, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if len(rest) > 0 && rest[0] != '{' && rest[0] != ' ' {
			continue // longer metric name sharing the prefix
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(fields[1], "%g", &v); err == nil {
			sum += v
		}
	}
	return sum
}

// sumMetricFiltered sums samples whose label block contains every filter.
func sumMetricFiltered(scrape, name string, filters ...string) float64 {
	var sum float64
outer:
	for _, line := range strings.Split(scrape, "\n") {
		if !strings.HasPrefix(line, name+"{") {
			continue
		}
		for _, f := range filters {
			if !strings.Contains(line, f) {
				continue outer
			}
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(fields[1], "%g", &v); err == nil {
			sum += v
		}
	}
	return sum
}
