// Command femux-load replays serverless traffic against a running femuxd
// (or a femux-shard router fronting a fleet) and reports serving-path
// latency, closing the loop the paper measures in Fig 13 (7 ms mean /
// 25 ms p99 forecasting latency). It converts a tracegen CSV pair (or a
// synthetic fleet) into the per-app per-minute average-concurrency
// observations the metrics collector would POST, then streams them at a
// configurable speedup and concurrency.
//
// Usage:
//
//	femux-load -url http://localhost:8080 -apps-csv apps.csv -invocations inv.csv -speedup 60
//	femux-load -url http://localhost:8080 -fleet 8 -minutes 120 -speedup 0 -concurrency 16
//	femux-load -url http://localhost:8080 -fleet 8 -minutes 120 -batch 64
//	femux-load -url http://localhost:8080 -sparse -apps 1000000 -minutes 60 -batch 4096
//
// With -sparse -apps N the workload is an Azure-like sparse fleet: N
// mostly-idle apps with heavy-tailed invocation rates, so observations
// per minute are far fewer than apps — the shape that exercises femuxd's
// tiered app state at fleet sizes RAM could never hold hot. The replay
// only POSTs minutes in which an app actually fired; -expect-replayed
// then cross-checks that the durable store holds exactly the acked
// observations.
//
// With -batch N each minute's observations are grouped into batches of
// at most N and POSTed to /v1/observe/batch (one WAL fsync per batch on
// the server); the exit code is non-zero if any batch item is rejected,
// not just on whole-request failures. With -start-minute M the replay
// covers minutes [M, M+minutes) of the same deterministic workload, so a
// second invocation can resume exactly where an interrupted one stopped
// (the synthetic fleet draws per-app random streams, making every prefix
// independent of -minutes).
//
// With -retry N each transiently-failed request or batch item — a
// transport error, or a 502/503/504 (a backend down while it restarts)
// — is retried up to N times after -retry-wait, so a replay rides across
// a shard restart without losing observations. Permanent
// rejections (validation errors, and a 421 from a shard that does not own
// the app) are never retried.
//
// With -speedup 0 the replay runs as fast as the server allows.
// -check-metrics scrapes /metrics afterwards and verifies the server-side
// observe counters match the number of replayed observations exactly
// (direct femuxd only — a router does not expose its shards' counters).
// -expect-store N with -store-urls u1,u2 sums femux_store_observations
// across the listed instances and fails unless the durable total equals
// N; because that gauge is recomputed from the WAL on boot, the check
// holds across SIGKILL and restart.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/experiments"
	"github.com/ubc-cirrus-lab/femux-go/internal/knative"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("femux-load: ")
	var (
		url      = flag.String("url", "http://localhost:8080", "femuxd or femux-shard base URL")
		appsCSV  = flag.String("apps-csv", "", "apps CSV from tracegen")
		invCSV   = flag.String("invocations", "", "invocations CSV from tracegen")
		fleet    = flag.Int("fleet", 8, "synthetic dense fleet size when no CSV is given")
		minutes  = flag.Int("minutes", 120, "trace minutes to replay (caps CSV traces too)")
		startMin = flag.Int("start-minute", 0, "first minute to replay (resume an interrupted run)")
		seed     = flag.Int64("seed", 1, "synthetic workload seed")
		shiftAt  = flag.Int("shift-at", 0,
			"synthetic fleet: minute at which every app's regime changes from smooth to bursty (0 = stationary)")

		sparse = flag.Bool("sparse", false,
			"sparse synthetic mode: -apps mostly-idle apps with heavy-tailed invocation rates")
		apps         = flag.Int("apps", 0, "sparse fleet size (requires -sparse)")
		sparsePeriod = flag.Int("sparse-period", 1440,
			"longest mean inter-arrival gap in minutes; every app's first arrival lands within it")

		speedup        = flag.Float64("speedup", 0, "replay speedup: 1 = real time, 60 = minute/second, 0 = as fast as possible")
		concurrency    = flag.Int("concurrency", 8, "in-flight request limit")
		batch          = flag.Int("batch", 0, "observations per POST /v1/observe/batch request (0 = per-app observes)")
		timeout        = flag.Duration("timeout", 10*time.Second, "per-request timeout")
		retries        = flag.Int("retry", 0, "retries per transiently-failed request or batch item (503/502/504/transport)")
		retryWait      = flag.Duration("retry-wait", 200*time.Millisecond, "pause before each retry")
		checkMetric    = flag.Bool("check-metrics", false, "scrape /metrics after the replay and verify observe counters match")
		storeURLs      = flag.String("store-urls", "", "comma-separated instance URLs for -expect-store")
		expectStore    = flag.Int("expect-store", -1, "expected femux_store_observations sum across -store-urls (-1 = skip)")
		expectReplayed = flag.Bool("expect-replayed", false,
			"verify femux_store_observations across -store-urls (default: -url) equals this replay's accepted observations (fresh store, idle server)")
	)
	flag.Parse()
	if *startMin < 0 {
		log.Fatal("-start-minute must be >= 0")
	}
	if *sparse && *apps <= 0 {
		log.Fatal("-sparse requires -apps > 0")
	}

	var wl workload
	var err error
	switch {
	case *appsCSV != "" && *invCSV != "":
		wl, err = csvWorkload(*appsCSV, *invCSV, *startMin, *minutes)
	case *sparse:
		wl = sparseWorkload(*apps, *startMin, *minutes, *seed, *sparsePeriod)
	default:
		wl = syntheticWorkload(*fleet, *startMin, *minutes, *seed, *shiftAt)
	}
	if err != nil {
		log.Fatal(err)
	}
	mode := "per-app observes"
	if *batch > 0 {
		mode = fmt.Sprintf("batches of %d", *batch)
	}
	log.Printf("replaying %d observations (%d apps, minutes %d..%d, %s) against %s",
		len(wl.events), wl.apps, *startMin, *startMin+wl.minutes, mode, *url)

	if err := waitHealthy(*url, 60*time.Second); err != nil {
		log.Fatal(err)
	}
	rep := replay(wl, replayConfig{
		BaseURL:     *url,
		Speedup:     *speedup,
		Concurrency: *concurrency,
		Batch:       *batch,
		Timeout:     *timeout,
		Retries:     *retries,
		RetryWait:   *retryWait,
	})
	fmt.Print(rep.String())

	exit := 0
	if rep.Errors > 0 {
		log.Printf("FAIL: %d/%d requests errored", rep.Errors, rep.Requests)
		exit = 1
	}
	if rep.ItemErrors > 0 {
		log.Printf("FAIL: %d/%d batch observations rejected (first: %s)",
			rep.ItemErrors, rep.Items, rep.FirstItemError)
		exit = 1
	}
	if *checkMetric {
		if err := checkMetrics(*url, *batch > 0, rep); err != nil {
			log.Printf("FAIL: %v", err)
			exit = 1
		} else {
			log.Printf("metrics check passed: observe counters match the replay")
		}
	}
	if *expectStore >= 0 {
		if err := checkStoreTotal(*storeURLs, *expectStore); err != nil {
			log.Printf("FAIL: %v", err)
			exit = 1
		} else {
			log.Printf("store check passed: durable observations = %d", *expectStore)
		}
	}
	if *expectReplayed {
		targets := *storeURLs
		if targets == "" {
			targets = *url
		}
		accepted := rep.Items - rep.ItemErrors
		if err := checkStoreTotal(targets, accepted); err != nil {
			log.Printf("FAIL: %v", err)
			exit = 1
		} else {
			log.Printf("store check passed: all %d acked observations are durable", accepted)
		}
	}
	os.Exit(exit)
}

// obsEvent is one minute's observation for one app.
type obsEvent struct {
	app    string
	minute int
	conc   float64
}

type workload struct {
	events  []obsEvent // sorted by minute
	apps    int
	minutes int // minutes actually replayed (after -start-minute)
}

// csvWorkload replays a tracegen CSV pair's per-app per-minute average
// concurrency, the series femux-train trains on
// (experiments.ReadTrainApps), keeping only minutes
// [startMin, startMin+maxMinutes) (maxMinutes 0 = to the trace's end).
func csvWorkload(appsPath, invPath string, startMin, maxMinutes int) (workload, error) {
	limit := 0 // to the trace's end
	if maxMinutes > 0 {
		limit = startMin + maxMinutes
	}
	apps, err := experiments.ReadTrainApps(appsPath, invPath, limit)
	if err != nil {
		return workload{}, err
	}
	wl := workload{apps: len(apps)}
	for _, a := range apps {
		wl.minutes = max(a.Demand.Len()-startMin, 0)
		for m := startMin; m < a.Demand.Len(); m++ {
			wl.events = append(wl.events, obsEvent{app: a.Name, minute: m, conc: a.Demand.Values[m]})
		}
	}
	sortEvents(wl.events)
	return wl, nil
}

// syntheticWorkload builds a seeded fleet of diurnal-ish apps without
// needing CSV files: app i oscillates with its own period and amplitude.
// Each app draws from its own random stream, so the trace for minute m
// does not depend on how many minutes are generated — replaying
// [0, 120) and then [120, 250) in a second process yields exactly the
// trace a single [0, 250) replay would have sent. That prefix stability
// is what lets the crash-recovery smoke kill a replay mid-flight and
// resume it against a restarted server.
//
// shiftAt > 0 switches every app to a bursty high-level regime from that
// minute on (the retrain-lifecycle smoke's drift trigger). The shift
// preserves prefix stability: every minute consumes exactly one noise
// draw whichever regime it is in, and the burst parameters derive from
// the app's existing draws, so minutes before shiftAt are identical to
// an unshifted run's.
func syntheticWorkload(apps, startMin, minutes int, seed int64, shiftAt int) workload {
	var wl workload
	wl.apps, wl.minutes = apps, minutes
	end := startMin + minutes
	for a := 0; a < apps; a++ {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(a)))
		base := 0.5 + 4*rng.Float64()
		period := float64(20 + rng.Intn(120))
		phase := rng.Float64() * 2 * math.Pi
		burstGap := 10 + int(period)%16 // regime-B spacing, from existing draws
		for m := 0; m < end; m++ {
			noise := rng.NormFloat64()
			var c float64
			if shiftAt > 0 && m >= shiftAt {
				// Regime B: mostly idle with 10x-level bursts.
				if (m+burstGap*a)%burstGap < 2 {
					c = 10 * base * (1 + 0.05*noise)
				}
			} else {
				c = base*(1+math.Sin(2*math.Pi*float64(m)/period+phase)) + 0.2*noise
			}
			if c < 0 {
				c = 0
			}
			if m < startMin {
				continue // drawn to keep the stream aligned, not replayed
			}
			wl.events = append(wl.events, obsEvent{
				app:    fmt.Sprintf("load-%d", a),
				minute: m,
				conc:   math.Round(c*1000) / 1000,
			})
		}
	}
	sortEvents(wl.events)
	return wl
}

// sparseWorkload builds an Azure-like sparse fleet: -apps applications
// whose invocation rates are heavy-tailed (log-uniform mean inter-arrival
// gaps between 2 minutes and -sparse-period), so a small fraction of the
// fleet is hot while most apps fire rarely — the population shape the
// tiering benchmarks need, where observations per minute ≪ fleet size.
// Arrivals are Poisson per app; minutes with no arrival emit nothing.
//
// Prefix stability matches syntheticWorkload: each app draws from its own
// seeded stream and the first arrival lands uniformly within
// min(gap, period) — independent of -minutes — so replaying [0,120) then
// [120,250) in a second process sends exactly the single-run trace, and
// with -minutes >= -sparse-period every app appears at least once.
func sparseWorkload(apps, startMin, minutes int, seed int64, period int) workload {
	if period < 2 {
		period = 2
	}
	var wl workload
	wl.apps, wl.minutes = apps, minutes
	end := startMin + minutes
	for a := 0; a < apps; a++ {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(a)))
		// Log-uniform mean gap in [2, period]: the heavy tail in linear
		// space that mimics "most apps are mostly idle".
		gap := 2 * math.Pow(float64(period)/2, rng.Float64())
		first := gap
		if first > float64(period) {
			first = float64(period)
		}
		t := rng.Float64() * first
		conc := math.Round((0.2+2*rng.Float64())*1000) / 1000
		app := fmt.Sprintf("sparse-%d", a)
		lastMinute := -1
		for t < float64(end) {
			m := int(t)
			if m >= startMin && m != lastMinute {
				wl.events = append(wl.events, obsEvent{app: app, minute: m, conc: conc})
				lastMinute = m
			}
			t -= gap * math.Log(1-rng.Float64())
		}
	}
	sortEvents(wl.events)
	return wl
}

func sortEvents(evs []obsEvent) {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].minute < evs[j].minute })
}

type replayConfig struct {
	BaseURL     string
	Speedup     float64 // 0 = as fast as possible
	Concurrency int
	Batch       int // observations per batch request; 0 = per-app observes
	Timeout     time.Duration
	Retries     int           // retries per transiently-failed request/item
	RetryWait   time.Duration // pause before each retry
}

// retryableStatus reports whether an HTTP status is worth retrying:
// gateway failures and 503 (backend dead) clear when the backend is
// restarted. A 421 does not clear: shard ownership is fixed while the
// fleet runs.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusServiceUnavailable, http.StatusBadGateway,
		http.StatusGatewayTimeout:
		return true
	}
	return false
}

// Report aggregates the replay outcome.
type Report struct {
	Requests       int // HTTP requests issued
	Errors         int // whole-request failures (transport error or non-200)
	Items          int // observations carried by those requests
	ItemErrors     int // observations rejected (per-item batch errors + items on failed requests)
	FirstItemError string
	Wall           time.Duration
	Throughput     float64 // observations per wall-clock second
	Mean           time.Duration
	P50            time.Duration
	P95            time.Duration
	P99            time.Duration
	Max            time.Duration
}

func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests:    %d\n", r.Requests)
	fmt.Fprintf(&b, "errors:      %d (%.2f%%)\n", r.Errors, 100*float64(r.Errors)/math.Max(1, float64(r.Requests)))
	fmt.Fprintf(&b, "items:       %d\n", r.Items)
	fmt.Fprintf(&b, "item errors: %d (%.2f%%)\n", r.ItemErrors, 100*float64(r.ItemErrors)/math.Max(1, float64(r.Items)))
	fmt.Fprintf(&b, "wall time:   %s\n", r.Wall.Round(time.Millisecond))
	fmt.Fprintf(&b, "throughput:  %.1f obs/s\n", r.Throughput)
	fmt.Fprintf(&b, "latency:     mean %s  p50 %s  p95 %s  p99 %s  max %s\n",
		r.Mean.Round(time.Microsecond), r.P50.Round(time.Microsecond),
		r.P95.Round(time.Microsecond), r.P99.Round(time.Microsecond),
		r.Max.Round(time.Microsecond))
	return b.String()
}

// workerStats is one worker's private tally, merged after the pool drains.
type workerStats struct {
	durs       []time.Duration
	errors     int
	items      int
	itemErrors int
	firstErr   string
}

// replay streams the workload minute by minute. Within a minute, events
// fan out across the worker pool — one POST per app-minute, or one
// batch POST per cfg.Batch observations; between minutes the sender
// sleeps to hold the requested speedup (a real collector posts once per
// interval).
func replay(wl workload, cfg replayConfig) Report {
	if cfg.Concurrency < 1 {
		cfg.Concurrency = 1
	}
	client := &http.Client{
		Timeout: cfg.Timeout,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.Concurrency,
			MaxIdleConnsPerHost: cfg.Concurrency,
		},
	}

	jobs := make(chan []obsEvent, cfg.Concurrency)
	var wg sync.WaitGroup
	stats := make([]workerStats, cfg.Concurrency)
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &stats[w]
			for chunk := range jobs {
				if cfg.Batch > 0 {
					postBatch(client, cfg, chunk, st)
				} else {
					postSingle(client, cfg, chunk[0], st)
				}
			}
		}(w)
	}

	start := time.Now()
	minuteBudget := time.Duration(0)
	if cfg.Speedup > 0 {
		minuteBudget = time.Duration(float64(time.Minute) / cfg.Speedup)
	}
	i := 0
	for i < len(wl.events) {
		minuteStart := time.Now()
		m := wl.events[i].minute
		j := i
		for j < len(wl.events) && wl.events[j].minute == m {
			j++
		}
		if cfg.Batch > 0 {
			for k := i; k < j; k += cfg.Batch {
				end := k + cfg.Batch
				if end > j {
					end = j
				}
				jobs <- wl.events[k:end]
			}
		} else {
			for k := i; k < j; k++ {
				jobs <- wl.events[k : k+1]
			}
		}
		i = j
		if minuteBudget > 0 {
			if sleep := minuteBudget - time.Since(minuteStart); sleep > 0 {
				time.Sleep(sleep)
			}
		}
	}
	close(jobs)
	wg.Wait()
	wall := time.Since(start)

	var all []time.Duration
	rep := Report{Wall: wall}
	for _, st := range stats {
		all = append(all, st.durs...)
		rep.Errors += st.errors
		rep.Items += st.items
		rep.ItemErrors += st.itemErrors
		if rep.FirstItemError == "" {
			rep.FirstItemError = st.firstErr
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	rep.Requests = len(all)
	rep.Throughput = float64(rep.Items) / math.Max(wall.Seconds(), 1e-9)
	if len(all) > 0 {
		var sum time.Duration
		for _, d := range all {
			sum += d
		}
		rep.Mean = sum / time.Duration(len(all))
		rep.P50 = percentile(all, 0.50)
		rep.P95 = percentile(all, 0.95)
		rep.P99 = percentile(all, 0.99)
		rep.Max = all[len(all)-1]
	}
	return rep
}

// postSingle replays one observation through POST /v1/apps/{app}/observe,
// retrying transient failures up to cfg.Retries times. Each attempt
// contributes a latency sample; the event fails only when its final
// attempt does.
func postSingle(client *http.Client, cfg replayConfig, ev obsEvent, st *workerStats) {
	body := fmt.Sprintf(`{"concurrency": %g}`, ev.conc)
	st.items++
	var lastMsg string
	for attempt := 0; ; attempt++ {
		start := time.Now()
		resp, err := client.Post(cfg.BaseURL+"/v1/apps/"+url.PathEscape(ev.app)+"/observe",
			"application/json", strings.NewReader(body))
		st.durs = append(st.durs, time.Since(start))
		if err != nil {
			lastMsg = ev.app + ": " + err.Error()
		} else {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
			lastMsg = fmt.Sprintf("%s: HTTP %d", ev.app, resp.StatusCode)
			if !retryableStatus(resp.StatusCode) {
				break
			}
		}
		if attempt >= cfg.Retries {
			break
		}
		time.Sleep(cfg.RetryWait)
	}
	st.errors++
	st.itemErrors++
	st.noteErr(lastMsg)
}

// postBatch replays a chunk of observations through POST
// /v1/observe/batch and folds the per-item outcomes into st: the server
// answers 200 even when individual items were rejected, so partial
// failures only surface here — exactly the case the exit code must not
// swallow. Transient failures — a failed request, or items answered 503
// (shard dead) — are retried up to cfg.Retries times
// with only the still-failing items re-sent; permanent rejections fail
// immediately.
func postBatch(client *http.Client, cfg replayConfig, chunk []obsEvent, st *workerStats) {
	st.items += len(chunk)
	pending := chunk
	for attempt := 0; ; attempt++ {
		req := knative.BatchObserveRequest{
			Observations: make([]knative.BatchObservation, len(pending)),
		}
		for i, ev := range pending {
			req.Observations[i] = knative.BatchObservation{App: ev.app, Concurrency: ev.conc}
		}
		body, _ := json.Marshal(req)
		start := time.Now()
		resp, err := client.Post(cfg.BaseURL+"/v1/observe/batch", "application/json",
			strings.NewReader(string(body)))
		st.durs = append(st.durs, time.Since(start))

		var out *knative.BatchObserveResponse
		var reqMsg string
		switch {
		case err != nil:
			reqMsg = "batch: " + err.Error()
		case resp.StatusCode != http.StatusOK:
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			reqMsg = fmt.Sprintf("batch: HTTP %d", resp.StatusCode)
			if !retryableStatus(resp.StatusCode) {
				st.errors++
				st.itemErrors += len(pending)
				st.noteErr(reqMsg)
				return
			}
		default:
			var decoded knative.BatchObserveResponse
			derr := json.NewDecoder(resp.Body).Decode(&decoded)
			resp.Body.Close()
			if derr != nil {
				reqMsg = "batch: bad response: " + derr.Error()
			} else {
				out = &decoded
			}
		}

		if out == nil {
			// Whole-request transient failure: retry the full chunk.
			if attempt >= cfg.Retries {
				st.errors++
				st.itemErrors += len(pending)
				st.noteErr(reqMsg)
				return
			}
			time.Sleep(cfg.RetryWait)
			continue
		}

		var retry []obsEvent
		for i, res := range out.Results {
			if res.Error == "" {
				continue
			}
			if retryableStatus(res.Status) && attempt < cfg.Retries {
				retry = append(retry, pending[i])
				continue
			}
			st.itemErrors++
			st.noteErr(res.App + ": " + res.Error)
		}
		if len(retry) == 0 {
			return
		}
		pending = retry
		time.Sleep(cfg.RetryWait)
	}
}

func (st *workerStats) noteErr(msg string) {
	if st.firstErr == "" {
		st.firstErr = msg
	}
}

// percentile reads the nearest-rank percentile from a sorted slice.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// waitHealthy polls /healthz until the server answers or the deadline
// passes (femuxd opens its store and loads its model before it listens).
func waitHealthy(baseURL string, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	client := &http.Client{Timeout: 2 * time.Second}
	for {
		resp, err := client.Get(baseURL + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy after %s", baseURL, wait)
		}
		time.Sleep(250 * time.Millisecond)
	}
}

// checkMetrics scrapes /metrics and verifies the server counted exactly
// the observations this process sent (both the HTTP-layer counter and
// the per-app FeMux counter). Requires an otherwise idle femuxd — a
// femux-shard router does not re-export its backends' counters.
func checkMetrics(baseURL string, batchMode bool, rep Report) error {
	scrape, err := scrapeMetrics(baseURL)
	if err != nil {
		return err
	}
	endpoint, httpWant := "observe", rep.Requests-rep.Errors
	if batchMode {
		endpoint, httpWant = "observe_batch", rep.Requests-rep.Errors
	}
	accepted := rep.Items - rep.ItemErrors
	httpOK := sumMetricFiltered(scrape, "femux_http_requests_total",
		fmt.Sprintf(`endpoint=%q`, endpoint), `code="200"`)
	appObserves := sumMetricPrefix(scrape, "femux_observations_total")
	if int(httpOK) != httpWant {
		return fmt.Errorf("femux_http_requests_total{endpoint=%s,code=200} = %g, want %d",
			endpoint, httpOK, httpWant)
	}
	if int(appObserves) != accepted {
		return fmt.Errorf("femux_observations_total sum = %g, want %d", appObserves, accepted)
	}
	return nil
}

// checkStoreTotal sums femux_store_observations across the given
// instance URLs and fails unless the durable total matches. The gauge is
// recomputed from snapshot+WAL on boot, so the check is meaningful even
// after a SIGKILL and restart — nothing survives except what the store
// made durable.
func checkStoreTotal(urls string, want int) error {
	var targets []string
	for _, u := range strings.Split(urls, ",") {
		if u = strings.TrimSpace(u); u != "" {
			targets = append(targets, u)
		}
	}
	if len(targets) == 0 {
		return fmt.Errorf("-expect-store needs -store-urls")
	}
	total := 0.0
	for _, u := range targets {
		scrape, err := scrapeMetrics(u)
		if err != nil {
			return err
		}
		total += sumMetricPrefix(scrape, "femux_store_observations")
	}
	if int(total) != want {
		return fmt.Errorf("femux_store_observations sum across %d instances = %g, want %d",
			len(targets), total, want)
	}
	return nil
}

func scrapeMetrics(baseURL string) (string, error) {
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		return "", fmt.Errorf("scraping metrics: %w", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// sampleValue extracts the numeric value of one exposition line. Label
// values may contain spaces, so the value is whatever follows the
// closing brace (or the whole remainder for label-less samples) — the
// sample value itself is a bare number and cannot contain '}'.
func sampleValue(line string) (float64, bool) {
	val := line
	if i := strings.LastIndexByte(line, '}'); i >= 0 {
		val = line[i+1:]
	} else if i := strings.IndexByte(line, ' '); i >= 0 {
		val = line[i+1:]
	}
	var v float64
	if _, err := fmt.Sscanf(strings.TrimSpace(val), "%g", &v); err != nil {
		return 0, false
	}
	return v, true
}

// sumMetricPrefix sums every sample line of one metric family.
func sumMetricPrefix(scrape, name string) float64 {
	var sum float64
	for _, line := range strings.Split(scrape, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if len(rest) == 0 || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		if v, ok := sampleValue(line); ok {
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
		if v, ok := sampleValue(line); ok {
			sum += v
		}
	}
	return sum
}
