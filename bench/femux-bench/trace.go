package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/features"
	"github.com/ubc-cirrus-lab/femux-go/internal/femux"
	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
	"github.com/ubc-cirrus-lab/femux-go/internal/knative"
	"github.com/ubc-cirrus-lab/femux-go/internal/lifecycle"
	"github.com/ubc-cirrus-lab/femux-go/internal/store"
)

// The traced run is the layer ladder. One client replays the same
// generated requests over identically seeded state once per rung, each
// rung adding exactly one layer to the one below:
//
//	op               socket round trip through the whole system
//	shards.direct    routed_batch only: the router's sub-batches posted
//	                 straight to their owners, split and merged here
//	serving.stack    the full middleware stack's ServeHTTP, no socket
//	knative.handler  svc.Handler() alone
//	leaves           public functions of store, femux, forecast, features
//	                 and lifecycle, timed one by one on harness-held state
//
// The k-th request has the same index on every rung, and a rung's self
// time is its span minus the span of the rung below. Spans are recorded
// here, around the calls into each layer; none is inside the program.

const (
	leafOps  = 2000 // requests the leaf rung times its functions on
	fsyncOps = 200  // appends timed against a SyncAlways store (the device's flush)
)

// span is one timed call. Start and End are nanoseconds since the traced
// run began; spans of one request share Op.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans map[string][]span
}

func (t *tracer) add(name string, op int, parent string, start, end time.Time) {
	t.spans[name] = append(t.spans[name], span{name, op, parent, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
}

// measure runs f as one span.
func (t *tracer) measure(name string, op int, parent string, f func()) {
	start := time.Now()
	f()
	t.add(name, op, parent, start, time.Now())
}

// us returns a rung's durations in microseconds, in request order.
func (t *tracer) us(name string) []float64 {
	out := make([]float64, len(t.spans[name]))
	for i, s := range t.spans[name] {
		out[i] = float64(s.End-s.Start) / 1e3
	}
	return out
}

// selfUs is the median over requests of (upper rung − lower rung).
func (t *tracer) selfUs(upper, lower string) float64 {
	u, l := t.us(upper), t.us(lower)
	d := make([]float64, min(len(u), len(l)))
	for i := range d {
		d[i] = u[i] - l[i]
	}
	return median(d)
}

func (t *tracer) write(cfg config) error {
	var all []span
	for _, s := range t.spans {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	b, err := json.Marshal(map[string]any{"workload": cfg.w.name, "seed": cfg.seed, "spans": all})
	if err != nil {
		return err
	}
	return os.WriteFile(cfg.tracePath(), b, 0o644)
}

// replyWriter is the in-process rungs' http.ResponseWriter.
type replyWriter struct {
	h    http.Header
	code int
	buf  bytes.Buffer
}

func (w *replyWriter) Header() http.Header         { return w.h }
func (w *replyWriter) WriteHeader(code int)        { w.code = code }
func (w *replyWriter) Write(b []byte) (int, error) { return w.buf.Write(b) }

// handlerDoer calls h.ServeHTTP directly: a rung without a socket.
func handlerDoer(h http.Handler) doer {
	rw := &replyWriter{h: http.Header{}}
	return func(method, path string, body []byte) (int, []byte, error) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, "http://femux"+path, rd)
		if err != nil {
			return 0, nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		clear(rw.h)
		rw.code = http.StatusOK
		rw.buf.Reset()
		h.ServeHTTP(rw, req)
		return rw.code, rw.buf.Bytes(), nil
	}
}

// splitDoer does the router's job in the harness: split a batch by owning
// shard, send the sub-batches to their owners concurrently, merge the
// replies back into input order. Rungs below the router use it so that
// what they are subtracted from differs by the router hop alone.
func splitDoer(owners []doer) doer {
	var merged []byte
	return func(method, path string, body []byte) (int, []byte, error) {
		var req knative.BatchObserveRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return 0, nil, err
		}
		n := len(owners)
		idx := make([][]int, n)
		sub := make([]knative.BatchObserveRequest, n)
		for i, o := range req.Observations {
			s := store.ShardOf(o.App, n)
			idx[s] = append(idx[s], i)
			sub[s].Observations = append(sub[s].Observations, o)
		}
		out := knative.BatchObserveResponse{Results: make([]knative.BatchItemResult, len(req.Observations))}
		errs := make([]error, n)
		replies := make([]knative.BatchObserveResponse, n)
		var wg sync.WaitGroup
		for s := range owners {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				b, err := json.Marshal(sub[s])
				if err != nil {
					errs[s] = err
					return
				}
				status, reply, err := owners[s](method, path, b)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("shard %d: HTTP %d: %.200s", s, status, reply)
				}
				if err == nil {
					err = json.Unmarshal(reply, &replies[s])
				}
				if err == nil && len(replies[s].Results) != len(idx[s]) {
					err = fmt.Errorf("shard %d: %d results for %d items", s, len(replies[s].Results), len(idx[s]))
				}
				errs[s] = err
			}(s)
		}
		wg.Wait()
		for s, err := range errs {
			if err != nil {
				return 0, nil, err
			}
			for j, i := range idx[s] {
				out.Results[i] = replies[s].Results[j]
			}
			out.Accepted += replies[s].Accepted
			out.Rejected += replies[s].Rejected
		}
		var err error
		merged, err = json.Marshal(out)
		return http.StatusOK, merged, err
	}
}

// replay sends the ladder's fixed sequence from the calling goroutine —
// the warm-up, then n requests, alternating between the two clients'
// sequences — so that every count repeats exactly from rung to rung.
func (r *rig) replay(n int, do [clients]doer, timed func(k int, start, end time.Time)) tally {
	var sc scratch
	var t tally
	for k := -clients * r.w.warmupOps; k < n; k++ {
		c := k & 1
		o := r.gen.next(c, r.next[c])
		r.next[c]++
		start := time.Now()
		items, err := r.exec(do[c], c, o, &sc)
		end := time.Now()
		t.add(items, err)
		if k >= 0 && timed != nil {
			timed(k, start, end)
		}
	}
	return t
}

// counters are the counts the untraced part of the traced run takes
// deltas of, summed over shards.
type counters struct {
	fsyncs, pageOuts, evictions     float64
	restoresWarm, restoresCold      float64
	restoreWarmSum, restoreColdSum  float64 // seconds, from the /metrics histogram
	routerRetries, routerErrors     float64
	mallocs, allocBytes, gcs, gcPau float64
}

func (r *rig) counters() (c counters, err error) {
	for _, sh := range r.shards {
		s := sh.st.Stats()
		c.fsyncs += float64(s.Fsyncs)
		c.pageOuts += float64(s.PageOuts)
		c.evictions += float64(sh.svc.Evictions())
		c.restoresWarm += sh.sm.Restores.Value("warm")
		c.restoresCold += sh.sm.Restores.Value("cold")
		text, err := scrape(sh.addr)
		if err != nil {
			return c, err
		}
		c.restoreWarmSum += scrapeSum(text, `femux_tier_restore_seconds_sum{from="warm"}`)
		c.restoreColdSum += scrapeSum(text, `femux_tier_restore_seconds_sum{from="cold"}`)
	}
	if r.router != nil {
		text, err := scrape(r.router.addr)
		if err != nil {
			return c, err
		}
		c.routerRetries = scrapeSum(text, "femux_route_owner_retries_total")
		c.routerErrors = scrapeSum(text, "femux_route_errors_total")
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes = float64(ms.Mallocs), float64(ms.TotalAlloc)
	c.gcs, c.gcPau = float64(ms.NumGC), float64(ms.PauseTotalNs)
	return c, nil
}

func scrape(addr string) (string, error) {
	cn, err := dial(addr)
	if err != nil {
		return "", err
	}
	defer cn.Close()
	status, err := cn.do(http.MethodGet, "/metrics", nil)
	if err != nil || status != http.StatusOK {
		return "", fmt.Errorf("scrape %s: HTTP %d: %v", addr, status, err)
	}
	return cn.body.String(), nil
}

// scrapeSum adds up the samples whose series name (with labels, if prefix
// carries them) starts with prefix.
func scrapeSum(text, prefix string) (sum float64) {
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				sum += v
			}
		}
	}
	return sum
}

func perK(delta, ops float64) float64 { return 1000 * delta / max(ops, 1) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rung opens a fresh copy of the seeded stores and replays the ladder's
// requests through the doers pick chooses on it.
func (s *session) rung(cfg config, model *femux.Model, dir, name string, n int,
	pick func(r *rig) ([clients]doer, error), timed func(r *rig, k int, start, end time.Time)) (time.Duration, error) {
	seedDir, dir := filepath.Join(dir, "seed"), filepath.Join(dir, "rung-"+name)
	if err := copyDir(seedDir, dir); err != nil {
		return 0, err
	}
	r, err := openRig(cfg.w, newGenerator(cfg.w, cfg.seed), model, dir)
	if err != nil {
		return 0, err
	}
	s.track(r)
	defer s.close(r)
	do, err := pick(r)
	if err != nil {
		return 0, err
	}
	var first time.Time
	t := r.replay(n, do, func(k int, start, end time.Time) {
		if k == 0 {
			first = start
		}
		if timed != nil {
			timed(r, k, start, end)
		}
	})
	elapsed := time.Since(first)
	if t.failed > 0 {
		return 0, fmt.Errorf("rung %s: %d of %d operations failed: %v", name, t.failed, t.attempted, t.firstErr)
	}
	return elapsed, nil
}

// runTraced produces every per-layer metric. Counts and rates come from
// an untraced two-client stretch of half the run's seconds; timings come
// from the ladder, which replays a fixed number of requests per rung.
func (s *session) runTraced(cfg config) (result, map[string]any, error) {
	w := cfg.w
	m := map[string]metric{}
	dir, err := os.MkdirTemp(s.root, w.name+"-")
	if err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(dir)
	cfg.reps = 1
	r, all, err := s.setUps(cfg, dir)
	if err != nil {
		return result{}, nil, err
	}
	defer s.close(r)
	ph := all[0]
	m["femux.train_s"] = metric{ph.Train, "s"}
	m["store.seed_s"] = metric{ph.Seed, "s"}
	m["store.open_s"] = metric{ph.Open, "s"}
	m["harness.warmup_s"] = metric{ph.Warmup, "s"}
	m["store.replay_rec_per_s"] = metric{ratio(float64(r.seeded.Restored), ph.Open), "1/s"}
	m["store.page_bytes"] = metric{float64(r.seeded.PageBytes), "bytes"}
	m["store.disk_bytes_per_obs"] = metric{ratio(float64(dirBytes(r.dir)), float64(r.seeded.Observations)), "bytes"}
	clientUs, err := calibrateClient()
	if err != nil {
		return result{}, nil, err
	}
	m["harness.client_us"] = metric{clientUs, "us"}

	t, err := r.countStretch(cfg.seconds/2, m)
	if err != nil {
		return result{}, nil, err
	}
	if err := s.close(r); err != nil {
		return result{}, nil, err
	}
	restored, err := s.ladder(cfg, r.model, dir, m)
	if err != nil {
		return result{}, nil, err
	}
	info := map[string]any{
		"trace_file": cfg.tracePath(), "ladder_requests": w.traceOps,
		"requests_restored": restored, "setups": all,
	}
	if t.firstErr != nil {
		info["first_error"] = t.firstErr.Error()
	}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, info, nil
}

// countStretch is the traced run's untraced part: two clients for the
// given time, with every count read before and after, then a compaction,
// five scrapes and the output check. Counts repeat only as well as the
// operation count does, so they are reported per thousand operations.
func (r *rig) countStretch(seconds float64, m map[string]metric) (t tally, err error) {
	before, err := r.counters()
	if err != nil {
		return t, err
	}
	peak, stop, sampled := runtime.NumGoroutine(), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				peak = max(peak, runtime.NumGoroutine())
			}
		}
	}()
	rec := newRecording(seconds, nil)
	t = r.drive(0, rec.end(), rec)
	close(stop)
	<-sampled
	after, err := r.counters()
	if err != nil {
		return t, err
	}
	ops := float64(t.attempted - t.failed)
	ps := rec.stats()
	m["harness.p99_us"] = metric{ps.raw.P99us, "us"}
	m["harness.p999_us"] = metric{ps.p999us, "us"}
	m["harness.p99_samples"] = metric{float64(ps.samplesPerWindow), "count"}
	m["fail_ratio"] = metric{ratio(float64(t.failed), float64(t.attempted)), "ratio"}
	m["store.fsyncs_per_kop"] = metric{perK(after.fsyncs-before.fsyncs, ops), "1/kop"}
	m["store.page_outs_per_kop"] = metric{perK(after.pageOuts-before.pageOuts, ops), "1/kop"}
	m["knative.evictions_per_kop"] = metric{perK(after.evictions-before.evictions, ops), "1/kop"}
	warm, cold := after.restoresWarm-before.restoresWarm, after.restoresCold-before.restoresCold
	m["knative.restores_warm_per_kop"] = metric{perK(warm, ops), "1/kop"}
	m["knative.restores_cold_per_kop"] = metric{perK(cold, ops), "1/kop"}
	m["knative.tier_hit_ratio"] = metric{1 - ratio(warm+cold, ops), "ratio"}
	m["knative.restore_warm_us"] = metric{1e6 * ratio(after.restoreWarmSum-before.restoreWarmSum, warm), "us"}
	m["knative.restore_cold_us"] = metric{1e6 * ratio(after.restoreColdSum-before.restoreColdSum, cold), "us"}
	m["knative.router_retries"] = metric{after.routerRetries - before.routerRetries, "count"}
	m["knative.router_errors"] = metric{after.routerErrors - before.routerErrors, "count"}
	m["runtime.allocs_per_op"] = metric{ratio(after.mallocs-before.mallocs, ops), "count"}
	m["runtime.alloc_bytes_per_op"] = metric{ratio(after.allocBytes-before.allocBytes, ops), "bytes"}
	m["runtime.gc_cycles"] = metric{after.gcs - before.gcs, "count"}
	m["runtime.gc_pause_ms_total"] = metric{(after.gcPau - before.gcPau) / 1e6, "ms"}
	m["runtime.goroutines_peak"] = metric{float64(peak), "count"}
	t0 := time.Now()
	if err := r.shards[0].st.Compact(); err != nil {
		return t, err
	}
	m["store.compact_ms"] = metric{time.Since(t0).Seconds() * 1e3, "ms"}
	var scrapes []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := scrape(r.shards[0].addr); err != nil {
			return t, err
		}
		scrapes = append(scrapes, time.Since(t0).Seconds()*1e3)
	}
	m["serving.scrape_ms"] = metric{median(scrapes), "ms"}
	for _, err := range r.verify() {
		t.add(1, err)
	}
	return t, nil
}

// ladder runs the rungs, every one from a copy of one seeded state, fills
// in the timing metrics, writes the trace file, and returns how many of
// the handler rung's requests restored an app.
func (s *session) ladder(cfg config, model *femux.Model, dir string, m map[string]metric) (restoredRequests int, err error) {
	w := cfg.w
	if err := seedStores(filepath.Join(dir, "seed"), newGenerator(w, cfg.seed)); err != nil {
		return 0, err
	}
	tr := &tracer{t0: time.Now(), spans: map[string][]span{}}
	n := w.traceOps
	socket := func(r *rig) ([clients]doer, error) {
		return [clients]doer{r.conns[0].doer(), r.conns[1].doer()}, nil
	}
	both := func(d doer) ([clients]doer, error) { return [clients]doer{d, d}, nil }
	record := func(name, parent string) func(*rig, int, time.Time, time.Time) {
		return func(_ *rig, k int, start, end time.Time) { tr.add(name, k, parent, start, end) }
	}

	untraced, err := s.rung(cfg, model, dir, "untraced", n, socket, nil)
	if err != nil {
		return 0, err
	}
	traced, err := s.rung(cfg, model, dir, "op", n, socket, record("op", ""))
	if err != nil {
		return 0, err
	}
	m["trace.overhead_ratio"] = metric{ratio(untraced.Seconds(), traced.Seconds()), "ratio"}

	belowSocket := "op"
	m["knative.router_hop_us"] = metric{0, "us"}
	if w.shards > 1 {
		belowSocket = "shards.direct"
		_, err := s.rung(cfg, model, dir, belowSocket, n, func(r *rig) ([clients]doer, error) {
			ds, err := r.dialShards()
			if err != nil {
				return [clients]doer{}, err
			}
			return both(splitDoer(ds))
		}, record(belowSocket, "op"))
		if err != nil {
			return 0, err
		}
		m["knative.router_hop_us"] = metric{tr.selfUs("op", belowSocket), "us"}
	}
	inProcess := func(h func(*shard) http.Handler) func(r *rig) ([clients]doer, error) {
		return func(r *rig) ([clients]doer, error) {
			var ds []doer
			for _, sh := range r.shards {
				ds = append(ds, handlerDoer(h(sh)))
			}
			if len(ds) == 1 {
				return both(ds[0])
			}
			return both(splitDoer(ds))
		}
	}
	if _, err := s.rung(cfg, model, dir, "serving.stack", n,
		inProcess(func(sh *shard) http.Handler { return sh.stack }), record("serving.stack", belowSocket)); err != nil {
		return 0, err
	}

	// The handler rung also notes which requests restored an app, and
	// counts the process's allocations across its timed requests.
	var restoredUs []float64
	var restoredWarm, restoredCold, reclassified float64
	var ms0, ms1 runtime.MemStats
	var lastWarm, lastCold float64
	blocks := func(r *rig) (n float64) {
		for _, c := range r.gen.count {
			n += float64(int(c) / blockSize)
		}
		return n
	}
	restores := func(r *rig) (warm, cold float64) {
		for _, sh := range r.shards {
			warm += sh.sm.Restores.Value("warm")
			cold += sh.sm.Restores.Value("cold")
		}
		return
	}
	_, err = s.rung(cfg, model, dir, "knative.handler", n,
		inProcess(func(sh *shard) http.Handler { return sh.svc.Handler() }),
		func(r *rig, k int, start, end time.Time) {
			tr.add("knative.handler", k, "serving.stack", start, end)
			warm, cold := restores(r)
			if k == 0 {
				runtime.ReadMemStats(&ms0)
				reclassified = -blocks(r)
			} else if d := warm - lastWarm + cold - lastCold; d > 0 {
				restoredWarm += warm - lastWarm
				restoredCold += cold - lastCold
				restoredUs = append(restoredUs, float64(end.Sub(start))/1e3)
			}
			lastWarm, lastCold = warm, cold
			if k == n-1 {
				runtime.ReadMemStats(&ms1)
				reclassified += blocks(r) // requests that completed a block reclassified too
			}
		})
	if err != nil {
		return 0, err
	}
	perReq := 1.0
	if w.batch {
		perReq = batchItems
	}
	handlerUs := median(tr.us("knative.handler"))
	m["knative.handler_us"] = metric{handlerUs, "us"}
	m["knative.batch_handler_us_per_obs"] = metric{handlerUs / perReq, "us"}
	m["knative.handler_allocs_per_op"] = metric{float64(ms1.Mallocs-ms0.Mallocs) / float64(n-1), "count"}
	m["knative.handler_bytes_per_op"] = metric{float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n-1), "bytes"}
	m["serving.middleware_us"] = metric{tr.selfUs("serving.stack", "knative.handler"), "us"}
	m["loopback.roundtrip_us"] = metric{tr.selfUs(belowSocket, "serving.stack"), "us"}
	m["knative.handler_restored_us"] = metric{median(restoredUs), "us"}

	if err := leaves(cfg, model, dir, tr); err != nil {
		return 0, err
	}
	leaf := func(name string) float64 { return median(tr.us(name)) }
	m["store.append_us"] = metric{leaf("store.append"), "us"}
	m["store.append_fsync_us"] = metric{leaf("store.append_fsync"), "us"}
	m["store.append_batch64_us"] = metric{leaf("store.append_batch"), "us"}
	m["store.restore_warm_us"] = metric{leaf("store.restore_window.warm"), "us"}
	m["store.restore_cold_us"] = metric{leaf("store.restore_window.cold"), "us"}
	m["store.page_out_us"] = metric{leaf("store.page_out"), "us"}
	m["femux.target_us"] = metric{leaf("femux.target"), "us"}
	m["femux.reclassify_us"] = metric{leaf("femux.reclassify"), "us"}
	m["features.extract_us"] = metric{leaf("features.extract"), "us"}
	m["forecast.into_us"] = metric{leaf("forecast.into"), "us"}
	m["lifecycle.detector_of_us"] = metric{leaf("lifecycle.detector_of"), "us"}
	m["lifecycle.observe_ns"] = metric{1e3 * leaf("lifecycle.observe"), "ns"}
	// Reclassification's share of handler time: requests that restored an
	// app or completed a block, times one reclassification, over all
	// handler time. Then the restore path's leaves against the handler
	// time of the requests that restored.
	restored := restoredWarm + restoredCold
	m["femux.reclassify_share"] = metric{ratio((restored+reclassified)*leaf("femux.reclassify"), float64(n)*handlerUs), "ratio"}
	restoreUs := ratio(restoredWarm*leaf("store.restore_window.warm")+restoredCold*leaf("store.restore_window.cold"), restored)
	m["knative.restore_leaf_share"] = metric{
		ratio(restoreUs+leaf("lifecycle.detector_of")+leaf("femux.reclassify"), median(restoredUs)), "ratio"}

	return len(restoredUs), tr.write(cfg)
}

// leaves times the layers' public functions one by one, on the apps the
// ladder's requests name, against a store opened on a copy of the seeded
// state and policy, detector and workspace held here.
func leaves(cfg config, model *femux.Model, dir string, tr *tracer) error {
	w := cfg.w
	open := func(name string, opt store.Options) (*store.Store, error) {
		if err := copyDir(shardDir(filepath.Join(dir, "seed"), 0), filepath.Join(dir, name)); err != nil {
			return nil, err
		}
		return store.Open(filepath.Join(dir, name), opt)
	}
	st, err := open("leaves", storeOptions(w))
	if err != nil {
		return err
	}
	defer st.Close()
	durable := storeOptions(w)
	durable.Sync = store.SyncAlways
	dst, err := open("leaves-fsync", durable)
	if err != nil {
		return err
	}
	defer dst.Close()

	g := newGenerator(w, cfg.seed)
	ext := features.NewExtractor()
	ws := forecast.NewWorkspace()
	mcfg := model.Config()
	var next [clients]int
	batch := make([]store.Observation, batchItems)
	// The store under test is shard 0's: only its apps have history here.
	owned := func(a int) bool { return w.shards == 1 || store.ShardOf(g.names[a], w.shards) == 0 }
	const parent = "knative.handler"
	for k, timed := 0, 0; timed < leafOps && k < w.traceOps; k++ {
		c := k & 1
		o := g.next(c, next[c])
		next[c]++
		a := o.app
		if o.kind == opBatch {
			a = g.batchApp(c, o.app, 0)
		}
		if !owned(a) {
			continue
		}
		timed++
		name := g.names[a]
		start := time.Now()
		win, paged, _ := st.RestoreWindow(name)
		end := time.Now()
		if paged {
			tr.add("store.restore_window.cold", k, parent, start, end)
		} else {
			tr.add("store.restore_window.warm", k, parent, start, end)
		}
		var det lifecycle.Detector
		tr.measure("lifecycle.detector_of", k, parent, func() { det = lifecycle.DetectorOf(win, blockSize) })
		if done := len(win) / blockSize; done > 0 {
			tr.measure("features.extract", k, "femux.reclassify", func() { ext.Extract(win[(done-1)*blockSize:done*blockSize], 0) })
		}
		// The first target call on a fresh policy classifies the last
		// completed block; the second is the steady state.
		pol := model.NewAppPolicy(0)
		tr.measure("femux.reclassify", k, parent, func() { pol.TargetQuantilesWS(win, 1, 0, ws) })
		v := g.value(a, int(g.count[a]))
		var aerr error
		tr.measure("store.append", k, parent, func() { aerr = st.Append(name, v) })
		if aerr != nil {
			return aerr
		}
		g.count[a]++
		win = append(win, v)
		tr.measure("lifecycle.observe", k, parent, func() { det.Observe(v) })
		tr.measure("femux.target", k, parent, func() { pol.TargetQuantilesWS(win, 1, 0, ws) })
		fc, err := forecast.ByName(mcfg.Forecasters, pol.CurrentForecaster())
		if err != nil {
			return err
		}
		tr.measure("forecast.into", k, "femux.target", func() {
			forecast.Into(fc, win[len(win)-window:], mcfg.Horizon, ws.Out(mcfg.Horizon), ws)
		})
		tr.measure("store.page_out", k, parent, func() { aerr = st.PageOut(name) })
		if aerr != nil {
			return aerr
		}
		tr.measure("store.restore_window.cold", k, parent, func() { st.RestoreWindow(name) })
		for j, next := 0, a/clients; j < batchItems; next++ {
			if b := g.batchApp(c, next, 0); owned(b) {
				batch[j] = store.Observation{App: g.names[b], Concurrency: g.value(b, seedMinutes+k)}
				j++
			}
		}
		tr.measure("store.append_batch", k, parent, func() { aerr = st.AppendBatch(batch) })
		if aerr != nil {
			return aerr
		}
		if timed <= fsyncOps {
			tr.measure("store.append_fsync", k, parent, func() { aerr = dst.Append(name, v) })
			if aerr != nil {
				return aerr
			}
		}
	}
	return nil
}
