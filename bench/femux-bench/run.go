package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
	"github.com/ubc-cirrus-lab/femux-go/internal/knative"
	"github.com/ubc-cirrus-lab/femux-go/internal/store"
)

const (
	windows      = 6  // equal slices of the measured time; rates and p99 are medians over them
	oracleApps   = 64 // apps whose final forecast is compared bit for bit with the oracle
	forecastPath = "/forecast?horizon=5&quantiles=0.5,0.9,0.99"
)

// doer performs one HTTP exchange; the reply body is valid until the next
// call. The clients' connections and the ladder's in-process rungs all
// look like this, so one exec builds and checks requests for every rung.
type doer func(method, path string, body []byte) (status int, reply []byte, err error)

func (c *conn) doer() doer {
	return func(method, path string, body []byte) (int, []byte, error) {
		status, err := c.do(method, path, body)
		return status, c.body.Bytes(), err
	}
}

// scratch is one client's reusable request and reply state.
type scratch struct {
	body   []byte
	target knative.TargetResponse
	fc     knative.ForecastResponse
	batch  knative.BatchObserveResponse
	apps   [batchItems]int
}

// exec sends client c's request o through do, checks the reply against
// the harness's own per-app counts, and advances those counts. It returns
// how many operations the request carried (1, or a batch's items) and an
// error if any of them failed or was answered wrongly.
func (r *rig) exec(do doer, c int, o op, sc *scratch) (int, error) {
	g := r.gen
	if o.kind == opBatch {
		sc.body = append(sc.body[:0], `{"observations":[`...)
		for j := range sc.apps {
			a := g.batchApp(c, o.app, j)
			sc.apps[j] = a
			if j > 0 {
				sc.body = append(sc.body, ',')
			}
			sc.body = append(sc.body, `{"app":"`...)
			sc.body = append(sc.body, g.names[a]...)
			sc.body = append(sc.body, `","concurrency":`...)
			sc.body = strconv.AppendFloat(sc.body, g.value(a, int(g.count[a])), 'f', -1, 64)
			sc.body = append(sc.body, '}')
		}
		sc.body = append(sc.body, "]}"...)
		status, reply, err := do(http.MethodPost, "/v1/observe/batch", sc.body)
		if err != nil {
			return batchItems, err
		}
		if status != http.StatusOK {
			return batchItems, fmt.Errorf("batch: HTTP %d: %.200s", status, reply)
		}
		sc.batch = knative.BatchObserveResponse{}
		if err := json.Unmarshal(reply, &sc.batch); err != nil {
			return batchItems, fmt.Errorf("batch: %w", err)
		}
		if len(sc.batch.Results) != batchItems {
			return batchItems, fmt.Errorf("batch: %d results for %d items", len(sc.batch.Results), batchItems)
		}
		for j, res := range sc.batch.Results {
			a := sc.apps[j]
			if res.Error == "" {
				g.count[a]++ // acknowledged, so durable, whatever else is wrong with the reply
			}
			if res.Error != "" || res.App != g.names[a] || res.History != int(g.count[a]) {
				err = fmt.Errorf("batch item %d: got %+v, want app %s history %d", j, res, g.names[a], g.count[a])
			}
		}
		return batchItems, err
	}

	name := g.names[o.app]
	switch o.kind {
	case opObserve:
		sc.body = strconv.AppendFloat(append(sc.body[:0], `{"concurrency":`...), o.value, 'f', -1, 64)
		sc.body = append(sc.body, '}')
		status, reply, err := do(http.MethodPost, "/v1/apps/"+name+"/observe", sc.body)
		if err == nil && status == http.StatusOK {
			g.count[o.app]++
		}
		return 1, r.checkTarget(o.app, status, reply, err, sc)
	case opTarget:
		status, reply, err := do(http.MethodGet, "/v1/apps/"+name+"/target?concurrency=1", nil)
		return 1, r.checkTarget(o.app, status, reply, err, sc)
	default:
		status, reply, err := do(http.MethodGet, "/v1/apps/"+name+forecastPath, nil)
		if err != nil {
			return 1, err
		}
		if status != http.StatusOK {
			return 1, fmt.Errorf("forecast %s: HTTP %d: %.200s", name, status, reply)
		}
		sc.fc = knative.ForecastResponse{}
		if err := json.Unmarshal(reply, &sc.fc); err != nil {
			return 1, fmt.Errorf("forecast %s: %w", name, err)
		}
		if sc.fc.App != name || len(sc.fc.Values) != 5 || len(sc.fc.Quantiles) != 3 {
			return 1, fmt.Errorf("forecast %s: got app %s, %d values, %d bands", name, sc.fc.App, len(sc.fc.Values), len(sc.fc.Quantiles))
		}
		return 1, nil
	}
}

// checkTarget checks an observe or target reply: right app, and a history
// exactly as long as the observations this harness has had acknowledged.
func (r *rig) checkTarget(a int, status int, reply []byte, err error, sc *scratch) error {
	name := r.gen.names[a]
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %.200s", name, status, reply)
	}
	sc.target = knative.TargetResponse{}
	if err := json.Unmarshal(reply, &sc.target); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if sc.target.App != name || sc.target.History != int(r.gen.count[a]) {
		return fmt.Errorf("%s: got app %s history %d, want history %d", name, sc.target.App, sc.target.History, r.gen.count[a])
	}
	return nil
}

// tally counts operations (a batch item is one).
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) add(items int, err error) {
	t.attempted += items
	if err != nil {
		t.failed += items
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// The machine under the benchmark is a shared 2-core VM whose speed on
// this kind of work — loopback round trips, wake-ups, small copies —
// moves by a quarter for minutes at a time (README, "Reference speed").
// So while the clients measure femuxd they also, every probeEvery, time a
// few round trips to a stub server that no commit can change, and every
// timing is reported as it would be on a machine where that round trip
// takes refNominal: scaled by the stub's median in the same window.
const (
	probeEvery = 50 * time.Millisecond
	probeTrips = 4
	refNominal = 40 * time.Microsecond
)

// clientRec is what one client keeps of the measured phase, by window.
type clientRec struct {
	lat   [windows][]uint32 // request latencies, ns, completion order
	ref   [windows][]uint32 // reference round trips, ns
	items [windows]int      // operations acknowledged
}

// recording is the measured phase: windows equal slices of time from start.
type recording struct {
	start time.Time
	win   time.Duration
	ref   *rig // the stub the clients probe; nil leaves timings as measured
	by    [clients]clientRec
	cpuAt [windows + 1]float64 // process CPU seconds at each window boundary (client 0 reads it)
}

func newRecording(seconds float64, ref *rig) *recording {
	rec := &recording{win: time.Duration(seconds * float64(time.Second) / windows), ref: ref}
	for c := range rec.by {
		for w := range rec.by[c].lat {
			rec.by[c].lat[w] = make([]uint32, 0, 1<<17)
		}
	}
	rec.cpuAt[0] = cpuSeconds()
	rec.start = time.Now()
	return rec
}

func (rec *recording) end() time.Time { return rec.start.Add(windows * rec.win) }

// window is the window t falls in; windows and beyond is after the end.
func (rec *recording) window(t time.Time) int { return int(t.Sub(rec.start) / rec.win) }

func ns(d time.Duration) uint32 { return uint32(min(d, math.MaxUint32)) }

// drive runs the closed loop: each client sends its next n requests, or,
// when n is 0, keeps going until until. With rec set it records latencies
// and, if rec has a stub, probes it.
func (r *rig) drive(n int, until time.Time, rec *recording) tally {
	var wg sync.WaitGroup
	var out [clients]tally
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var sc, refSc scratch
			do := r.conns[c].doer()
			var probed time.Time
			mark := 1 // client 0: the next window boundary to read the CPU clock at
			for done := 0; n == 0 || done < n; done++ {
				t0 := time.Now()
				if n == 0 && !t0.Before(until) {
					break
				}
				if rec != nil && rec.ref != nil && t0.Sub(probed) >= probeEvery {
					if w := rec.window(t0); w < windows {
						for i := 0; i < probeTrips; i++ {
							rec.ref.exec(rec.ref.conns[c].doer(), c, op{kind: opObserve, app: c, value: 1.25}, &refSc)
							t1 := time.Now()
							rec.by[c].ref[w] = append(rec.by[c].ref[w], ns(t1.Sub(t0)))
							t0 = t1
						}
					}
					probed = t0
				}
				o := r.gen.next(c, r.next[c])
				r.next[c]++
				items, err := r.exec(do, c, o, &sc)
				out[c].add(items, err)
				if rec == nil {
					continue
				}
				t1 := time.Now()
				w := rec.window(t1)
				if w < windows {
					if err == nil {
						rec.by[c].items[w] += items
					}
					rec.by[c].lat[w] = append(rec.by[c].lat[w], ns(t1.Sub(t0)))
				}
				if c == 0 && mark <= min(w, windows) {
					for cpu := cpuSeconds(); mark <= min(w, windows); mark++ {
						rec.cpuAt[mark] = cpu
					}
				}
			}
			if rec != nil && c == 0 {
				for cpu := cpuSeconds(); mark <= windows; mark++ {
					rec.cpuAt[mark] = cpu
				}
			}
		}(c)
	}
	wg.Wait()
	var t tally
	for _, o := range out {
		t.merge(o)
	}
	return t
}

// quantile returns the q-quantile of sorted by nearest rank.
func quantile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[min(int(q*float64(len(sorted))), len(sorted)-1)])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// figures are one set of the measured phase's numbers: each a median over
// the windows of that window's value.
type figures struct {
	OpsPerS    float64 `json:"ops_per_s"`
	P50us      float64 `json:"p50_us"`
	P95us      float64 `json:"p95_us"`
	P99us      float64 `json:"p99_us"`
	CPUusPerOp float64 `json:"cpu_us_per_op"`
}

// phaseStats is what the measured phase yields.
type phaseStats struct {
	atRef, raw figures // at reference speed, and as measured
	// slow is the machine's reading: the stub's median round trip over
	// refNominal, median over windows. 1 when nothing was probed.
	slow             float64
	rates            []float64 // as measured, window by window
	p999us           float64   // as measured, over the whole phase
	samplesPerWindow int       // requests in the smallest window
}

func (rec *recording) stats() phaseStats {
	both := func(w int, pick func(*clientRec) []uint32) []uint32 {
		merged := slices.Concat(pick(&rec.by[0]), pick(&rec.by[1]))
		slices.Sort(merged)
		return merged
	}
	var all []uint32
	var raw, atRef [5][]float64 // rate, p50, p95, p99, cpu
	var slows []float64
	ps := phaseStats{slow: 1}
	for w := 0; w < windows; w++ {
		lat := both(w, func(c *clientRec) []uint32 { return c.lat[w] })
		if len(lat) == 0 {
			continue
		}
		if ps.samplesPerWindow == 0 || len(lat) < ps.samplesPerWindow {
			ps.samplesPerWindow = len(lat)
		}
		all = append(all, lat...)
		items := float64(max(rec.by[0].items[w]+rec.by[1].items[w], 1))
		slow := 1.0
		if ref := both(w, func(c *clientRec) []uint32 { return c.ref[w] }); len(ref) > 0 {
			slow = quantile(ref, 0.5) / float64(refNominal)
			slows = append(slows, slow)
		}
		vals := [5]float64{
			items / rec.win.Seconds(),
			quantile(lat, 0.50) / 1e3, quantile(lat, 0.95) / 1e3, quantile(lat, 0.99) / 1e3,
			(rec.cpuAt[w+1] - rec.cpuAt[w]) * 1e6 / items,
		}
		ps.rates = append(ps.rates, vals[0])
		for i, v := range vals {
			raw[i] = append(raw[i], v)
			if i == 0 {
				atRef[i] = append(atRef[i], v*slow) // a rate: a slow machine shows less of it
			} else {
				atRef[i] = append(atRef[i], v/slow)
			}
		}
	}
	fill := func(f *figures, v [5][]float64) {
		f.OpsPerS, f.P50us, f.P95us, f.P99us, f.CPUusPerOp = median(v[0]), median(v[1]), median(v[2]), median(v[3]), median(v[4])
	}
	fill(&ps.raw, raw)
	fill(&ps.atRef, atRef)
	if len(slows) > 0 {
		ps.slow = median(slows)
	}
	slices.Sort(all)
	ps.p999us = quantile(all, 0.999) / 1e3
	return ps
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// liveHeapMiB is HeapAlloc after a forced collection.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// oracleApp is the j-th app whose final forecast verify checks.
func (g *generator) oracleApp(j int) int { return int(hash3(g.seed, j, -2, 6) % uint64(len(g.names))) }

// verify is the end-of-run output check; it returns one error per wrong
// answer. Durable totals: every shard's store holds exactly the seeded
// plus acknowledged observations of the apps it owns. Forecasts: for
// oracleApps sampled apps, the served target and 5-step forecast equal,
// bit for bit, those of an untiered, storeless AppPolicy fed the series
// the harness regenerates from its own counts.
func (r *rig) verify() []error {
	var errs []error
	g := r.gen
	want := make([]int64, len(r.shards))
	for a, name := range g.names {
		id := 0
		if len(r.shards) > 1 {
			id = store.ShardOf(name, len(r.shards))
		}
		want[id] += int64(g.count[a])
	}
	for id, sh := range r.shards {
		if got := sh.st.TotalObservations(); got != want[id] {
			errs = append(errs, fmt.Errorf("shard %d: store holds %d observations, seeded+acknowledged is %d", id, got, want[id]))
		}
	}

	var sc scratch
	do := r.conns[0].doer()
	ws := forecast.NewWorkspace()
	for j := 0; j < oracleApps; j++ {
		a := g.oracleApp(j)
		name := g.names[a]
		// Target first: a just-restored app serves forecasts from the
		// default forecaster until a target call classifies its last block.
		status, reply, err := do(http.MethodGet, "/v1/apps/"+name+"/target?concurrency=1", nil)
		if err := r.checkTarget(a, status, reply, err, &sc); err != nil {
			errs = append(errs, fmt.Errorf("oracle: %w", err))
			continue
		}
		status, reply, err = do(http.MethodGet, "/v1/apps/"+name+"/forecast?horizon=5", nil)
		sc.fc = knative.ForecastResponse{}
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(reply, &sc.fc)
		}
		if err != nil || status != http.StatusOK {
			errs = append(errs, fmt.Errorf("oracle: forecast %s: HTTP %d: %v", name, status, err))
			continue
		}
		series := g.series(a)
		pol := r.model.NewAppPolicy(0)
		target := pol.TargetQuantilesWS(series, 1, 0, ws)
		values := pol.ForecastWS(series, 5, nil, ws)
		same := sc.target.Target == target && sc.target.Forecaster == pol.CurrentForecaster() &&
			sc.fc.Forecaster == pol.CurrentForecaster() && len(sc.fc.Values) == len(values)
		for i := 0; same && i < len(values); i++ {
			same = math.Float64bits(sc.fc.Values[i]) == math.Float64bits(values[i])
		}
		if !same {
			errs = append(errs, fmt.Errorf("oracle: %s after %d observations: served target %d %s forecast %v, oracle target %d %s forecast %v",
				name, len(series), sc.target.Target, sc.fc.Forecaster, sc.fc.Values, target, pol.CurrentForecaster(), values))
		}
	}
	return errs
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setUps performs cfg.reps complete set-ups, keeps the last, and returns
// every set-up's phase times.
func (s *session) setUps(cfg config, dir string) (*rig, []phases, error) {
	var all []phases
	for i := 0; ; i++ {
		r, err := setUp(cfg, filepath.Join(dir, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, nil, err
		}
		s.track(r)
		all = append(all, r.phases)
		if i == cfg.reps-1 {
			return r, all, nil
		}
		if err := s.close(r); err != nil {
			return nil, nil, err
		}
	}
}

// runUntraced is the run every end-to-end metric comes from.
func (s *session) runUntraced(cfg config) (result, map[string]any, error) {
	dir, err := os.MkdirTemp(s.root, cfg.w.name+"-")
	if err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(dir)
	r, all, err := s.setUps(cfg, dir)
	if err != nil {
		return result{}, nil, err
	}
	defer s.close(r)

	// Live heap is read here, where state is a function of the seed alone:
	// after the timed windows it would grow with however many operations
	// this commit managed, and a faster commit would look like a leak.
	heap := liveHeapMiB()
	clientUs, err := calibrateClient()
	if err != nil {
		return result{}, nil, err
	}
	ref, closeRef, err := newStub()
	if err != nil {
		return result{}, nil, err
	}
	defer closeRef()

	rec := newRecording(cfg.seconds, ref)
	t := r.drive(0, rec.end(), rec)
	ps := rec.stats()

	for _, err := range r.verify() {
		t.add(1, err)
	}
	totals := make([]float64, len(all))
	for i, p := range all {
		totals[i] = p.total()
	}
	res := result{
		Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: map[string]metric{
			"ops_per_s":     {ps.atRef.OpsPerS, "1/s"},
			"p50_us":        {ps.atRef.P50us, "us"},
			"p95_us":        {ps.atRef.P95us, "us"},
			"cpu_us_per_op": {ps.atRef.CPUusPerOp, "us"},
			"live_heap_mib": {heap, "MiB"},
			"setup_s":       {median(totals) / ps.slow, "s"},
		},
	}
	info := map[string]any{
		"as_measured":        ps.raw,
		"setup_s_measured":   median(totals),
		"slow":               ps.slow,
		"setups":             all,
		"samples_per_window": ps.samplesPerWindow,
		"window_ops_per_s":   ps.rates,
		"harness.client_us":  clientUs,
		"harness.p999_us":    ps.p999us,
		"fail_ratio":         float64(t.failed) / float64(max(t.attempted, 1)),
	}
	if t.firstErr != nil {
		info["first_error"] = t.firstErr.Error()
	}
	return res, info, nil
}

// calibrateClient measures the harness's own cost per request: the
// median round trip of both clients — request builder, connection, reply
// check — against a stub that answers every observe with a canned
// TargetResponse. What p50_us has beyond this is femuxd's.
func calibrateClient() (us float64, err error) {
	r, closeStub, err := newStub()
	if err != nil {
		return 0, err
	}
	defer closeStub()
	rec := newRecording(windows, nil)
	if t := r.drive(3000, time.Time{}, rec); t.failed > 0 {
		return 0, fmt.Errorf("calibration: %v", t.firstErr)
	}
	return rec.stats().raw.P50us, nil
}

// newStub starts the stub and connects both clients to it. The stub
// answers every observe with a canned TargetResponse whose history is
// right, so the harness's reply check runs as it does against femuxd.
func newStub() (*rig, func(), error) {
	w := workload{apps: clients} // one app per client
	r := &rig{w: w, gen: newGenerator(w, 0)}
	var served [clients]int // by app; each is touched by one connection's goroutine only
	stub, err := serve(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		name := strings.Split(req.URL.Path, "/")[3]
		a := int(name[len(name)-1] - '0')
		served[a]++
		rw.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(rw, `{"app":%q,"target":1,"forecaster":"warm1","historyLen":%d}`+"\n", name, seedMinutes+served[a])
	}))
	if err != nil {
		return nil, nil, err
	}
	for c := range r.conns {
		if r.conns[c], err = dial(stub.addr); err != nil {
			stub.Close()
			return nil, nil, err
		}
	}
	return r, func() { r.Close(); stub.Close() }, nil
}
