package knative

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"github.com/ubc-cirrus-lab/femux-go/internal/femux"
	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
	"github.com/ubc-cirrus-lab/femux-go/internal/lifecycle"
	"github.com/ubc-cirrus-lab/femux-go/internal/serving"
	"github.com/ubc-cirrus-lab/femux-go/internal/store"
)

// TestTieredForecastsBitIdentical is the tentpole's invisibility
// property: a service squeezed through every demotion path — hot LRU
// eviction under a tiny -max-hot-apps, workspaces shared across apps,
// store warm->cold paging, compaction embedding page stubs in snapshots,
// mid-replay drops, restores resumed from a classification memo — and
// through everything that must invalidate such a memo — model swaps,
// an imported window of the same length, a store reopen — must
// serve the same forecaster and
// Float64bits-identical targets, forecasts and quantile bands as an
// untiered, never-evicting control that saw the same stream. Random
// interleavings are compared mid-stream and at the end, over a
// directory store and a memory store.
func TestTieredForecastsBitIdentical(t *testing.T) {
	for _, v := range []struct {
		name   string
		memory bool
	}{{"store", false}, {"memory", true}} {
		t.Run(v.name, func(t *testing.T) {
			testTieredForecastsBitIdentical(t, v.memory)
		})
	}
}

// tierNode is one service under the replay: its handler sits behind an
// indirection so a store reopen can swap in the restarted service.
type tierNode struct {
	svc *Service
	sm  *ServiceMetrics
	st  *store.Store // the service's store
	dir string       // "" for a memory store, which cannot be reopened
	srv *httptest.Server
	// restart reopens the store (memory nodes: opens it, once) and builds
	// the service, serving model.
	restart func(model *femux.Model)
	// extracts and resumes total femux_classifications_total over the
	// services restart has retired.
	extracts, resumes int
}

func (n *tierNode) classifications() (extract, resumed int) {
	e, r := classifications(n.sm)
	return n.extracts + e, n.resumes + r
}

func newTierNode(t *testing.T, so ServiceOptions, storeOpt *store.Options) *tierNode {
	t.Helper()
	n := &tierNode{}
	if storeOpt != nil {
		n.dir = t.TempDir()
	}
	n.restart = func(model *femux.Model) {
		if n.sm != nil {
			n.extracts, n.resumes = n.classifications()
		}
		if n.st != nil {
			if err := n.st.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if storeOpt != nil {
			st, err := store.Open(n.dir, *storeOpt)
			if err != nil {
				t.Fatal(err)
			}
			so.Store = st
		}
		n.svc = NewServiceWith(model, so)
		n.st = n.svc.st
		n.sm = n.svc.InstrumentWith(serving.NewRegistry())
	}
	n.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.svc.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		n.srv.Close()
		if n.st != nil {
			n.st.Close()
		}
	})
	return n
}

func testTieredForecastsBitIdentical(t *testing.T, memory bool) {
	models := []*femux.Model{muxModelA(t), muxModelB(t)}
	cur := 0 // index of the model every node serves
	apps := make([]string, 8)
	for i := range apps {
		apps[i] = fmt.Sprintf("eq-%d", i)
	}
	minute := make([]int, len(apps)) // next minute of each app's shaped series
	// stream mirrors, per app, every value it was sent: the history every
	// service holds, whose end a hot app's tail is.
	stream := make([][]float64, len(apps))

	so := ServiceOptions{MaxHotApps: 2}
	var storeOpt *store.Options
	if !memory {
		storeOpt = &store.Options{
			Sync: store.SyncNever, CompactEvery: -1,
			InlineBudget: 3, // most of the fleet is forced cold
		}
	}
	tiered := newTierNode(t, so, storeOpt)
	// The reference: the untiered control on a memory store.
	ref := newTierNode(t, ServiceOptions{}, nil)
	nodes := []*tierNode{ref, tiered}
	for _, n := range nodes {
		n.restart(models[cur])
	}

	// driftState reads an app's drift detector, tail and observation
	// count through the same acquire path serving uses (restoring it if
	// demoted).
	driftState := func(s *Service, app string) (d lifecycle.Detector, tail []float64, n int) {
		a := s.acquire(app, forecast.NewWorkspace())
		d, n = a.drift, a.n
		if a.due != 0 { // else the ring awaits its refill from the store
			tail = ringTail(a)
		}
		s.releaseApp(a)
		return d, tail, n
	}
	compares := 0
	compare := func(when string) {
		t.Helper()
		compares++
		for i, app := range apps {
			// Drift satellite: the reference's moments, the tiered
			// service's (rebuilt across every evict/page/compact/restore),
			// and a from-scratch batch recomputation of the same window
			// must all be Float64bits-identical.
			dc, tail, n := driftState(ref.svc, app)
			dt, _, _ := driftState(tiered.svc, app)
			if !dc.BitEqual(dt) {
				t.Fatalf("%s: %s: tiered drift state diverged from reference", when, app)
			}
			hist := stream[i]
			if n != len(hist) {
				t.Fatalf("%s: %s: counts %d observations of a %d-value stream", when, app, n, len(hist))
			}
			for k, v := range tail {
				if math.Float64bits(v) != math.Float64bits(hist[n-len(tail)+k]) {
					t.Fatalf("%s: %s: tail[%d] = %v, the stream holds %v", when, app, k, v, hist[n-len(tail)+k])
				}
			}
			if batch := lifecycle.DetectorOf(hist, models[0].Config().BlockSize); !dc.BitEqual(batch) {
				t.Fatalf("%s: %s: incremental drift state diverged from batch recomputation", when, app)
			}
			if a, b := dc.Score(), dt.Score(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s: %s: drift score %v != %v (not bit-identical)", when, app, a, b)
			}
		}
		for i, app := range apps {
			// The reference answers a target first (which always
			// classified). The tiered service alternates: half the apps
			// are asked for their quantile forecast first, so a restored
			// app's first call is a forecast.
			a, qa := fetchDecision(t, ref.srv.URL, app), fetchQuantileBands(t, ref.srv.URL, app)
			var b decision
			var qb []QuantileBand
			if (i+compares)%2 == 0 {
				qb, b = fetchQuantileBands(t, tiered.srv.URL, app), fetchDecision(t, tiered.srv.URL, app)
			} else {
				b, qb = fetchDecision(t, tiered.srv.URL, app), fetchQuantileBands(t, tiered.srv.URL, app)
			}
			if a.target != b.target {
				t.Fatalf("%s: %s: target %+v != %+v", when, app, a.target, b.target)
			}
			if a.forecast.Forecaster != b.forecast.Forecaster {
				t.Fatalf("%s: %s: forecaster %q != %q", when, app, a.forecast.Forecaster, b.forecast.Forecaster)
			}
			if len(a.forecast.Values) != len(b.forecast.Values) {
				t.Fatalf("%s: %s: forecast lengths %d != %d",
					when, app, len(a.forecast.Values), len(b.forecast.Values))
			}
			for i := range a.forecast.Values {
				if math.Float64bits(a.forecast.Values[i]) != math.Float64bits(b.forecast.Values[i]) {
					t.Fatalf("%s: %s: forecast[%d] %v != %v (not bit-identical)",
						when, app, i, a.forecast.Values[i], b.forecast.Values[i])
				}
			}
			// The quantile curves ride the same invisibility contract.
			if len(qa) != len(qb) {
				t.Fatalf("%s: %s: quantile band counts %d != %d", when, app, len(qa), len(qb))
			}
			for q := range qa {
				if qa[q].Level != qb[q].Level || len(qa[q].Values) != len(qb[q].Values) {
					t.Fatalf("%s: %s: band %d shape mismatch", when, app, q)
				}
				for i := range qa[q].Values {
					if math.Float64bits(qa[q].Values[i]) != math.Float64bits(qb[q].Values[i]) {
						t.Fatalf("%s: %s: quantile p%g[%d] %v != %v (not bit-identical)",
							when, app, qa[q].Level*100, i, qa[q].Values[i], qb[q].Values[i])
					}
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(42))
	next := func(i int) float64 { // app i's next observation
		minute[i]++
		v := shapedValue(i, minute[i]-1)
		stream[i] = append(stream[i], v)
		return v
	}
	ops := 700
	if testing.Short() {
		ops = 300
	}
	for op := 0; op < ops; op++ {
		switch r := rng.Intn(100); {
		case r < 45: // single observe
			i := rng.Intn(len(apps))
			v := next(i)
			for _, n := range nodes {
				if code := postObserve(t, n.srv.URL, apps[i], v); code != 200 {
					t.Fatalf("op %d: observe: %d", op, code)
				}
			}
		case r < 68: // batch observe (may repeat an app within the batch)
			obs := make([]BatchObservation, 1+rng.Intn(12))
			for k := range obs {
				i := rng.Intn(len(apps))
				obs[k] = BatchObservation{App: apps[i], Concurrency: next(i)}
			}
			body := marshalBatch(t, obs...)
			for _, n := range nodes {
				if resp, out := postBatchJSON(t, n.srv.URL, body); resp.StatusCode != 200 || out.Rejected != 0 {
					t.Fatalf("op %d: batch: %d/%d", op, resp.StatusCode, out.Rejected)
				}
			}
		case r < 76: // force a warm->cold demotion in the store (memory: no-op)
			app := apps[rng.Intn(len(apps))]
			for _, n := range nodes {
				if err := n.st.PageOut(app); err != nil {
					t.Fatalf("op %d: page out: %v", op, err)
				}
			}
		case r < 79: // snapshot (fsyncs pages, embeds stubs, GCs page files; memory: no-op)
			for _, n := range nodes {
				if err := n.st.Compact(); err != nil {
					t.Fatalf("op %d: compact: %v", op, err)
				}
			}
		case r < 82: // mid-replay drop: the next touch restores from the store
			// The dropped app's state survives demoted (minus its memo), so
			// the next compare proves the drop-and-restore round trip
			// changed nothing.
			if app := apps[rng.Intn(len(apps))]; tiered.svc.HotApps() > 0 {
				tiered.svc.dropCached(app)
			}
		case r < 86: // hot-swap the model: every memo goes stale
			cur = 1 - cur
			for _, n := range nodes {
				n.svc.SwapModel(models[cur])
			}
		case r < 90: // restart: reopen the store, rebuild the service
			for _, n := range nodes {
				if n.dir != "" {
					n.restart(models[cur])
				}
			}
		default:
			compare(fmt.Sprintf("op %d", op))
		}
	}
	compare("final")

	// The budgets actually did something: demotions happened and the hot
	// tier stayed within bounds, and the replay exercised both sides of
	// the memo.
	if hot := tiered.svc.HotApps(); hot > 2 {
		t.Errorf("hot apps = %d, want <= 2", hot)
	}
	if tiered.dir != "" && tiered.st.Stats().PageOuts == 0 {
		t.Error("inline budget never paged an app out")
	}
	if e, r := tiered.classifications(); e == 0 || r == 0 {
		t.Errorf("the tiered service extracted %d times and resumed %d: want both", e, r)
	}
	if _, r := ref.classifications(); r != 0 {
		t.Errorf("the reference resumed %d classifications, want 0", r)
	}
}

// TestTierBudgetEquivalence pins the budgets' invisibility on one
// deterministic replay — observes, batches, page-outs, dropped apps,
// model swaps, imported windows and store reopens — served at
// hot budgets 1, 3 and unlimited (0), over a directory store and a
// memory store: every run must end with the same
// forecasters, Float64bits-identical forecasts and quantile bands, and
// equal durable totals. Budgets change what is resident, never results.
func TestTierBudgetEquivalence(t *testing.T) {
	for _, memory := range []bool{false, true} {
		t.Run(fmt.Sprintf("memory=%v", memory), func(t *testing.T) {
			testTierBudgetEquivalence(t, memory)
		})
	}
}

func testTierBudgetEquivalence(t *testing.T, memory bool) {
	models := []*femux.Model{muxModelA(t), muxModelB(t)}
	cur := 0
	apps := make([]string, 12)
	for i := range apps {
		apps[i] = fmt.Sprintf("sc-%d", i)
	}
	minute := make([]int, len(apps))
	// The unlimited run is the base the bounded ones are compared with.
	budgets := []int{0, 1, 3}
	runs := make([]*tierNode, len(budgets))
	for k, b := range budgets {
		var storeOpt *store.Options
		if !memory {
			storeOpt = &store.Options{Sync: store.SyncNever, CompactEvery: -1, InlineBudget: 4}
		}
		runs[k] = newTierNode(t, ServiceOptions{MaxHotApps: b}, storeOpt)
		runs[k].restart(models[cur])
	}

	// One op stream, replayed identically against every budget.
	rng := rand.New(rand.NewSource(99))
	next := func(i int) float64 {
		minute[i]++
		return shapedValue(i, minute[i]-1)
	}
	total := 0
	for op := 0; op < 400; op++ {
		switch r := rng.Intn(100); {
		case r < 55:
			i := rng.Intn(len(apps))
			v := next(i)
			total++
			for k, ru := range runs {
				if code := postObserve(t, ru.srv.URL, apps[i], v); code != 200 {
					t.Fatalf("op %d budgets=%v: observe: %d", op, budgets[k], code)
				}
			}
		case r < 78:
			obs := make([]BatchObservation, 1+rng.Intn(8))
			for j := range obs {
				i := rng.Intn(len(apps))
				obs[j] = BatchObservation{App: apps[i], Concurrency: next(i)}
			}
			total += len(obs)
			body := marshalBatch(t, obs...)
			for k, ru := range runs {
				if resp, out := postBatchJSON(t, ru.srv.URL, body); resp.StatusCode != 200 || out.Rejected != 0 {
					t.Fatalf("op %d budgets=%v: batch: %d/%d", op, budgets[k], resp.StatusCode, out.Rejected)
				}
			}
		case r < 84:
			app := apps[rng.Intn(len(apps))]
			for k, ru := range runs {
				if err := ru.st.PageOut(app); err != nil {
					t.Fatalf("op %d budgets=%v: page out: %v", op, budgets[k], err)
				}
			}
		case r < 90: // drop one app's hot state; the next touch restores it
			app := apps[rng.Intn(len(apps))]
			for _, ru := range runs {
				ru.svc.dropCached(app)
			}
		case r < 93:
			cur = 1 - cur
			for _, ru := range runs {
				ru.svc.SwapModel(models[cur])
			}
		default:
			for _, ru := range runs {
				if ru.dir != "" {
					ru.restart(models[cur])
				}
			}
		}
	}

	// Conservation: every run holds the identical durable fleet.
	base := runs[0]
	for k, ru := range runs[1:] {
		if a, b := base.st.TotalObservations(), ru.st.TotalObservations(); a != b {
			t.Errorf("budgets=%v: durable total %d, want %d", budgets[k+1], b, a)
		}
		if a, b := base.svc.Apps(), ru.svc.Apps(); a != b {
			t.Errorf("budgets=%v: Apps %d, want %d", budgets[k+1], b, a)
		}
	}
	if got := base.st.TotalObservations(); got != int64(total) {
		t.Errorf("durable total = %d, want %d (replayed)", got, total)
	}
	// Bit-identical serving state across budgets.
	for _, app := range apps {
		want := fetchDecision(t, base.srv.URL, app)
		wantQ := fetchQuantileBands(t, base.srv.URL, app)
		for k, ru := range runs[1:] {
			b := budgets[k+1]
			got := fetchDecision(t, ru.srv.URL, app)
			if got.target != want.target {
				t.Fatalf("%s: budgets=%v target %+v != unlimited %+v", app, b, got.target, want.target)
			}
			if got.forecast.Forecaster != want.forecast.Forecaster {
				t.Fatalf("%s: budgets=%v forecaster %q != unlimited %q", app, b, got.forecast.Forecaster, want.forecast.Forecaster)
			}
			for i := range want.forecast.Values {
				if math.Float64bits(want.forecast.Values[i]) != math.Float64bits(got.forecast.Values[i]) {
					t.Fatalf("%s: budgets=%v forecast[%d] %v != %v", app, b, i,
						got.forecast.Values[i], want.forecast.Values[i])
				}
			}
			gotQ := fetchQuantileBands(t, ru.srv.URL, app)
			for q := range wantQ {
				for i := range wantQ[q].Values {
					if math.Float64bits(wantQ[q].Values[i]) != math.Float64bits(gotQ[q].Values[i]) {
						t.Fatalf("%s: budgets=%v p%g[%d] %v != %v", app, b,
							wantQ[q].Level*100, i, gotQ[q].Values[i], wantQ[q].Values[i])
					}
				}
			}
		}
	}
	// The bounded budgets held, and demoted apps along the way.
	for k, ru := range runs[1:] {
		b := budgets[k+1]
		if hot := ru.svc.HotApps(); hot > b {
			t.Errorf("budgets=%v: hot apps = %d, want <= %d", b, hot, b)
		}
		if ru.svc.Evictions() == 0 {
			t.Errorf("budgets=%v: no evictions", b)
		}
	}
}

// TestLazyBootKeepsAppsWarm pins the boot-path half of the tentpole: a
// restart must NOT materialize the fleet. Apps restored from the store
// stay in the warm tier (Restored counts them, the hot tier is empty)
// until first touch, which promotes exactly one.
func TestLazyBootKeepsAppsWarm(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	var obs []store.Observation
	for i := 0; i < 40; i++ {
		for m := 0; m < 7; m++ {
			obs = append(obs, store.Observation{App: fmt.Sprintf("boot-%d", i), Concurrency: float64(m)})
		}
	}
	if err := st.AppendBatch(obs); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	svc := NewServiceWith(trainTinyModel(t), ServiceOptions{Store: st2})
	if svc.Restored() != 40 {
		t.Fatalf("Restored = %d, want 40", svc.Restored())
	}
	if svc.Apps() != 40 {
		t.Fatalf("Apps = %d, want 40", svc.Apps())
	}
	if hot := svc.HotApps(); hot != 0 {
		t.Fatalf("boot materialized %d apps, want 0 (lazy)", hot)
	}

	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	d := fetchDecision(t, srv.URL, "boot-3")
	if d.target.History != 7 {
		t.Fatalf("restored history = %d, want 7", d.target.History)
	}
	if hot := svc.HotApps(); hot != 1 {
		t.Fatalf("hot apps after one touch = %d, want 1", hot)
	}
}

// TestTierBudgetsMemory exercises eviction over a memory store: demoted
// apps live as its compact windows and restore losslessly.
func TestTierBudgetsMemory(t *testing.T) {
	svc := NewServiceWith(trainTinyModel(t), ServiceOptions{MaxHotApps: 4})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	rng := rand.New(rand.NewSource(7))
	hist := map[string][]float64{}
	for round := 0; round < 6; round++ {
		for i := 0; i < 20; i++ {
			app := fmt.Sprintf("sl-%d", i)
			v := math.Round(rng.Float64()*10*1000) / 1000
			if code := postObserve(t, srv.URL, app, v); code != 200 {
				t.Fatalf("observe: %d", code)
			}
			hist[app] = append(hist[app], v)
		}
	}
	if hot := svc.HotApps(); hot > 4 {
		t.Errorf("hot apps = %d, want <= 4", hot)
	}
	if got := svc.Apps(); got != 20 {
		t.Errorf("Apps = %d, want 20 (hot + warm)", got)
	}
	hot, warm, cold := svc.TierCounts()
	if hot+warm != 20 || cold != 0 {
		t.Errorf("TierCounts = (%d, %d, %d), want hot+warm = 20, cold = 0", hot, warm, cold)
	}
	// Touching an evicted app restores its full history.
	for i := 0; i < 20; i++ {
		app := fmt.Sprintf("sl-%d", i)
		if d := fetchDecision(t, srv.URL, app); d.target.History != len(hist[app]) {
			t.Fatalf("%s: history %d, want %d", app, d.target.History, len(hist[app]))
		}
	}
}

// benchTieredService builds the tier benchmarks' service — 64 hot slots,
// 1,024 apps seeded with five observations each — over a directory store
// (backend "dir") or a memory store ("memory").
func benchTieredService(b *testing.B, backend string) (*Service, []string) {
	so := ServiceOptions{MaxHotApps: 64}
	if backend == "dir" {
		st, err := store.Open(b.TempDir(), store.Options{Sync: store.SyncNever, CompactEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { st.Close() })
		so.Store = st
	}
	svc := NewServiceWith(trainTinyModel(b), so)
	apps := make([]string, 1024)
	var seed []store.Observation
	for i := range apps {
		apps[i] = fmt.Sprintf("bench-%d", i)
		for _, v := range []float64{1, 2, 1, 0, 3} {
			seed = append(seed, store.Observation{App: apps[i], Concurrency: v})
		}
	}
	if err := svc.st.AppendBatch(seed); err != nil {
		b.Fatal(err)
	}
	return svc, apps
}

// observeOne is the observe handler's critical section: the commit path
// a single observe takes, from ownership check to the enforcement of the
// budgets.
func observeOne(tb testing.TB, svc *Service, app string, v float64) {
	item := [1]BatchObservation{{App: app, Concurrency: v}}
	var res [1]BatchItemResult
	if _, err := svc.observe(item[:], res[:]); err != nil || res[0].Error != "" {
		tb.Errorf("observe %s: %v %s", app, err, res[0].Error)
	}
}

// BenchmarkTieredObserve measures the observe path while the fleet is
// 16x over the hot budget, so every request cycles the LRU and restores
// from the warm tier — the steady state of a large sparse fleet under
// -max-hot-apps — over each store backend.
func BenchmarkTieredObserve(b *testing.B) {
	for _, backend := range []string{"dir", "memory"} {
		b.Run(backend, func(b *testing.B) {
			svc, apps := benchTieredService(b, backend)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				observeOne(b, svc, apps[i%len(apps)], float64(i%5))
			}
		})
	}
}

// BenchmarkTieredObserveContended is the churn benchmark for the tier
// lock: parallel observes across a working set 16x over the hot budget,
// so nearly every request evicts one app and restores another, every
// goroutine touching the one tier mutex. Reported per store backend.
func BenchmarkTieredObserveContended(b *testing.B) {
	for _, backend := range []string{"dir", "memory"} {
		b.Run(backend, func(b *testing.B) {
			svc, apps := benchTieredService(b, backend)
			var next atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// Distinct stride per goroutine: different goroutines hammer
				// different apps.
				i := int(next.Add(1)) * 131
				for pb.Next() {
					observeOne(b, svc, apps[i%len(apps)], float64(i%5))
					i++
				}
			})
		})
	}
}

// fetchQuantileBands reads the app's quantile curves through the REST
// path at the sweep's canonical levels.
func fetchQuantileBands(t testing.TB, srvURL, app string) []QuantileBand {
	t.Helper()
	resp, err := http.Get(srvURL + "/v1/apps/" + app + "/forecast?horizon=6&quantiles=0.5,0.9,0.99")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forecast?quantiles: HTTP %d", resp.StatusCode)
	}
	var out ForecastResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Quantiles) != 3 {
		t.Fatalf("got %d quantile bands, want 3", len(out.Quantiles))
	}
	return out.Quantiles
}
