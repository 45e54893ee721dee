package knative

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
	"github.com/ubc-cirrus-lab/femux-go/internal/serving"
	"github.com/ubc-cirrus-lab/femux-go/internal/store"
)

// materialized reports whether the app currently has hot serving state,
// without materializing it.
func materialized(s *Service, name string) bool {
	s.tier.mu.Lock()
	defer s.tier.mu.Unlock()
	return s.tier.apps[name] != nil
}

// dropCached demotes name through the production eviction path, if it
// is hot and no request holds it: its memo goes to the store, and its
// next touch restores it.
func (s *Service) dropCached(name string) {
	s.tier.mu.Lock()
	var evicted []*svcApp
	if a := s.tier.apps[name]; a != nil && a.pins == 0 {
		s.tier.evict(a)
		evicted = append(evicted, a)
	}
	s.tier.mu.Unlock()
	s.demote(evicted)
}

// lruNames lists the tier's LRU, most recently touched first.
func lruNames(s *Service) []string {
	s.tier.mu.Lock()
	defer s.tier.mu.Unlock()
	return lruOrder(&s.tier)
}

// lruOrder walks t's LRU from the head by next, checks that walking it
// back from the tail by prev meets the same entries and that t counts
// them, and returns their names. Caller holds t.mu.
func lruOrder(t *tiers) []string {
	var names, back []string
	for a := t.head; a != nil; a = a.next {
		names = append(names, a.name)
	}
	for a := t.tail; a != nil; a = a.prev {
		back = append(back, a.name)
	}
	slices.Reverse(back)
	if !slices.Equal(names, back) || len(names) != t.hot {
		panic(fmt.Sprintf("LRU links disagree: by next %v, by prev reversed %v, count %d", names, back, t.hot))
	}
	return names
}

// TestHotSetIsFleetMRU pins the eviction order: under MaxHotApps N the
// hot set is exactly the fleet's N most recently touched apps, whatever
// their names. The names are chosen so that a hot tier partitioned by
// FNV-1a of the name into four LRUs of one slot each keeps a different
// set: mru-0 and mru-4 fall in one partition, mru-1 and mru-5 in
// another, so it would drop two of the four newest apps. Touching the
// other N apps then restores each of them exactly once.
func TestHotSetIsFleetMRU(t *testing.T) {
	const n = 4
	svc := NewServiceWith(trainTinyModel(t), ServiceOptions{MaxHotApps: n})
	sm := svc.InstrumentWith(serving.NewRegistry())
	older := []string{"mru-2", "mru-3", "mru-6", "mru-7"}
	newer := []string{"mru-0", "mru-4", "mru-1", "mru-5"}
	touch := func(apps []string) {
		for _, app := range apps {
			observeOne(t, svc, app, 1)
		}
	}
	hotSet := func(want []string) {
		t.Helper()
		if hot := svc.HotApps(); hot != n {
			t.Fatalf("hot apps = %d, want %d", hot, n)
		}
		for _, app := range want {
			if !materialized(svc, app) {
				t.Fatalf("%s is not hot; the hot set must be the %d most recently touched apps %v", app, n, want)
			}
		}
	}
	restores := func() int { return int(sm.Restores.Value("warm") + sm.Restores.Value("cold")) }

	touch(older)
	touch(newer)
	hotSet(newer)
	if r := restores(); r != 0 {
		t.Fatalf("restores = %d touching new apps, want 0", r)
	}
	touch(older)
	hotSet(older)
	if r := restores(); r != n {
		t.Fatalf("restores = %d touching the %d demoted apps, want %d", r, n, n)
	}
}

// TestZeroBudgetsAreUnlimited: a budget of 0 — or a negative one — bounds
// nothing: every touched app stays hot.
func TestZeroBudgetsAreUnlimited(t *testing.T) {
	for _, budget := range []int{0, -1} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			svc := NewServiceWith(trainTinyModel(t), ServiceOptions{MaxHotApps: budget})
			const apps = 40
			for i := 0; i < apps; i++ {
				observeOne(t, svc, fmt.Sprintf("free-%d", i), 1)
			}
			if hot := svc.HotApps(); hot != apps {
				t.Fatalf("hot apps = %d, want %d", hot, apps)
			}
			if ev := svc.Evictions(); ev != 0 {
				t.Fatalf("evictions = %d, want 0", ev)
			}
		})
	}
}

// TestBatchOverHotBudget: one batch naming more apps than the hot budget
// applies every item, then enforces the budget once every app is
// unlocked — the apps it acquired last (in name order) stay hot, the
// rest are demoted whole.
func TestBatchOverHotBudget(t *testing.T) {
	svc := NewServiceWith(trainTinyModel(t), ServiceOptions{MaxHotApps: 2})
	var items []BatchObservation
	for _, app := range []string{"ob-3", "ob-0", "ob-4", "ob-1", "ob-2", "ob-0"} {
		items = append(items, BatchObservation{App: app, Concurrency: 1})
	}
	results := make([]BatchItemResult, len(items))
	if n, err := svc.observe(items, results); err != nil || n != len(items) {
		t.Fatalf("observe applied %d of %d: %v", n, len(items), err)
	}
	if got := fmt.Sprint(lruNames(svc)); got != "[ob-4 ob-3]" {
		t.Fatalf("hot set = %s, want [ob-4 ob-3]", got)
	}
	if ev := svc.Evictions(); ev != 3 {
		t.Fatalf("evictions = %d, want 3", ev)
	}
	if w := svc.st.Window("ob-0"); len(w) != 2 {
		t.Fatalf("ob-0 window = %v, want both of its observations", w)
	}
}

// TestAcquireEvictHammer races acquires against evictions: under a
// one-app hot budget, concurrent observes alternate between apps, so
// nearly every commit ends in an eviction and the next acquire races one
// and restores from the warm tier. The single variant sends each app its own
// observe; in the batch variant each observe names all three apps, all
// held until every one is applied: an observe that enforced a budget
// with any app still locked would pick it as the victim and wait on its
// own lock forever. Run under -race in CI. Conservation proves no round
// trip lost state or order: every app counts every commit, and its hot
// tail is the end of the store's order.
func TestAcquireEvictHammer(t *testing.T) {
	for _, v := range []struct {
		name  string
		apps  int
		batch bool
	}{{"single", 2, false}, {"batch", 3, true}} {
		t.Run(v.name, func(t *testing.T) {
			testAcquireEvictHammer(t, v.apps, v.batch)
		})
	}
}

func testAcquireEvictHammer(t *testing.T, napps int, batch bool) {
	svc := NewServiceWith(trainTinyModel(t), ServiceOptions{MaxHotApps: 1})
	apps := make([]string, napps)
	for i := range apps {
		apps[i] = fmt.Sprintf("hammer-%d", i)
	}

	const goroutines = 8
	iters := 300
	if testing.Short() {
		iters = 120
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			items := make([]BatchObservation, len(apps))
			results := make([]BatchItemResult, len(apps))
			observe := func(items []BatchObservation, results []BatchItemResult) bool {
				if n, err := svc.observe(items, results); err != nil || n != len(items) {
					t.Errorf("observe applied %d of %d: %v", n, len(items), err)
					return false
				}
				return true
			}
			for i := 0; i < iters; i++ {
				for k, app := range apps {
					// Reverse order on odd goroutines: acquisition by name
					// order is what keeps batches from deadlocking.
					if g%2 == 1 {
						app = apps[len(apps)-1-k]
					}
					items[k] = BatchObservation{App: app, Concurrency: float64(g*iters + i)}
				}
				if batch {
					if !observe(items, results) {
						return
					}
					continue
				}
				for k := range items {
					if !observe(items[k:k+1], results[k:k+1]) {
						return
					}
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("observes deadlocked")
	}

	for _, app := range apps {
		a := svc.acquire(app)
		got := a.n
		svc.releaseApp(a)
		if want := goroutines * iters; got != want {
			t.Fatalf("%s: observation count = %d, want %d (acquire/evict race lost observations)", app, got, want)
		}
		if slips := walOrderSlips(t, svc, app); slips != 0 {
			t.Errorf("%s: %d history positions out of WAL order", app, slips)
		}
	}
	if ev := svc.Evictions(); ev == 0 {
		t.Fatal("zero evictions: the hammer never exercised the race")
	}
}

// TestTierCountsAnomaly pins the un-clamped warm count: a hot app with
// no durable state (its first observation still in flight, so the
// request still holds it) makes the store-backed warm derivation go
// negative; the sample must be counted as an anomaly — not silently
// clamped — while the gauge still reports a sane 0.
func TestTierCountsAnomaly(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	svc := NewServiceWith(trainTinyModel(t), ServiceOptions{Store: st})

	// Hold an app without appending to the store: hot = 1 while the
	// store knows 0 apps.
	a := svc.acquire("phantom")
	defer svc.releaseApp(a)

	hot, warm, cold := svc.TierCounts()
	if hot != 1 || warm != 0 || cold != 0 {
		t.Fatalf("TierCounts = (%d, %d, %d), want (1, 0, 0)", hot, warm, cold)
	}
	if n := svc.TierCountAnomalies(); n != 1 {
		t.Fatalf("TierCountAnomalies = %d, want 1", n)
	}

	// Once the store catches up, samples are consistent again and the
	// counter stays put.
	if err := st.Append("phantom", 2); err != nil {
		t.Fatal(err)
	}
	if _, warm, _ := svc.TierCounts(); warm != 0 {
		t.Fatalf("consistent warm = %d, want 0", warm)
	}
	if n := svc.TierCountAnomalies(); n != 1 {
		t.Fatalf("TierCountAnomalies after consistent sample = %d, want 1", n)
	}
}

// TestLRUList covers the tier's intrusive LRU: push-front, move-to-front
// from the back, the middle and the front, and remove from each position,
// with the links checked both ways after every step.
func TestLRUList(t *testing.T) {
	var l tiers
	mk := func(name string) *svcApp { return &svcApp{name: name} }
	step := func(what, want string) {
		t.Helper()
		if got := fmt.Sprint(lruOrder(&l)); got != want {
			t.Fatalf("after %s: %s, want %s", what, got, want)
		}
	}
	step("nothing", "[]")
	a, b, c, d := mk("a"), mk("b"), mk("c"), mk("d")
	for _, x := range []*svcApp{a, b, c, d} {
		l.pushFront(x)
	}
	step("push", "[d c b a]")
	l.moveToFront(a)
	step("moveToFront(back)", "[a d c b]")
	l.moveToFront(c)
	step("moveToFront(middle)", "[c a d b]")
	l.moveToFront(c)
	step("moveToFront(front)", "[c a d b]")
	l.remove(a)
	step("remove(middle)", "[c d b]")
	l.remove(b)
	step("remove(back)", "[c d]")
	l.remove(c)
	step("remove(front)", "[d]")
	l.remove(d)
	step("remove(last)", "[]")
	if l.head != nil || l.tail != nil {
		t.Fatal("an empty LRU keeps an end")
	}
	l.pushFront(b)
	step("push after empty", "[b]")
}

// TestUnknownAppsLeaveNoHotState sends target and forecast reads for
// 1,000 apps never observed, at the default unlimited hot budget. Each
// reply is the model's default decision on an empty history, and no read
// leaves an entry behind: the hot tier holds only the one observed app,
// and the tier gauges sample no anomaly.
func TestUnknownAppsLeaveNoHotState(t *testing.T) {
	model := trainTinyModel(t)
	svc := NewService(model)
	h := svc.Handler()
	observeOne(t, svc, "known", 1)
	ws := forecast.NewWorkspace()
	p := model.NewAppPolicy(0)
	target, fcName, _ := p.Decide(nil, 0, 1, 0, ws)
	values := p.ForecastWS(nil, 3, nil, ws)
	for i := 0; i < 1000; i++ {
		app := fmt.Sprintf("unknown-%d", i)
		var tr TargetResponse
		getInto(t, h, "/v1/apps/"+app+"/target?concurrency=1", &tr)
		if want := (TargetResponse{App: app, Target: target, Forecaster: fcName}); tr != want || fcName != model.DefaultForecaster().Name() {
			t.Fatalf("target for %s: %+v, want %+v on the default forecaster %s", app, tr, want, model.DefaultForecaster().Name())
		}
		var fr ForecastResponse
		getInto(t, h, "/v1/apps/"+app+"/forecast?horizon=3", &fr)
		if fr.App != app || fr.Forecaster != fcName || !slices.Equal(fr.Values, values) {
			t.Fatalf("forecast for %s: %+v, want %s %v", app, fr, fcName, values)
		}
	}
	if hot, warm, cold := svc.TierCounts(); hot != 1 || warm != 0 || cold != 0 || !materialized(svc, "known") {
		t.Fatalf("TierCounts = (%d, %d, %d) after the reads, want only the observed app hot", hot, warm, cold)
	}
	if n := svc.TierCountAnomalies(); n != 0 || svc.Apps() != 1 || svc.Evictions() != 0 {
		t.Fatalf("%d tier count anomalies, %d apps, %d evictions: want 0, 1, 0", n, svc.Apps(), svc.Evictions())
	}
}

// getInto serves a GET of path through h and decodes its 200 reply.
func getInto(t testing.TB, h http.Handler, path string, into any) {
	t.Helper()
	rec := serveInProcess(h, http.MethodGet, path, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreInstallsOnce hammers three shared apps from eight
// goroutines at a hot budget of 1, while each goroutine also observes
// apps of its own, so the shared apps are evicted and restored
// constantly, often by two requests at once. An install that restored a
// count older than the store's — a copy restored before another
// request's observe and eviction of the same app, installed after them
// — would reply an old count twice. Every reply's historyLen must be its
// app's count of acknowledged observes at its commit: per app the
// replies are exactly 1..N, no count repeated, and the store holds N.
// Run under -race -count=20 in CI.
func TestRestoreInstallsOnce(t *testing.T) {
	svc := NewServiceWith(trainTinyModel(t), ServiceOptions{MaxHotApps: 1})
	shared := []string{"shared-0", "shared-1", "shared-2"}
	const goroutines = 8
	iters := 200
	if testing.Short() {
		iters = 80
	}
	var (
		mu      sync.Mutex
		replies = map[string][]int{}
		wg      sync.WaitGroup
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got := map[string][]int{}
			for i := 0; i < iters; i++ {
				items := []BatchObservation{{App: shared[(g+i)%len(shared)], Concurrency: float64(i)}}
				switch i % 4 {
				case 1:
					items = append(items, BatchObservation{App: fmt.Sprintf("own-%d-%d", g, i%3), Concurrency: 1})
				case 3: // a batch naming two shared apps and one of its own
					items = append(items, BatchObservation{App: shared[(g+i+1)%len(shared)], Concurrency: 2},
						BatchObservation{App: fmt.Sprintf("own-%d-%d", g, i%3), Concurrency: 3})
				}
				res := make([]BatchItemResult, len(items))
				if n, err := svc.observe(items, res); err != nil || n != len(items) {
					t.Errorf("observe applied %d of %d: %v", n, len(items), err)
					return
				}
				for _, r := range res {
					got[r.App] = append(got[r.App], r.History)
				}
			}
			mu.Lock()
			for app, h := range got {
				replies[app] = append(replies[app], h...)
			}
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for app, h := range replies {
		slices.Sort(h)
		for k, n := range h {
			if n != k+1 {
				t.Fatalf("%s: sorted replies ...%v...: reply %d has historyLen %d, want %d (a count repeated or skipped)",
					app, h[max(k-2, 0):min(len(h), k+3)], k, n, k+1)
			}
		}
		if w := len(svc.st.Window(app)); w != len(h) {
			t.Fatalf("%s: %d acknowledged observes, the store holds %d", app, len(h), w)
		}
	}
	if svc.Evictions() == 0 {
		t.Fatal("zero evictions: the hammer never restored an app")
	}
}

// TestSwapModelTakesNoAppLock swaps the model, to one of another block
// size and window, while a request holds an app: the swap must return at
// once, since it only publishes the model. Once released, the app's next
// replies — target, quantile forecast, observe — must equal a control
// service's that was built on the new model and never swapped, byte for
// byte (the wire codec writes each float's shortest round-trip form, so
// the values are Float64bits-equal).
func TestSwapModelTakesNoAppLock(t *testing.T) {
	next := reshaped(t, muxModelB(t), 45, 40)
	svc, ctl := NewService(muxModelA(t)), NewService(next)
	const app = "held"
	for m := 0; m < 100; m++ {
		observeOne(t, svc, app, shapedValue(0, m))
		observeOne(t, ctl, app, shapedValue(0, m))
	}
	a := svc.acquire(app)
	swapped := make(chan struct{})
	go func() { svc.SwapModel(next); close(swapped) }()
	select {
	case <-swapped:
	case <-time.After(time.Second):
		t.Error("SwapModel blocked for 1 s on an app a request holds")
	}
	svc.releaseApp(a)
	<-swapped
	h, hc := svc.Handler(), ctl.Handler()
	for _, q := range []struct{ method, path, body string }{
		{http.MethodGet, "/v1/apps/" + app + "/target?concurrency=1", ""},
		{http.MethodGet, "/v1/apps/" + app + "/forecast?horizon=4&quantiles=0.5,0.9", ""},
		{http.MethodPost, "/v1/apps/" + app + "/observe", `{"concurrency": 3.5}`},
	} {
		got, want := serveInProcess(h, q.method, q.path, q.body), serveInProcess(hc, q.method, q.path, q.body)
		if got.Code != http.StatusOK || got.Body.String() != want.Body.String() {
			t.Fatalf("%s %s after the swap: served %d %s, the never-swapped control %d %s",
				q.method, q.path, got.Code, got.Body, want.Code, want.Body)
		}
	}
	if svc.Reloads() != 1 || svc.Model() != next {
		t.Fatalf("reloads %d, serving the new model %v: want 1, true", svc.Reloads(), svc.Model() == next)
	}
}
