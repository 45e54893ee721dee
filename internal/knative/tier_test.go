package knative

import (
	"fmt"
	"sync"
	"testing"
	"time"

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

// lruNames lists one of the tier's LRUs, most recently touched first.
func lruNames(s *Service, l *lruList) []string {
	s.tier.mu.Lock()
	defer s.tier.mu.Unlock()
	var names []string
	for el := l.Front(); el != nil; el = el.Next() {
		names = append(names, el.Value.name)
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
	if got := fmt.Sprint(lruNames(svc, svc.tier.hot)); got != "[ob-4 ob-3]" {
		t.Fatalf("hot set = %s, want [ob-4 ob-3]", got)
	}
	if ev := svc.Evictions(); ev != 3 {
		t.Fatalf("evictions = %d, want 3", ev)
	}
	if w := svc.st.Window("ob-0"); len(w) != 2 {
		t.Fatalf("ob-0 window = %v, want both of its observations", w)
	}
}

// TestAcquireEvictHammer is the lost-race regression test for the
// bounded-backoff acquire loop: under a one-app hot budget, concurrent
// observes alternate between apps, so nearly every commit ends in an
// eviction and the next acquire races one (the gone retry path) and
// restores from the warm tier. The single variant sends each app its own
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
// no durable state (its first observation still in flight) makes the
// store-backed warm derivation go negative; the sample must be counted
// as an anomaly — not silently clamped — while the gauge still reports
// a sane 0.
func TestTierCountsAnomaly(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	svc := NewServiceWith(trainTinyModel(t), ServiceOptions{Store: st})

	// Materialize an app without appending to the store: hot = 1 while
	// the store knows 0 apps.
	a := svc.acquire("phantom")
	svc.releaseApp(a)

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

// TestLRUList covers the typed intrusive list against the container/list
// behavior it replaced.
func TestLRUList(t *testing.T) {
	l := newLRUList()
	mk := func(name string) *svcApp { return &svcApp{name: name} }
	ea := l.PushFront(mk("a"))
	eb := l.PushFront(mk("b"))
	ec := l.PushFront(mk("c"))
	if l.Len() != 3 || l.Front() != ec || l.Back() != ea {
		t.Fatalf("push: len=%d front=%v back=%v", l.Len(), l.Front().Value.name, l.Back().Value.name)
	}
	l.MoveToFront(ea)
	if l.Front() != ea || l.Back() != eb {
		t.Fatal("MoveToFront(back) broke order")
	}
	l.MoveToFront(ea) // already front: no-op
	var order []string
	for e := l.Front(); e != nil; e = e.Next() {
		order = append(order, e.Value.name)
	}
	if fmt.Sprint(order) != "[a c b]" {
		t.Fatalf("iteration order %v, want [a c b]", order)
	}
	l.Remove(eb)
	if l.Len() != 2 || l.Front() != ea || l.Back() != ec {
		t.Fatal("Remove broke order")
	}
	l.Init()
	if l.Len() != 0 || l.Front() != nil || l.Back() != nil {
		t.Fatal("Init did not empty the list")
	}
}
