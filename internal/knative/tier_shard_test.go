package knative

import (
	"fmt"
	"math"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/store"
)

// materialized reports whether the app currently has hot serving state,
// without materializing it.
func materialized(s *Service, name string) bool {
	st := s.tier.stripe(name)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.apps[name] != nil
}

// TestSplitBudget pins the per-stripe budget arithmetic: bounded budgets
// split exactly (floor + remainder to the first stripes, summing to the
// global bound), and 0 maps to the -1 unlimited sentinel everywhere —
// budget 0 on a stripe legitimately means "evict on release", so the
// two must never be conflated.
func TestSplitBudget(t *testing.T) {
	cases := []struct {
		total, n int
		want     []int
	}{
		{10, 4, []int{3, 3, 2, 2}},
		{2, 8, []int{1, 1, 0, 0, 0, 0, 0, 0}},
		{5, 1, []int{5}},
		{7, 7, []int{1, 1, 1, 1, 1, 1, 1}},
		{0, 3, []int{-1, -1, -1}},
		{-4, 2, []int{-1, -1}},
	}
	for _, c := range cases {
		got := splitBudget(c.total, c.n)
		if len(got) != len(c.want) {
			t.Fatalf("splitBudget(%d, %d) = %v, want %v", c.total, c.n, got, c.want)
		}
		sum := 0
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("splitBudget(%d, %d) = %v, want %v", c.total, c.n, got, c.want)
			}
			sum += got[i]
		}
		if c.total > 0 && sum != c.total {
			t.Errorf("splitBudget(%d, %d) sums to %d", c.total, c.n, sum)
		}
	}
}

// TestStripeAssignment pins stripe routing: deterministic per name,
// single-stripe fleets always route to stripe 0, and the FNV-1a hash
// spreads a realistic fleet across every stripe.
func TestStripeAssignment(t *testing.T) {
	svc := NewServiceWith(trainTinyModel(t), ServiceOptions{TierShards: 8})
	seen := map[*tierStripe]int{}
	for i := 0; i < 400; i++ {
		name := fmt.Sprintf("app-%d", i)
		a, b := svc.tier.stripe(name), svc.tier.stripe(name)
		if a != b {
			t.Fatalf("stripe(%q) not deterministic", name)
		}
		seen[a]++
	}
	if len(seen) != 8 {
		t.Errorf("400 apps landed on %d of 8 stripes", len(seen))
	}
	single := NewServiceWith(trainTinyModel(t), ServiceOptions{TierShards: 1})
	if single.Stripes() != 1 {
		t.Fatalf("Stripes = %d, want 1", single.Stripes())
	}
	if single.tier.stripe("anything") != single.tier.stripes[0] {
		t.Error("single-stripe routing must hit stripe 0")
	}
}

// TestAcquireEvictHammer is the lost-race regression test for the
// bounded-backoff acquire loop: apps on zero-budget stripes are hammered
// by concurrent observes, so every commit ends in an eviction and every
// next acquire races one (the gone retry path) and restores from the
// warm tier. In the batch variant each observe names several such apps,
// all held until every one is applied: an observe that enforced a budget
// with any app still locked would pick it as the victim and wait on its
// own lock forever. Run under -race in CI. Conservation proves no round
// trip lost state or order: every history holds every commit, in the
// store's order.
func TestAcquireEvictHammer(t *testing.T) {
	for _, apps := range []int{1, 3} {
		t.Run(fmt.Sprintf("apps=%d", apps), func(t *testing.T) {
			testAcquireEvictHammer(t, apps)
		})
	}
}

func testAcquireEvictHammer(t *testing.T, napps int) {
	svc := NewServiceWith(trainTinyModel(t), ServiceOptions{
		MaxHotApps: 1, TierShards: 4, // stripes 1..3 run at hot budget 0
	})
	// Every app on one zero-budget stripe, so each is the others' victim.
	var apps []string
	for i := 0; len(apps) < napps; i++ {
		name := fmt.Sprintf("hammer-%d", i)
		if st := svc.tier.stripe(name); st.maxHot == 0 && (apps == nil || st == svc.tier.stripe(apps[0])) {
			apps = append(apps, name)
		}
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
			for i := 0; i < iters; i++ {
				for k, app := range apps {
					// Reverse order on odd goroutines: acquisition by name
					// order is what keeps them from deadlocking.
					if g%2 == 1 {
						app = apps[len(apps)-1-k]
					}
					items[k] = BatchObservation{App: app, Concurrency: float64(g*iters + i)}
				}
				if n, err := svc.observe(items, results); err != nil || n != len(items) {
					t.Errorf("observe applied %d of %d: %v", n, len(items), err)
					return
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
		got := len(a.history)
		svc.releaseApp(a)
		if want := goroutines * iters; got != want {
			t.Fatalf("%s: history length = %d, want %d (acquire/evict race lost observations)", app, got, want)
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

// TestDropCachedPurgesWarm pins what a migration leaves behind on a
// memory-store service: after an adopt, nothing of the app's
// pre-migration state — neither its window nor the memo its eviction
// wrote — survives in the warm tier (the store) to resurrect on the next
// touch, and after a handoff the app is gone from it.
func TestDropCachedPurgesWarm(t *testing.T) {
	svc := NewServiceWith(trainTinyModel(t), ServiceOptions{MaxHotApps: 1, TierShards: 1})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// 30 observations complete a block, so evicting mover (by touching
	// another app) writes a memo beside its window.
	for i := 0; i < 30; i++ {
		postObserve(t, srv.URL, "mover", float64(i%3))
	}
	postObserve(t, srv.URL, "other", 1)
	if _, memo, _, ok := svc.st.RestoreWindowMemo("mover"); !ok || memo == (store.Memo{}) {
		t.Fatalf("setup: evicted mover should hold a memo in the store (ok=%v, memo=%+v)", ok, memo)
	}

	imported := shapedWindow(1, 0, 30) // same length: only the purge invalidates the memo
	if err := svc.AdoptApp("mover", imported, 30); err != nil {
		t.Fatal(err)
	}
	win, memo, _, ok := svc.st.RestoreWindowMemo("mover")
	if !ok || memo != (store.Memo{}) {
		t.Fatalf("after adopt: ok=%v memo=%+v, want the app with a zero memo", ok, memo)
	}
	if len(win) != len(imported) {
		t.Fatalf("after adopt: window of %d, want the imported %d", len(win), len(imported))
	}
	for i := range win {
		if math.Float64bits(win[i]) != math.Float64bits(imported[i]) {
			t.Fatalf("after adopt: window[%d] = %v, want imported %v", i, win[i], imported[i])
		}
	}

	svc.DrainApp("mover", 1)
	if err := svc.HandoffApp("mover"); err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := svc.st.RestoreWindowMemo("mover"); ok {
		t.Fatal("handed-off app still has a window in the store")
	}
	c := svc.acquire("mover")
	got := len(c.history)
	svc.releaseApp(c)
	if got != 0 {
		t.Fatalf("handed-off app rematerialized %d observations, want 0", got)
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
