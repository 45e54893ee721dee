package knative

import (
	"fmt"
	"net/http/httptest"
	"testing"

	"github.com/ubc-cirrus-lab/femux-go/internal/store"
)

// seedStoreFleet appends busy (periodically firing) and idle (all-zero)
// app windows straight into the store, so the whole fleet starts
// demoted: durable state exists, nothing is materialized.
func seedStoreFleet(t *testing.T, st *store.Store, busy, idle int) {
	t.Helper()
	var obs []store.Observation
	for i := 0; i < busy; i++ {
		for m := 0; m < 20; m++ {
			obs = append(obs, store.Observation{App: fmt.Sprintf("busy-%d", i), Concurrency: 4})
		}
	}
	for i := 0; i < idle; i++ {
		for m := 0; m < 20; m++ {
			obs = append(obs, store.Observation{App: fmt.Sprintf("idle-%d", i), Concurrency: 0})
		}
	}
	if err := st.AppendBatch(obs); err != nil {
		t.Fatal(err)
	}
}

// materialized reports whether the app currently has hot serving state,
// without materializing it.
func materialized(s *Service, name string) bool {
	st := s.tier.stripe(name)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.apps[name] != nil
}

// TestRestoreAheadPromotesPredicted: the prefetcher promotes demoted
// apps whose forecast fires and leaves the flat-zero ones demoted, never
// exceeding its budget.
func TestRestoreAheadPromotesPredicted(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	seedStoreFleet(t, st, 6, 6)
	svc := NewServiceWith(trainTinyModel(t), ServiceOptions{
		Store: st, MaxHotApps: 8, TierShards: 1,
	})
	if hot := svc.HotApps(); hot != 0 {
		t.Fatalf("setup: %d hot apps, want 0", hot)
	}

	scanned, promoted := svc.RestoreAheadCycle(0.9, 3)
	if scanned == 0 {
		t.Fatal("cycle scanned nothing")
	}
	if promoted < 1 || promoted > 3 {
		t.Fatalf("promoted = %d, want 1..3 (budget 3)", promoted)
	}
	if hot := svc.HotApps(); hot != promoted {
		t.Fatalf("hot apps = %d, want %d (exactly the promotions)", hot, promoted)
	}
	for i := 0; i < 6; i++ {
		if materialized(svc, fmt.Sprintf("idle-%d", i)) {
			t.Fatalf("idle-%d was promoted despite an all-zero forecast", i)
		}
	}
	// Rotation: repeated cycles eventually consider (and promote) every
	// busy app; idle apps stay demoted forever.
	for i := 0; i < 6; i++ {
		svc.RestoreAheadCycle(0.9, 3)
	}
	for i := 0; i < 6; i++ {
		if !materialized(svc, fmt.Sprintf("busy-%d", i)) {
			t.Fatalf("busy-%d never promoted across rotating cycles", i)
		}
	}
	if _, p, _, _ := svc.RestoreAheadStats(); int(p) != svc.HotApps() {
		t.Fatalf("promotions %d != hot apps %d", p, svc.HotApps())
	}
}

// TestRestoreAheadDisplacementBounded: at steady state under churn every
// stripe is permanently full, so promotion works by displacing the LRU
// tail — but a cycle never displaces its own guesses (which park at the
// tail), capping displacement at one resident per stripe per cycle, and
// the stripe's MRU request-path state always survives.
func TestRestoreAheadDisplacementBounded(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	seedStoreFleet(t, st, 8, 0)
	svc := NewServiceWith(trainTinyModel(t), ServiceOptions{
		Store: st, MaxHotApps: 2, TierShards: 1,
	})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// Fill the hot tier with real traffic: busy-0 is the LRU tail.
	fetchDecision(t, srv.URL, "busy-0")
	fetchDecision(t, srv.URL, "busy-1")
	if hot := svc.HotApps(); hot != 2 {
		t.Fatalf("setup: hot = %d, want 2", hot)
	}

	// Budget 8 against a full single stripe: exactly one displacement —
	// the first promoted guess becomes the new tail, and the cycle will
	// not displace its own guess for the next one.
	scanned, promoted := svc.RestoreAheadCycle(0.9, 8)
	if scanned == 0 {
		t.Fatal("full stripe was excluded from the scan")
	}
	if promoted != 1 {
		t.Fatalf("promoted = %d, want 1 (one displacement per stripe per cycle)", promoted)
	}
	if !materialized(svc, "busy-1") {
		t.Fatal("displacement evicted the MRU request-path app instead of the tail")
	}
	if materialized(svc, "busy-0") {
		t.Fatal("the LRU tail should have been displaced")
	}
	if hot := svc.HotApps(); hot != 2 {
		t.Fatalf("hot = %d after displacement, want 2 (budget is preserved)", hot)
	}

	// The next cycle reclaims the previous cycle's untouched guess (waste)
	// before touching any requested app.
	if _, promoted := svc.RestoreAheadCycle(0.9, 8); promoted != 1 {
		t.Fatalf("second cycle promoted %d, want 1", promoted)
	}
	if !materialized(svc, "busy-1") {
		t.Fatal("second cycle displaced request-path state instead of the stale guess")
	}
	if _, _, _, wastes := svc.RestoreAheadStats(); wastes < 1 {
		t.Fatalf("wastes = %d, want >= 1 (stale guess reclaimed)", wastes)
	}
}

// TestRestoreAheadHitsAndWastes: a prefetched app touched by a real
// request counts as a hit; one evicted untouched counts as a waste —
// the observable hit rate of the guess.
func TestRestoreAheadHitsAndWastes(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	seedStoreFleet(t, st, 2, 0)
	svc := NewServiceWith(trainTinyModel(t), ServiceOptions{
		Store: st, MaxHotApps: 2, TierShards: 1,
	})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	if _, promoted := svc.RestoreAheadCycle(0.9, 2); promoted != 2 {
		t.Fatalf("promoted = %d, want 2", promoted)
	}

	// A real request touches one prefetched app: hit.
	fetchDecision(t, srv.URL, "busy-0")
	if _, _, hits, _ := svc.RestoreAheadStats(); hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}

	// Fresh traffic pushes the other prefetched app (parked at the LRU
	// back, first in line) out untouched: waste.
	if err := st.Append("newcomer", 3); err != nil {
		t.Fatal(err)
	}
	fetchDecision(t, srv.URL, "newcomer")
	if _, _, hits, wastes := svc.RestoreAheadStats(); hits != 1 || wastes != 1 {
		t.Fatalf("(hits, wastes) = (%d, %d), want (1, 1)", hits, wastes)
	}
	if materialized(svc, "busy-1") {
		t.Fatal("the untouched prefetched app should have been the eviction victim")
	}
	if !materialized(svc, "busy-0") {
		t.Fatal("the hit app should have survived (it outranks the untouched guess)")
	}
}

// TestRestoreAheadReplicaGated: a catching-up replica must not build
// serving state ahead of its gate.
func TestRestoreAheadReplicaGated(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	seedStoreFleet(t, st, 4, 0)
	svc := NewServiceWith(trainTinyModel(t), ServiceOptions{
		Store: st, MaxHotApps: 8, Replica: true, TierShards: 2,
	})
	if scanned, promoted := svc.RestoreAheadCycle(0.9, 4); scanned != 0 || promoted != 0 {
		t.Fatalf("replica cycle = (%d, %d), want (0, 0)", scanned, promoted)
	}
	svc.Promote()
	if _, promoted := svc.RestoreAheadCycle(0.9, 4); promoted == 0 {
		t.Fatal("promoted primary should prefetch")
	}
}

// TestRestoreAheadMemory: on a memory store, candidates come from the
// store's roster like anywhere else and promotion restores the window
// losslessly.
func TestRestoreAheadMemory(t *testing.T) {
	svc := NewServiceWith(trainTinyModel(t), ServiceOptions{MaxHotApps: 4, TierShards: 1})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// Six busy apps through the REST path: the LRU keeps 4 hot, demoting
	// 2 to the store.
	for round := 0; round < 10; round++ {
		for i := 0; i < 6; i++ {
			if code := postObserve(t, srv.URL, fmt.Sprintf("wl-%d", i), 4); code != 200 {
				t.Fatalf("observe: %d", code)
			}
		}
	}
	if hot, warm, _ := svc.TierCounts(); hot != 4 || warm != 2 {
		t.Fatalf("setup: (hot, warm) = (%d, %d), want (4, 2)", hot, warm)
	}

	// Free two hot slots (dropCached demotes without losing the store's
	// window), then prefetch: the four demoted apps are the candidates,
	// every forecast fires, and two promotions fill the stripe — the rest
	// would only displace this cycle's own guesses.
	st0 := svc.tier.stripes[0]
	st0.mu.Lock()
	var hotNames []string
	for el := st0.hot.Front(); el != nil; el = el.Next() {
		hotNames = append(hotNames, el.Value.name)
	}
	st0.mu.Unlock()
	svc.dropCached(hotNames[0])
	svc.dropCached(hotNames[1])

	scanned, promoted := svc.RestoreAheadCycle(0.5, 8)
	if scanned != 4 || promoted != 2 {
		t.Fatalf("(scanned, promoted) = (%d, %d), want (4, 2)", scanned, promoted)
	}
	// Every app kept its full 10-observation history.
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("wl-%d", i)
		d := fetchDecision(t, srv.URL, name)
		if d.target.History != 10 {
			t.Fatalf("%s: history = %d, want 10", name, d.target.History)
		}
	}
}
