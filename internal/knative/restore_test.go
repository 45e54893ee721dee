package knative

import (
	"fmt"
	"math"
	"net/http/httptest"
	"testing"

	"github.com/ubc-cirrus-lab/femux-go/internal/serving"
	"github.com/ubc-cirrus-lab/femux-go/internal/store"
)

// seedStoreFleet appends busy (steadily loaded) and idle (all-zero) app
// windows of 20 observations straight into the store, so the whole fleet
// starts demoted: durable state exists, nothing is materialized.
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

// backendStore opens a directory store ("dir") or a memory store
// ("memory"), closed when the test ends.
func backendStore(t *testing.T, backend string, opt store.Options) *store.Store {
	t.Helper()
	st := store.OpenMemory()
	if backend == "dir" {
		opt.Sync, opt.CompactEvery = store.SyncNever, -1
		var err error
		if st, err = store.Open(t.TempDir(), opt); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestRestoreSameWithAndWithoutMemos: request-path restores of records
// that carry memos serve exactly what restores that classify every window
// serve — the same forecasters and Float64bits-identical targets and
// forecasts — and resume instead of extracting, over a directory store
// (with a tight inline budget, so some restores page in) and a memory
// store alike.
func TestRestoreSameWithAndWithoutMemos(t *testing.T) {
	for _, backend := range []string{"dir", "memory"} {
		t.Run(backend, func(t *testing.T) {
			model := muxModelA(t)
			var svcs [2]*Service // [0] resumes memos, [1] never memoizes
			var sms [2]*ServiceMetrics
			var urls [2]string
			for k := range svcs {
				st := backendStore(t, backend, store.Options{InlineBudget: 6})
				svc := NewServiceWith(model, ServiceOptions{Store: st, MaxHotApps: 4})
				if k == 1 {
					svc.live.Store(&liveModel{model, 1 << 32}) // memoGen 0: every restore classifies
				}
				svcs[k], sms[k] = svc, svc.InstrumentWith(serving.NewRegistry())
				srv := httptest.NewServer(svc.Handler())
				defer srv.Close()
				urls[k] = srv.URL
				// 12 apps x 45 minutes: every app completes a block, is
				// classified, evicted (4 hot slots) and so carries a memo.
				for m := 0; m < 45; m++ {
					for i := 0; i < 12; i++ {
						mustObserve(t, srv.URL, fmt.Sprintf("rs-%d", i), shapedValue(i, m))
					}
				}
			}
			e0, r0 := classifications(sms[0])
			e1, _ := classifications(sms[1])

			// Three rounds of reads in a stride order that keeps missing the
			// 4-app hot tier: nearly every read restores.
			for round := 0; round < 3; round++ {
				for j := 0; j < 12; j++ {
					name := fmt.Sprintf("rs-%d", (j*5+round)%12)
					a, b := fetchDecision(t, urls[0], name), fetchDecision(t, urls[1], name)
					if a.target != b.target {
						t.Fatalf("round %d %s: target %+v with memos, %+v without", round, name, a.target, b.target)
					}
					if a.forecast.Forecaster != b.forecast.Forecaster || len(a.forecast.Values) != len(b.forecast.Values) {
						t.Fatalf("round %d %s: forecast by %q (%d values) with memos, %q (%d) without", round, name,
							a.forecast.Forecaster, len(a.forecast.Values), b.forecast.Forecaster, len(b.forecast.Values))
					}
					for i := range a.forecast.Values {
						if math.Float64bits(a.forecast.Values[i]) != math.Float64bits(b.forecast.Values[i]) {
							t.Fatalf("round %d %s: forecast[%d] %v with memos, %v without", round, name, i, a.forecast.Values[i], b.forecast.Values[i])
						}
					}
				}
			}

			for k, sm := range sms {
				if n := sm.Restores.Value("warm") + sm.Restores.Value("cold"); n == 0 {
					t.Fatalf("side %d never restored: nothing was exercised", k)
				}
			}
			if backend == "dir" && sms[0].Restores.Value("cold") == 0 {
				t.Error("the inline budget never made a restore page in")
			}
			if e, r := classifications(sms[0]); e != e0 || r == r0 {
				t.Errorf("with memos the reads extracted %d times and resumed %d, want 0 and > 0", e-e0, r-r0)
			}
			if e, r := classifications(sms[1]); e == e1 || r != 0 {
				t.Errorf("without memos the reads extracted %d times and resumed %d, want > 0 and 0", e-e1, r)
			}
		})
	}
}

// TestDemotedFleetRestoresOnDemand: a fleet whose state exists only in
// the store (seeded behind the service's back) is materialized app by
// app, exactly as requests arrive — each restore counted by the tier it
// came from and handing back the whole window — and apps nobody asks for
// stay demoted.
func TestDemotedFleetRestoresOnDemand(t *testing.T) {
	for _, backend := range []string{"dir", "memory"} {
		t.Run(backend, func(t *testing.T) {
			st := backendStore(t, backend, store.Options{})
			seedStoreFleet(t, st, 6, 6)
			coldN := 0
			if backend == "dir" {
				for i := 0; i < 3; i++ {
					if err := st.PageOut(fmt.Sprintf("busy-%d", i)); err != nil {
						t.Fatal(err)
					}
				}
				coldN = 3
			}
			svc := NewServiceWith(trainTinyModel(t), ServiceOptions{Store: st, MaxHotApps: 8})
			sm := svc.InstrumentWith(serving.NewRegistry())
			srv := httptest.NewServer(svc.Handler())
			defer srv.Close()
			if hot, warm, cold := svc.TierCounts(); hot != 0 || warm != 12-coldN || cold != coldN {
				t.Fatalf("setup: TierCounts = (%d, %d, %d), want (0, %d, %d)", hot, warm, cold, 12-coldN, coldN)
			}

			for i := 0; i < 6; i++ {
				name := fmt.Sprintf("busy-%d", i)
				if d := fetchDecision(t, srv.URL, name); d.target.History != 20 {
					t.Fatalf("%s: history = %d, want the 20 seeded observations", name, d.target.History)
				}
			}
			if hot := svc.HotApps(); hot != 6 {
				t.Fatalf("hot apps = %d, want exactly the 6 requested", hot)
			}
			for i := 0; i < 6; i++ {
				if materialized(svc, fmt.Sprintf("idle-%d", i)) {
					t.Fatalf("idle-%d was materialized without a request", i)
				}
			}
			warm, cold := sm.Restores.Value("warm"), sm.Restores.Value("cold")
			if int(warm) != 6-coldN || int(cold) != coldN {
				t.Fatalf("restores (warm, cold) = (%v, %v), want (%d, %d)", warm, cold, 6-coldN, coldN)
			}
			// A restore pages the app back in; nothing is left cold.
			if hot, warm, cold := svc.TierCounts(); hot != 6 || warm != 6 || cold != 0 {
				t.Fatalf("TierCounts = (%d, %d, %d), want (6, 6, 0)", hot, warm, cold)
			}

			// Hot apps are served from memory: a second round restores nothing.
			for i := 0; i < 6; i++ {
				fetchDecision(t, srv.URL, fmt.Sprintf("busy-%d", i))
			}
			if n := sm.Restores.Value("warm") + sm.Restores.Value("cold"); n != warm+cold {
				t.Fatalf("second round restored %v more times, want 0", n-warm-cold)
			}
		})
	}
}

// TestEvictionDisplacesLRUTail: on a full hot tier a newly requested app
// displaces the least recently used one — never the one a request just
// touched — the hot tier stays at its budget, and the displaced app comes
// back whole on its next request.
func TestEvictionDisplacesLRUTail(t *testing.T) {
	st := store.OpenMemory()
	defer st.Close()
	seedStoreFleet(t, st, 4, 0)
	svc := NewServiceWith(trainTinyModel(t), ServiceOptions{Store: st, MaxHotApps: 2})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	hotSet := func(want ...string) {
		t.Helper()
		if hot := svc.HotApps(); hot != len(want) {
			t.Fatalf("hot apps = %d, want %d", hot, len(want))
		}
		for _, name := range want {
			if !materialized(svc, name) {
				t.Fatalf("%s is not hot", name)
			}
		}
	}
	fetchDecision(t, srv.URL, "busy-0")
	fetchDecision(t, srv.URL, "busy-1")
	hotSet("busy-0", "busy-1")
	if ev := svc.Evictions(); ev != 0 {
		t.Fatalf("evictions = %d filling the hot tier, want 0", ev)
	}

	// busy-0 is the tail.
	fetchDecision(t, srv.URL, "busy-2")
	hotSet("busy-1", "busy-2")

	// Touching busy-1 makes busy-2 the tail, without an eviction.
	fetchDecision(t, srv.URL, "busy-1")
	if ev := svc.Evictions(); ev != 1 {
		t.Fatalf("evictions = %d after re-touching a hot app, want 1", ev)
	}
	fetchDecision(t, srv.URL, "busy-3")
	hotSet("busy-1", "busy-3")
	if ev := svc.Evictions(); ev != 2 {
		t.Fatalf("evictions = %d, want 2", ev)
	}

	// Demotion kept every record and every observation.
	if n := st.Apps(); n != 4 {
		t.Fatalf("store apps = %d, want 4", n)
	}
	for _, name := range []string{"busy-0", "busy-2"} {
		if d := fetchDecision(t, srv.URL, name); d.target.History != 20 {
			t.Fatalf("%s: history = %d after displacement, want 20", name, d.target.History)
		}
	}
	hotSet("busy-0", "busy-2")
}

// TestDropCachedKeepsHistory: on a memory store, dropping hot apps'
// serving state frees their slots without losing a window — every app
// comes back with its full history and the hot tier refills to budget.
func TestDropCachedKeepsHistory(t *testing.T) {
	svc := NewServiceWith(trainTinyModel(t), ServiceOptions{MaxHotApps: 4})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// Six apps through the REST path: the LRU keeps 4 hot, demoting 2.
	for round := 0; round < 10; round++ {
		for i := 0; i < 6; i++ {
			mustObserve(t, srv.URL, fmt.Sprintf("wl-%d", i), 4)
		}
	}
	if hot, warm, cold := svc.TierCounts(); hot != 4 || warm != 2 || cold != 0 {
		t.Fatalf("setup: TierCounts = (%d, %d, %d), want (4, 2, 0)", hot, warm, cold)
	}

	hotNames := lruNames(svc)
	svc.dropCached(hotNames[0])
	svc.dropCached(hotNames[1])
	if hot, warm, cold := svc.TierCounts(); hot != 2 || warm != 4 || cold != 0 {
		t.Fatalf("after two drops: TierCounts = (%d, %d, %d), want (2, 4, 0)", hot, warm, cold)
	}
	for _, name := range hotNames[:2] {
		if materialized(svc, name) {
			t.Fatalf("dropped %s is still materialized", name)
		}
	}

	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("wl-%d", i)
		if d := fetchDecision(t, srv.URL, name); d.target.History != 10 {
			t.Fatalf("%s: history = %d, want 10", name, d.target.History)
		}
	}
	if hot, warm, cold := svc.TierCounts(); hot != 4 || warm != 2 || cold != 0 {
		t.Fatalf("after reads: TierCounts = (%d, %d, %d), want (4, 2, 0)", hot, warm, cold)
	}
}
