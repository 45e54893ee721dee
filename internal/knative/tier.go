package knative

import (
	"log"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/ubc-cirrus-lab/femux-go/internal/store"
)

// Tiered per-app serving state. Real fleets ("Serverless in the Wild",
// and the paper's own production traces) are dominated by enormous
// numbers of mostly-idle apps; keeping a materialized float64 window and
// an AppPolicy resident for every app ever seen makes RSS scale with
// apps-ever-seen instead of apps-currently-hot. The service therefore
// keeps three tiers:
//
//	hot   a ring of exactly the values its forecaster reads
//	      (forecast.Lookback, at most Window) + policy: the
//	      zero-allocation observe path. A due block is read from the
//	      store, its one holder. Bounded by MaxHotApps, LRU-evicted, and
//	      entered only by a request's first touch.
//	warm  the compact window only (store.CompactWindow), in the store: every
//	      store app is warm at rest and the boot path never materializes
//	      one. Bounded by the store's InlineBudget (-max-warm-apps),
//	      beyond which apps go cold.
//	cold  paged to disk by the store, a ~few-dozen-byte stub in memory
//	      (directory-backed stores only; a memory store pages nothing).
//
// Every Service has a store — the one it was given, or a memory store
// (store.OpenMemory) — and every acknowledged observation is in it before
// it is in hot state, so hot state is a pure cache of the store and a
// demotion writes nothing but the memo below.
//
// Demotion is invisible to callers: a restored app derives its forecaster
// from the same history an uninterrupted process would hold, so
// forecasts are Float64bits-identical across any evict/page/restore
// cycle at every budget (asserted by tierequiv_test.go). Demotion
// keeps the window and, beside it, a memo of the cluster group its last
// completed block fell into (store.Memo). A restore reads only the app's
// count and memo and decodes no value: the ring starts empty, and the
// first call fills it from the store with what the policy reads
// (Store.Recent). The memo only caches extract-and-classify (policyFor
// says when it hits).
//
// One mutex, tier.mu, guards the app map, the LRU, every entry's pins and
// the eviction count, and one protocol covers every request:
//
//   - acquire finds or installs the app's entry, pins it and touches the
//     LRU in one tier.mu hold, then locks the app. A missing app is
//     installed as a new entry whose lock the installer takes before
//     publishing it; it then restores the entry from the store under that
//     lock, so a concurrent request for the app waits for the restore, no
//     app is restored twice, and no restore reads a count older than the
//     entry it installs.
//   - releaseApp unlocks the request's apps, then in one tier.mu hold
//     unpins them and demotes the least recently touched unpinned entries
//     until the budget holds. An unpinned entry is one no request holds or
//     waits for, so eviction locks no app. An evicted entry's memo is
//     written once tier.mu is released (demote). An entry still without
//     an observation at its last unpin (a read of an unknown app) leaves
//     the map at once.
//
// So the budget is exact once every request has released its apps
// (pinned entries past it wait for their release), and with requests one
// at a time the hot set is the fleet's MaxHotApps most recently touched
// apps. tier.mu is never held across a restore or an app lock wait.
//
// A model swap only publishes the new model (SwapModel): each entry
// records the model version it was built from, and acquire rebuilds a
// stale entry's policy on the app's next touch.
//
// No tier holds a forecast workspace. A workspace is scratch, not app
// state: it holds buffers and plan pointers and no result, so any request
// may use any workspace. A request takes one from forecast.GetWorkspace
// once it holds its apps, makes every decision in it, and puts it back
// before it answers, so the workspaces in use are bounded by the requests
// computing at once, not by the hot fleet.
type tiers struct {
	maxHot int // hot apps; <= 0 = unlimited

	mu   sync.Mutex
	apps map[string]*svcApp // the hot tier by name
	// head and tail end the LRU of the hot tier's entries, linked through
	// svcApp.prev/next: head is the most recently touched. hot counts them.
	head, tail *svcApp
	hot        int

	evictions int64 // hot -> warm demotions

	// countAnomalies counts TierCounts samples where the warm count came
	// out negative — a hot app with no durable state yet, or a racy
	// cross-structure sample. Counted (and logged once) instead of
	// silently clamped.
	countAnomalies atomic.Int64
	anomalyLog     sync.Once
}

// acquire returns the named app pinned and with its lock held, restored
// from the warm/cold tier if it was not hot and rebuilt on the serving
// model if a swap made it stale. Callers give it back with releaseApp.
func (s *Service) acquire(name string) *svcApp {
	t := &s.tier
	t.mu.Lock()
	a := t.apps[name]
	if a == nil {
		// A copy: name may be a substring of the request line, which the
		// entry would pin for as long as it lives. A new app's store
		// record takes this copy (observe appends under a.name), and a
		// restored app's entry takes the store's key instead.
		name = strings.Clone(name)
		a = &svcApp{name: name, pins: 1}
		a.mu.Lock() // before a is published: requests for name wait on it
		t.apps[name] = a
		t.pushFront(a)
		t.mu.Unlock()
		if key := s.restore(a); key != "" {
			t.mu.Lock()
			delete(t.apps, name) // so that the assignment stores key as the key
			a.name = key
			t.apps[key] = a
			t.mu.Unlock()
		}
		return a
	}
	t.moveToFront(a)
	a.pins++
	t.mu.Unlock()
	a.mu.Lock()
	if m := s.live.Load(); a.version != m.version {
		// Refilled from nothing, the ring takes the new policy's lookback,
		// and its first call reads its view from the store.
		a.policy, a.version = m.model.NewAppPolicy(0), m.version
		a.refill(nil)
	}
	return a
}

// releaseApp gives back what acquire took: it unlocks each of apps (each
// acquired once), then unpins them and enforces the budget in one
// tier.mu hold — eviction happens after the response work is done, never
// to an app a request holds.
func (s *Service) releaseApp(apps ...*svcApp) {
	for _, a := range apps {
		a.mu.Unlock()
	}
	t := &s.tier
	t.mu.Lock()
	for _, a := range apps {
		if a.pins--; a.pins == 0 && a.n == 0 {
			t.unlink(a)
		}
	}
	var buf [1]*svcApp
	evicted := buf[:0]
	for v := t.tail; v != nil && t.overHot(); {
		prev := v.prev
		if v.pins == 0 {
			t.evict(v)
			evicted = append(evicted, v)
		}
		v = prev
	}
	t.mu.Unlock()
	s.demote(evicted)
}

// overHot reports whether the hot budget is exceeded. Caller holds t.mu.
func (t *tiers) overHot() bool { return t.maxHot > 0 && t.hot > t.maxHot }

// pushFront links a, not in the LRU, as its most recently touched entry.
// Caller holds t.mu.
func (t *tiers) pushFront(a *svcApp) {
	a.prev, a.next = nil, t.head
	if t.head != nil {
		t.head.prev = a
	} else {
		t.tail = a
	}
	t.head = a
	t.hot++
}

// remove unlinks a from the LRU. Caller holds t.mu.
func (t *tiers) remove(a *svcApp) {
	if a.prev != nil {
		a.prev.next = a.next
	} else {
		t.head = a.next
	}
	if a.next != nil {
		a.next.prev = a.prev
	} else {
		t.tail = a.prev
	}
	a.prev, a.next = nil, nil
	t.hot--
}

// moveToFront makes a, in the LRU, its most recently touched entry.
// Caller holds t.mu.
func (t *tiers) moveToFront(a *svcApp) {
	if t.head != a {
		t.remove(a)
		t.pushFront(a)
	}
}

// unlink removes a from the map and the LRU. Caller holds t.mu.
func (t *tiers) unlink(a *svcApp) {
	t.remove(a)
	delete(t.apps, a.name)
}

// evict takes v, an unpinned entry, out of the hot tier; the caller
// demotes it once it has released t.mu. Caller holds t.mu.
func (t *tiers) evict(v *svcApp) {
	t.unlink(v)
	t.evictions++
}

// demote finishes the eviction of apps, which no request can reach any
// more, so their fields are read without their locks: each one's
// classification, if current for its history, goes to the store as a
// memo. The memo is written after the unlink, outside t.mu, which keeps
// store.mu waits out of the tier lock. A request may restore the app in
// between: it misses the memo and extracts the block itself, counted as
// an extraction. A memo names its window length and model, and a window
// only grows, so one that lands late is either still right or matches
// no restore; the race costs an extraction, never a forecast.
func (s *Service) demote(apps []*svcApp) {
	if len(apps) == 0 {
		return
	}
	for _, v := range apps {
		var memo store.Memo
		if group, ok := v.policy.Classified(v.n); ok && group <= math.MaxUint8 {
			memo = store.Memo{Len: uint32(v.n), Gen: memoGen(v.version), Group: uint8(group)}
		}
		s.st.SetMemo(v.name, memo)
	}
	if sm := s.metrics.Load(); sm != nil {
		sm.Evictions.Add(float64(len(apps)))
	}
}

// HotApps reports how many apps are materialized (hot tier).
func (s *Service) HotApps() int {
	s.tier.mu.Lock()
	defer s.tier.mu.Unlock()
	return s.tier.hot
}

// Evictions reports lifetime hot->warm demotions.
func (s *Service) Evictions() int64 {
	s.tier.mu.Lock()
	defer s.tier.mu.Unlock()
	return s.tier.evictions
}

// TierCounts reports (hot, warm, cold) app counts for the gauges. Warm
// is everything tracked but not materialized and not paged. The counts
// are sampled without a cross-structure lock, so a sample can
// transiently undershoot — a hot app that has no durable state yet (its
// first observation is in flight), or a store sampled while an app
// moves. Such samples are counted in femux_tier_count_anomalies_total
// (and logged once) instead of being silently clamped away.
func (s *Service) TierCounts() (hot, warm, cold int) {
	hot = s.HotApps()
	cold = s.st.PagedApps()
	warm = s.st.Apps() - cold - hot
	if warm < 0 {
		s.tier.countAnomalies.Add(1)
		s.tier.anomalyLog.Do(func() {
			log.Printf("knative: tier gauge sample inconsistent: store apps %d < cold %d + hot %d (counted in femux_tier_count_anomalies_total; further anomalies not logged)",
				cold+hot+warm, cold, hot)
		})
		warm = 0
	}
	return hot, warm, cold
}

// TierCountAnomalies reports how many TierCounts samples were internally
// inconsistent (negative warm count).
func (s *Service) TierCountAnomalies() int64 {
	return s.tier.countAnomalies.Load()
}
