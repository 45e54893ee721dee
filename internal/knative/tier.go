package knative

import (
	"log"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/store"
)

// Tiered per-app serving state. Real fleets ("Serverless in the Wild",
// and the paper's own production traces) are dominated by enormous
// numbers of mostly-idle apps; keeping a materialized float64 window and
// an AppPolicy resident for every app ever seen makes RSS scale with
// apps-ever-seen instead of apps-currently-hot. The service therefore
// keeps three tiers:
//
//	hot   the end of the history its forecaster reads (forecast.Lookback,
//	      at most Window+32 values) + policy + drift detector: the
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
// completed block fell into (store.Memo), so a restore decodes a window
// and extracts no features; the memo only caches extract-and-classify
// (policyFor says when it hits).
//
// One mutex guards the app map, the LRU and the eviction count, so once
// a request has enforced the budget the hot set is exactly the fleet's
// MaxHotApps most recently touched apps. It is held only for map and list
// updates, never across a restore or an app lock wait.
//
// No tier holds a forecast workspace. A workspace is scratch, not app
// state: it holds buffers and plan pointers and no result, so any request
// may use any workspace. A request takes one from forecast.GetWorkspace
// after its apps are locked, uses it for every decision it makes, and
// puts it back before it answers, so the workspaces in use are bounded by
// the requests computing at once, not by the hot fleet.
type tiers struct {
	maxHot int // hot apps; <= 0 = unlimited

	mu   sync.Mutex
	apps map[string]*svcApp // the hot tier by name
	hot  *lruList           // most recently touched first

	evictions int64 // hot -> warm demotions

	// countAnomalies counts TierCounts samples where the warm count came
	// out negative — a hot app with no durable state yet, or a racy
	// cross-structure sample. Counted (and logged once) instead of
	// silently clamped.
	countAnomalies atomic.Int64
	anomalyLog     sync.Once
}

// touch bumps a to the front of the hot LRU. Called with a.mu held; on
// the steady-state hot path it is a MoveToFront — no allocation.
func (s *Service) touch(a *svcApp) {
	t := &s.tier
	t.mu.Lock()
	if a.hotEl == nil {
		a.hotEl = t.hot.PushFront(a)
	} else {
		t.hot.MoveToFront(a.hotEl)
	}
	t.mu.Unlock()
}

// lostRaceBackoff paces the acquire retry loop after losing a race with
// eviction. The first few retries just yield — the common case is the
// evictor finishing its map removal within a scheduler quantum — but
// under sustained acquire-vs-evict churn (a hot budget of 1 shared by
// many goroutines, a stress test hammering one app) a pure
// runtime.Gosched spin can burn a core for milliseconds without the
// fresh map entry becoming observable. Beyond the yield phase the loop
// sleeps with capped exponential backoff: 1µs doubling to 1ms.
func lostRaceBackoff(attempt int) {
	const yields = 4
	if attempt < yields {
		runtime.Gosched()
		return
	}
	time.Sleep(time.Microsecond << min(attempt-yields, 10))
}

// acquire returns the named app with its lock held, lazily restoring
// warm/cold state and bumping the tier LRU. Callers must a.mu.Unlock()
// and then enforce the budget (releaseApp does both).
func (s *Service) acquire(name string) *svcApp {
	for attempt := 0; ; attempt++ {
		a := s.app(name)
		a.mu.Lock()
		if !a.gone {
			s.touch(a)
			return a
		}
		// Lost a race with eviction: the map entry is about to be (or has
		// been) removed; retry until the fresh entry is observable.
		a.mu.Unlock()
		lostRaceBackoff(attempt)
	}
}

// releaseApp unlocks a serving request's app and then enforces the
// budget — eviction happens after the response work is done, never
// while a request holds the app.
func (s *Service) releaseApp(a *svcApp) {
	a.mu.Unlock()
	s.enforceBudget()
}

// enforceBudget demotes LRU victims until the hot-app budget holds.
// The caller holds no app lock: the victim may be any app, and evict
// waits for its lock.
func (s *Service) enforceBudget() {
	t := &s.tier
	for {
		t.mu.Lock()
		var victim *svcApp
		if t.overHot() {
			victim = t.hot.Back().Value
		}
		t.mu.Unlock()
		if victim == nil {
			return
		}
		if !s.evict(victim) {
			// The victim was re-touched; the budget is best-effort within a
			// pass and the next release re-enforces.
			return
		}
	}
}

// overHot reports whether the hot budget is exceeded. Caller holds t.mu.
func (t *tiers) overHot() bool { return t.maxHot > 0 && t.hot.Len() > t.maxHot }

// evict demotes one app, reporting whether it made progress. The victim
// was chosen without its lock; everything is re-checked under victim.mu
// -> tier.mu (the same order touch uses), so a concurrent touch simply
// wins and the eviction pass stops. The map removal is atomic with the
// LRU removal: no window exists where a gone app is still reachable
// through the map.
func (s *Service) evict(v *svcApp) bool {
	v.mu.Lock()
	if !v.gone {
		// The classification, if current for this history, goes to the
		// demoted record while v is still published: dropCached clears it
		// after unpublishing, so none lands on state an import replaced.
		var memo store.Memo
		if group, ok := v.policy.Classified(v.n); ok && group <= math.MaxUint8 {
			memo = store.Memo{Len: uint32(v.n), Gen: v.gen, Group: uint8(group)}
		}
		s.st.SetMemo(v.name, memo)
	}
	t := &s.tier
	t.mu.Lock()
	if v.hotEl == nil || !t.overHot() || t.hot.Back() != v.hotEl {
		t.mu.Unlock()
		v.mu.Unlock()
		return false
	}
	t.hot.Remove(v.hotEl)
	v.hotEl = nil
	t.evictions++
	if t.apps[v.name] == v {
		delete(t.apps, v.name)
	}
	v.history = nil
	v.policy = nil
	v.gone = true
	t.mu.Unlock()
	v.mu.Unlock()
	if sm := s.svcMetrics(); sm != nil {
		sm.Evictions.Inc()
	}
	return true
}

// noteRestore records restore metrics (counter + latency histogram).
func (s *Service) noteRestore(from string, elapsed time.Duration) {
	if from == "" {
		return
	}
	if sm := s.svcMetrics(); sm != nil {
		sm.Restores.Inc(from)
		sm.RestoreSeconds.Observe(elapsed.Seconds(), from)
	}
}

// dropCached removes an app's materialized serving state and tier
// tracking (a model swap reshaped it, or a racing swap made it stale);
// the next touch lazily restores from the store. The store's memo of the old
// window is purged whether or not the app was materialized, and last,
// once no eviction of the dropped state can still write one.
func (s *Service) dropCached(name string) {
	defer s.st.SetMemo(name, store.Memo{})
	t := &s.tier
	t.mu.Lock()
	a := t.apps[name]
	delete(t.apps, name)
	t.mu.Unlock()
	if a == nil {
		return
	}
	a.mu.Lock()
	t.mu.Lock()
	if a.hotEl != nil {
		t.hot.Remove(a.hotEl)
		a.hotEl = nil
	}
	t.mu.Unlock()
	a.history = nil
	a.gone = true
	a.mu.Unlock()
}

// HotApps reports how many apps are materialized (hot tier).
func (s *Service) HotApps() int {
	s.tier.mu.Lock()
	defer s.tier.mu.Unlock()
	return s.tier.hot.Len()
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
