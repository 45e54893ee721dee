package knative

import (
	"sync"

	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
	"github.com/ubc-cirrus-lab/femux-go/internal/store"
)

// Restore-ahead: the forecast-driven analogue of pod pre-warming. A
// demoted app's first request after reactivation pays the restore
// (decode, policy rebuild, for cold apps a disk read) on the request
// path. But the service already holds a model whose whole job is to
// predict which apps fire next minute — so a background loop asks it,
// and promotes the predicted-to-fire demoted apps before their traffic
// arrives. Promotion is strictly best-effort and budgeted:
//
//   - at most budget apps promote per cycle. A promotion into a stripe
//     with free capacity evicts nothing; at steady state under churn the
//     stripes are always full, and there a promotion displaces only the
//     stripe's LRU-tail resident — and never one the current cycle
//     itself promoted, which (because guesses park at the tail) caps
//     displacement at one resident per stripe per cycle. The loop
//     cannot thrash the LRUs it feeds: consecutive cycles reclaim the
//     previous cycle's untouched guesses before any requested app;
//   - the scan reads windows through the store's non-promoting
//     RestoreWindows peek, so merely *considering* an app moves nothing
//     between tiers;
//   - promoted state is bit-identical to what a request-path restore
//     would build (same materializeAs path), so restore-ahead is
//     invisible to forecasts — it only moves latency off the request.
//
// Hits (a prefetched app touched by a real request before eviction) and
// wastes (evicted untouched) are counted so the hit rate is observable:
// femux_restore_ahead_{scans,promotions,hits,wastes}_total.

// DefaultRestoreAheadLevel is the forecast quantile a candidate must
// fire at for promotion: p95 catches bursty reactivators without
// promoting on speculative tail mass.
const DefaultRestoreAheadLevel = 0.95

// restoreAheadScanFactor bounds how many candidates one cycle evaluates
// per promotion slot; restoreAheadChunk bounds how many windows each
// store peek decodes under one lock hold.
const (
	restoreAheadScanFactor = 8
	restoreAheadChunk      = 64
)

// prefetchState is the restore-ahead loop's cursor: cycles rotate
// through the fleet roster instead of re-scanning the same (sorted)
// prefix, so every demoted app is eventually considered. One mutex also
// serializes cycles — overlapping scans would double-promote.
type prefetchState struct {
	mu     sync.Mutex
	cursor int
}

// restoreAheadBudget resolves the per-cycle promotion budget: an
// explicit positive budget wins; otherwise an eighth of the global hot
// budget (clamped to [1, 256]) keeps a full prefetch cycle from
// displacing more than a sliver of the hot tier, and unlimited hot
// budgets get a nominal 32 (promotion is pure win when nothing evicts).
func (s *Service) restoreAheadBudget(budget int) int {
	if budget > 0 {
		return budget
	}
	total := 0
	for _, t := range s.tier.stripes {
		if t.maxHot < 0 {
			return 32
		}
		total += t.maxHot
	}
	b := total / 8
	if b < 1 {
		b = 1
	}
	if b > 256 {
		b = 256
	}
	return b
}

// RestoreAheadCycle runs one prefetch pass: scan up to scanFactor×budget
// demoted apps (rotating through the roster across cycles), ask the
// live model for each one's next-interval forecast at the given quantile
// level, and promote the predicted-to-fire ones until the budget is
// spent. level <= 0 uses DefaultRestoreAheadLevel; budget <= 0 sizes
// itself from the hot budget. Returns how many candidates were
// evaluated and how many promoted. Safe to call at any time; a replica
// never prefetches (promoting would build serving state ahead of the
// gate, and the roster is still catching up).
func (s *Service) RestoreAheadCycle(level float64, budget int) (scanned, promoted int) {
	if s.IsReplica() {
		return 0, 0
	}
	if level <= 0 || level >= 1 {
		level = DefaultRestoreAheadLevel
	}
	budget = s.restoreAheadBudget(budget)

	s.prefetch.mu.Lock()
	defer s.prefetch.mu.Unlock()
	s.tier.prefetchEpoch.Add(1) // this cycle's guesses are displacement-immune

	names, cursor := s.prefetchCandidates(budget * restoreAheadScanFactor)
	if len(names) == 0 {
		return 0, 0
	}

	model, version := s.modelAt()
	ws := forecast.GetWorkspace()
	defer forecast.PutWorkspace(ws)
	levels := [1]float64{level}
	var dst []float64

	evaluate := func(win []float64, memo store.Memo) bool {
		if len(win) == 0 {
			return false
		}
		// A policy per candidate, built as the promotion itself would
		// build it: forecaster multiplexing is stateful per app, and this
		// one only answers "does the p-level forecast fire".
		policy, resumed := policyFor(model, memoGen(version), memo, len(win))
		if sm := s.svcMetrics(); resumed && sm != nil {
			sm.Classifications.Inc("resumed")
		}
		s.countExtract(policy, len(win))
		dst = policy.ForecastQuantilesWS(win, 1, levels[:], dst[:0], ws)
		return len(dst) > 0 && dst[0] > 0
	}

	for start := 0; start < len(names) && promoted < budget; start += restoreAheadChunk {
		chunk := names[start:min(start+restoreAheadChunk, len(names))]
		for _, rw := range s.st.RestoreWindows(chunk) {
			if promoted >= budget {
				break
			}
			scanned++
			s.tier.prefetchScans.Add(1)
			if !evaluate(rw.Window, rw.Memo) {
				continue
			}
			if s.promoteAhead(rw.App) {
				promoted++
			}
		}
	}
	s.prefetch.cursor = cursor
	return scanned, promoted
}

// promoteAhead materializes one predicted-to-fire app and lists it in
// its stripe's LRUs as the *least* recently used hot entry: a guess must
// be first in line for eviction, behind every app a real request
// touched.
func (s *Service) promoteAhead(name string) bool {
	a := s.materializeAs(name, true)
	if a == nil {
		return false
	}
	a.mu.Lock()
	if !a.gone {
		s.touch(a)
		t := a.stripe
		t.mu.Lock()
		if a.hotEl != nil {
			t.hot.MoveToBack(a.hotEl)
		}
		if a.wsEl != nil {
			t.ws.MoveToBack(a.wsEl)
		}
		t.mu.Unlock()
	}
	a.mu.Unlock()
	s.tier.prefetchPromotions.Add(1)
	return true
}

// prefetchCandidates collects up to max demoted candidate names this
// instance owns, resuming from the rotation cursor, and returns the next
// cursor position. The rotation runs through the store's roster.
func (s *Service) prefetchCandidates(max int) ([]string, int) {
	roster := s.st.AppNames() // sorted: a stable rotation order
	if len(roster) == 0 {
		return nil, 0
	}
	cursor := s.prefetch.cursor % len(roster)
	names := make([]string, 0, min(max, len(roster)))
	examined := 0
	for ; examined < len(roster) && len(names) < max; examined++ {
		name := roster[(cursor+examined)%len(roster)]
		if msg, _, _ := s.rejectApp(name); msg != "" {
			continue // not ours (moved, foreign shard, or awaiting adoption)
		}
		// Skip apps that are already materialized, and stripes whose hot
		// budget is 0 — those can never hold a promotion. A merely *full*
		// stripe stays eligible: promotion displaces its LRU tail.
		t := s.tier.stripe(name)
		t.mu.Lock()
		hot := t.apps[name] != nil
		dead := t.maxHot == 0
		t.mu.Unlock()
		if hot || dead {
			continue
		}
		names = append(names, name)
	}
	return names, (cursor + examined) % len(roster)
}

// RestoreAheadStats reports lifetime prefetch counters: candidates
// evaluated, apps promoted, promoted apps later touched by a real
// request (hits), and promoted apps evicted untouched (wastes).
func (s *Service) RestoreAheadStats() (scans, promotions, hits, wastes int64) {
	return s.tier.prefetchScans.Load(),
		s.tier.prefetchPromotions.Load(),
		s.tier.prefetchHits.Load(),
		s.tier.prefetchWastes.Load()
}
