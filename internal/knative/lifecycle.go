package knative

import "github.com/ubc-cirrus-lab/femux-go/internal/lifecycle"

// The service side of the retrain lifecycle: drift summaries for the
// femux_drift_score gauge and the snapshot a lifecycle.Manager retrains
// from. Service implements lifecycle.Serving (LifecycleSnapshot here,
// SwapModel in service.go).

// DriftSummary scans the hot tier's drift detectors and reports the
// largest score, how many hot apps sit at or above threshold (0 counts
// none), and how many were examined. Only hot apps carry live detector
// state — a demoted app's drift is recomputed from its window when it
// rematerializes, so an idle app cannot hold the fleet's max score
// forever.
func (s *Service) DriftSummary(threshold float64) (maxScore float64, drifted, tracked int) {
	t := &s.tier
	t.mu.Lock()
	hot := make([]*svcApp, 0, t.hot.Len())
	for el := t.hot.Front(); el != nil; el = el.Next() {
		hot = append(hot, el.Value)
	}
	t.mu.Unlock()
	// Scores are read under each app's lock, never under the tier lock —
	// the eviction path locks app.mu before tier.mu, so the reverse order
	// here would deadlock.
	for _, a := range hot {
		a.mu.Lock()
		gone := a.gone
		sc := 0.0
		if !gone {
			sc = a.drift.Score()
		}
		a.mu.Unlock()
		if gone {
			continue
		}
		tracked++
		if sc > maxScore {
			maxScore = sc
		}
		if threshold > 0 && sc >= threshold {
			drifted++
		}
	}
	return maxScore, drifted, tracked
}

// MaxDriftScore reports the largest drift score across hot apps (the
// femux_drift_score gauge).
func (s *Service) MaxDriftScore() float64 {
	m, _, _ := s.DriftSummary(0)
	return m
}

// LifecycleSnapshot implements lifecycle.Serving: it captures the
// serving model, the per-app drift summary, and the
// fleet's observation windows (sorted by app name; maxApps > 0 keeps the
// first maxApps names) for retraining and shadow evaluation.
//
// Windows are read straight from the store: observe holds each app's
// lock from before the WAL commit until after the apply, so a hot tail
// ends its store window, and reading the store promotes no cold app.
func (s *Service) LifecycleSnapshot(maxApps int, driftThreshold float64) lifecycle.Snapshot {
	snap := lifecycle.Snapshot{Model: s.Model()}
	snap.MaxDrift, snap.Drifted, snap.Tracked = s.DriftSummary(driftThreshold)
	names := s.st.AppNames() // sorted
	if maxApps > 0 && len(names) > maxApps {
		names = names[:maxApps]
	}
	for _, name := range names {
		if w := s.st.Window(name); len(w) > 0 {
			snap.Apps = append(snap.Apps, lifecycle.AppWindow{Name: name, Window: w})
		}
	}
	return snap
}
