package knative

import "github.com/ubc-cirrus-lab/femux-go/internal/lifecycle"

// The service side of the retrain lifecycle: the snapshot a
// lifecycle.Manager retrains from. Service implements lifecycle.Serving
// (LifecycleSnapshot here, SwapModel in service.go).

// LifecycleSnapshot implements lifecycle.Serving: it captures the
// serving model and the fleet's observation windows (sorted by app name)
// for retraining and shadow evaluation, and scores each window's drift
// (lifecycle.SnapshotFromWindows).
//
// Windows are read straight from the store: observe holds each app's
// lock from before the WAL commit until after the apply, so a hot tail
// ends its store window, and reading the store promotes no cold app. The
// drift summary is therefore a function of the store alone: no hot-tier
// residency, eviction or restart changes it.
func (s *Service) LifecycleSnapshot(driftThreshold float64) lifecycle.Snapshot {
	var windows []lifecycle.AppWindow
	for _, name := range s.st.AppNames() { // sorted
		if w := s.st.Window(name); len(w) > 0 {
			windows = append(windows, lifecycle.AppWindow{Name: name, Window: w})
		}
	}
	return lifecycle.SnapshotFromWindows(s.Model(), windows, s.driftBlock, driftThreshold)
}
