package knative

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"github.com/ubc-cirrus-lab/femux-go/internal/lifecycle"
	"github.com/ubc-cirrus-lab/femux-go/internal/store"
)

// hotApps counts apps resident in the hot tier right now.
func hotApps(s *Service) int {
	return s.HotApps()
}

// TestLifecycleSnapshotParity feeds the same observation streams to a
// service over a directory store and one over a memory store and requires
// both snapshots to hold identical, name-sorted windows.
func TestLifecycleSnapshotParity(t *testing.T) {
	model := trainTinyModel(t)
	st, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	backed := NewServiceWith(model, ServiceOptions{Store: st})
	plain := NewService(model)
	backedSrv := httptest.NewServer(backed.Handler())
	defer backedSrv.Close()
	plainSrv := httptest.NewServer(plain.Handler())
	defer plainSrv.Close()

	// Deliberately unsorted arrival order and unequal window lengths.
	streams := map[string]int{"zeta": 70, "alpha": 45, "mid": 61}
	for app, n := range streams {
		for i := 0; i < n; i++ {
			v := float64(i%7) * 1.25
			if postObserve(t, backedSrv.URL, app, v) != 200 || postObserve(t, plainSrv.URL, app, v) != 200 {
				t.Fatalf("observe failed for %s", app)
			}
		}
	}

	a := backed.LifecycleSnapshot(0.5)
	b := plain.LifecycleSnapshot(0.5)
	if len(a.Apps) != len(streams) || len(b.Apps) != len(streams) {
		t.Fatalf("app counts %d/%d, want %d", len(a.Apps), len(b.Apps), len(streams))
	}
	for i := range a.Apps {
		if a.Apps[i].Name != b.Apps[i].Name {
			t.Fatalf("app %d: name %q vs %q", i, a.Apps[i].Name, b.Apps[i].Name)
		}
		if len(a.Apps[i].Window) != len(b.Apps[i].Window) {
			t.Fatalf("%s: window lengths %d vs %d",
				a.Apps[i].Name, len(a.Apps[i].Window), len(b.Apps[i].Window))
		}
		for j := range a.Apps[i].Window {
			if math.Float64bits(a.Apps[i].Window[j]) != math.Float64bits(b.Apps[i].Window[j]) {
				t.Fatalf("%s[%d]: %v vs %v", a.Apps[i].Name, j, a.Apps[i].Window[j], b.Apps[i].Window[j])
			}
		}
	}
	names := make([]string, len(a.Apps))
	for i, w := range a.Apps {
		names[i] = w.Name
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("snapshot apps not sorted: %v", names)
	}
}

// TestLifecycleSnapshotLeavesTiersAlone pins the "reading is not
// serving" contract: snapshotting a tiered fleet must return every app's
// window without promoting cold apps into the hot tier.
func TestLifecycleSnapshotLeavesTiersAlone(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{
		Sync: store.SyncNever, CompactEvery: -1,
		InlineBudget: 3, // force most of the fleet out of warm
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	svc := NewServiceWith(trainTinyModel(t), ServiceOptions{
		Store: st, MaxHotApps: 2,
	})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	apps := []string{"t0", "t1", "t2", "t3", "t4", "t5"}
	for _, app := range apps {
		for i := 0; i < 40; i++ {
			if postObserve(t, srv.URL, app, float64(i%5)) != 200 {
				t.Fatalf("observe failed for %s", app)
			}
		}
	}
	before := hotApps(svc)
	if before > 2 {
		t.Fatalf("hot tier holds %d apps despite MaxHotApps 2", before)
	}
	snap := svc.LifecycleSnapshot(0)
	if len(snap.Apps) != len(apps) {
		t.Fatalf("snapshot returned %d apps, want %d", len(snap.Apps), len(apps))
	}
	for _, w := range snap.Apps {
		if len(w.Window) != 40 {
			t.Fatalf("%s: window length %d, want 40", w.Name, len(w.Window))
		}
	}
	if after := hotApps(svc); after != before {
		t.Fatalf("snapshot changed hot tier residency: %d -> %d", before, after)
	}
}

// TestDriftScoreGauge checks the lifecycle wiring end to end: a regime
// change on one app must surface, at the next retrain cycle, as a
// positive femux_drift_score in the /metrics scrape, equal to the cycle's
// own MaxDrift. Between cycles the gauge does not move.
func TestDriftScoreGauge(t *testing.T) {
	svc, reg, srv := newInstrumentedServer(t)
	// A threshold no score reaches: every cycle is idle, nothing retrains.
	mgr := lifecycle.New(svc, lifecycle.Config{DriftThreshold: 2 * lifecycle.MaxDriftScore})
	mgr.InstrumentWith(reg)
	gauge := func() float64 {
		t.Helper()
		resp, body := doReq(t, "GET", srv.URL+"/metrics", "")
		if resp.StatusCode != 200 {
			t.Fatalf("metrics scrape: %d", resp.StatusCode)
		}
		return sumMetric(body, "femux_drift_score")
	}
	observe := func(v float64) {
		t.Helper()
		for i := 0; i < 30; i++ {
			if postObserve(t, srv.URL, "shifty", v) != 200 {
				t.Fatal("observe failed")
			}
		}
	}

	// tinyModel's BlockSize is 30: one reference block near 2, then a
	// block at 20x the level completes and the score jumps.
	observe(2)
	if res := mgr.RunCycle(); res.Outcome != lifecycle.OutcomeIdle || gauge() != 0 {
		t.Fatalf("cycle %+v, gauge %v before two completed blocks, want idle and 0", res, gauge())
	}
	observe(40)
	if got := gauge(); got != 0 {
		t.Fatalf("drift score %v before the cycle that sees the regime change, want 0", got)
	}
	mgr.RunCycle()
	got := gauge()
	if got <= 1 {
		t.Fatalf("drift score after regime change = %v, want > 1", got)
	}
	if want := mgr.Status().Last.MaxDrift; math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("gauge %v != the last cycle's MaxDrift %v", got, want)
	}
}

// TestDriftGateIgnoresResidency pins the retrain gate to the store: three
// apps, one of which changes regime after its first block, are served by
// a service that keeps every app hot, by one with a hot budget of 1 that
// touches the drifted app first (so it is evicted), and by one reopened
// on the latter's directory that has served no request. Their snapshots
// must agree bit for bit on MaxDrift, Drifted and Tracked, equal
// SnapshotFromWindows over the streams, and lead a retrain cycle to the
// same outcome: which apps happen to be resident, and whether the process
// restarted, changes no drift decision.
func TestDriftGateIgnoresResidency(t *testing.T) {
	model := trainTinyModel(t)
	bs := model.Config().BlockSize
	apps := []string{"calm-a", "calm-b", "shift"} // sorted, as the store lists them
	streams := map[string][]float64{}
	var windows []lifecycle.AppWindow
	for _, app := range apps {
		for i := 0; i < 3*bs; i++ {
			v := 2 + 0.25*float64(i%3)
			if app == "shift" && i >= bs { // bursts at 20x the level
				v = 0
				if i%3 == 0 {
					v = 40
				}
			}
			streams[app] = append(streams[app], v)
		}
		windows = append(windows, lifecycle.AppWindow{Name: app, Window: streams[app]})
	}
	const threshold = 0.5
	want := lifecycle.SnapshotFromWindows(model, windows, bs, threshold)
	if want.MaxDrift < threshold || want.Drifted != 1 || want.Tracked != 3 {
		t.Fatalf("the streams score %+v: want one drifted app of three", want)
	}

	open := func(dir string) *store.Store {
		st, err := store.Open(dir, store.Options{Sync: store.SyncNever, CompactEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	serve := func(dir string, maxHot int, order ...string) *Service {
		svc := NewServiceWith(model, ServiceOptions{Store: open(dir), MaxHotApps: maxHot})
		h := svc.Handler()
		for _, app := range order {
			for _, v := range streams[app] {
				if rec := serveInProcess(h, http.MethodPost, "/v1/apps/"+app+"/observe", fmt.Sprintf(`{"concurrency": %v}`, v)); rec.Code != http.StatusOK {
					t.Fatalf("observe %s: %d %s", app, rec.Code, rec.Body)
				}
			}
		}
		return svc
	}
	// cycle checks svc's snapshot against the streams' and runs one
	// retrain cycle on it.
	cycle := func(name string, svc *Service) lifecycle.CycleResult {
		t.Helper()
		got := svc.LifecycleSnapshot(threshold)
		if math.Float64bits(got.MaxDrift) != math.Float64bits(want.MaxDrift) || got.Drifted != want.Drifted || got.Tracked != want.Tracked {
			t.Fatalf("%s: drift %v/%d/%d, the streams score %v/%d/%d", name,
				got.MaxDrift, got.Drifted, got.Tracked, want.MaxDrift, want.Drifted, want.Tracked)
		}
		res := lifecycle.New(svc, lifecycle.Config{DriftThreshold: threshold, Seed: 5, Workers: 1}).RunCycle()
		res.TrainMs = 0
		return res
	}

	allHot := serve(t.TempDir(), 0, "calm-a", "shift", "calm-b")
	defer allHot.st.Close()
	base := cycle("MaxHotApps 0", allHot)
	if base.Outcome == lifecycle.OutcomeIdle {
		t.Fatalf("MaxHotApps 0: cycle %+v, want a retrain", base)
	}
	dir := t.TempDir()
	oneHot := serve(dir, 1, "shift", "calm-a", "calm-b")
	if oneHot.HotApps() != 1 || oneHot.Evictions() == 0 {
		t.Fatalf("hot budget 1: %d hot apps, %d evictions", oneHot.HotApps(), oneHot.Evictions())
	}
	if res := cycle("MaxHotApps 1", oneHot); res != base {
		t.Fatalf("MaxHotApps 1: cycle %+v, MaxHotApps 0's %+v", res, base)
	}
	if err := oneHot.st.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := NewServiceWith(model, ServiceOptions{Store: open(dir)})
	defer reopened.st.Close()
	if res := cycle("reopened", reopened); res != base {
		t.Fatalf("reopened: cycle %+v, MaxHotApps 0's %+v", res, base)
	}
}
