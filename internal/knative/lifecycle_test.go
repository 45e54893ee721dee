package knative

import (
	"math"
	"net/http/httptest"
	"sort"
	"testing"

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

	a := backed.LifecycleSnapshot(0, 0.5)
	b := plain.LifecycleSnapshot(0, 0.5)
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

	// maxApps keeps the first names of the sorted order, deterministically.
	capped := backed.LifecycleSnapshot(2, 0)
	if len(capped.Apps) != 2 || capped.Apps[0].Name != "alpha" || capped.Apps[1].Name != "mid" {
		t.Fatalf("capped snapshot = %v", capped.Apps)
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
	snap := svc.LifecycleSnapshot(0, 0)
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

// TestDriftScoreGauge checks the serving-path wiring end to end: a
// regime change on one app must surface as a positive femux_drift_score
// in the /metrics scrape, equal to the service's own summary.
func TestDriftScoreGauge(t *testing.T) {
	svc, _, srv := newInstrumentedServer(t)

	// tinyModel's BlockSize is 30: one reference block near 2, then a
	// block at 20x the level completes and the score jumps.
	for i := 0; i < 30; i++ {
		if postObserve(t, srv.URL, "shifty", 2) != 200 {
			t.Fatal("observe failed")
		}
	}
	resp, body := doReq(t, "GET", srv.URL+"/metrics", "")
	if resp.StatusCode != 200 {
		t.Fatalf("metrics scrape: %d", resp.StatusCode)
	}
	if got := sumMetric(body, "femux_drift_score"); got != 0 {
		t.Fatalf("drift score %v before two completed blocks, want 0", got)
	}

	for i := 0; i < 30; i++ {
		if postObserve(t, srv.URL, "shifty", 40) != 200 {
			t.Fatal("observe failed")
		}
	}
	_, body = doReq(t, "GET", srv.URL+"/metrics", "")
	got := sumMetric(body, "femux_drift_score")
	if got <= 1 {
		t.Fatalf("drift score after regime change = %v, want > 1", got)
	}
	if want := svc.MaxDriftScore(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("gauge %v != MaxDriftScore %v", got, want)
	}
}
