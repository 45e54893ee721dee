package knative

import (
	"fmt"
	"math"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"github.com/ubc-cirrus-lab/femux-go/internal/store"
)

// splitShard is one femuxd of a test fleet: a service over a directory
// store, served over HTTP.
type splitShard struct {
	st  *store.Store
	srv *httptest.Server
}

func startSplitFleet(t *testing.T, dirs []string) []splitShard {
	t.Helper()
	model := muxModelA(t)
	fleet := make([]splitShard, len(dirs))
	for i, dir := range dirs {
		st, err := store.Open(dir, store.Options{Sync: store.SyncNever, CompactEvery: -1, InlineBudget: 4})
		if err != nil {
			t.Fatal(err)
		}
		svc := NewServiceWith(model, ServiceOptions{Store: st, ShardID: i, Shards: len(dirs), MaxHotApps: 3})
		fleet[i] = splitShard{st, httptest.NewServer(svc.Handler())}
	}
	return fleet
}

func stopSplitFleet(t *testing.T, fleet []splitShard) {
	t.Helper()
	for _, sh := range fleet {
		sh.srv.Close()
		if err := sh.st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSplitMatchesUnsplit resizes a stopped fleet with store.Split —
// 1->2, 2->3, 3->2 and 2->2, with cold apps, a snapshot and a WAL tail on
// every old shard — and restarts it at the new size. Every app, served by
// its new owner, must answer with the target, forecaster, forecast and
// quantile bands Float64bits-equal to an unsharded service that never
// restarted, before and after more traffic; totals are conserved, and
// each app's history lives only on its new owner.
func TestSplitMatchesUnsplit(t *testing.T) {
	for _, c := range []struct{ from, to int }{{1, 2}, {2, 3}, {3, 2}, {2, 2}} {
		t.Run(fmt.Sprintf("%d->%d", c.from, c.to), func(t *testing.T) {
			testSplitMatchesUnsplit(t, c.from, c.to)
		})
	}
}

func testSplitMatchesUnsplit(t *testing.T, from, to int) {
	ctl := httptest.NewServer(NewService(muxModelA(t)).Handler())
	defer ctl.Close()
	apps := make([]string, 16)
	for i := range apps {
		apps[i] = fmt.Sprintf("sp-%d", i)
	}
	minute := make([]int, len(apps))
	feed := func(fleet []splitShard, apps []string, minutes int) {
		for m := 0; m < minutes; m++ {
			for i, app := range apps {
				v := shapedValue(i, minute[i])
				minute[i]++
				mustObserve(t, fleet[store.ShardOf(app, len(fleet))].srv.URL, app, v)
				mustObserve(t, ctl.URL, app, v)
			}
		}
	}

	var srcs, dsts []string
	for i := 0; i < from; i++ {
		srcs = append(srcs, t.TempDir())
	}
	for i := 0; i < to; i++ {
		dsts = append(dsts, filepath.Join(t.TempDir(), "new"))
	}
	old := startSplitFleet(t, srcs)
	feed(old, apps, 40)
	for _, sh := range old {
		if err := sh.st.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	feed(old, apps[:5], 7) // the WAL tail
	var cold int
	for _, sh := range old {
		cold += sh.st.PagedApps()
	}
	if cold == 0 {
		t.Fatal("no app of the old fleet is cold: the inline budget is not paging")
	}
	stopSplitFleet(t, old)

	if _, err := store.Split(srcs, dsts); err != nil {
		t.Fatal(err)
	}
	fleet := startSplitFleet(t, dsts)
	defer stopSplitFleet(t, fleet)

	var total int64
	for j, sh := range fleet {
		total += sh.st.TotalObservations()
		for _, app := range apps {
			if held, owner := sh.st.Window(app) != nil, store.ShardOf(app, to); held != (owner == j) {
				t.Errorf("%s: on shard %d = %v, but its owner is %d", app, j, held, owner)
			}
		}
	}
	if want := int64(40*len(apps) + 7*5); total != want {
		t.Errorf("fleet total %d after the split, want %d", total, want)
	}

	compare := func(when string) {
		t.Helper()
		for _, app := range apps {
			url := fleet[store.ShardOf(app, to)].srv.URL
			want, got := fetchDecision(t, ctl.URL, app), fetchDecision(t, url, app)
			if got.target != want.target || got.forecast.Forecaster != want.forecast.Forecaster {
				t.Fatalf("%s: %s: target %+v forecaster %q, unsplit %+v %q", when, app,
					got.target, got.forecast.Forecaster, want.target, want.forecast.Forecaster)
			}
			for i, v := range want.forecast.Values {
				if math.Float64bits(got.forecast.Values[i]) != math.Float64bits(v) {
					t.Fatalf("%s: %s: forecast[%d] %v, unsplit %v", when, app, i, got.forecast.Values[i], v)
				}
			}
			wantQ, gotQ := fetchQuantileBands(t, ctl.URL, app), fetchQuantileBands(t, url, app)
			for q := range wantQ {
				for i, v := range wantQ[q].Values {
					if math.Float64bits(gotQ[q].Values[i]) != math.Float64bits(v) {
						t.Fatalf("%s: %s: p%g[%d] %v, unsplit %v", when, app, wantQ[q].Level*100, i, gotQ[q].Values[i], v)
					}
				}
			}
		}
	}
	compare("after the split")
	feed(fleet, apps, 25) // crosses a block boundary on the new shards
	compare("after more traffic")
}
