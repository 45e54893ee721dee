package knative

import (
	"fmt"
	"net/http/httptest"
	"testing"
)

// TestNeedStoreOnMemoryService pins the one durability check the service
// makes: the two endpoints that stream replicable state answer a
// memory-store instance with the 503 a femuxd started without -data-dir
// has always given, byte for byte, and a directory-backed instance with
// anything else.
func TestNeedStoreOnMemoryService(t *testing.T) {
	model := trainTinyModel(t)
	mem := httptest.NewServer(NewService(model).Handler())
	defer mem.Close()
	dir := httptest.NewServer(NewServiceWith(model, ServiceOptions{Store: openTestStore(t, t.TempDir())}).Handler())
	defer dir.Close()
	for _, srv := range []string{mem.URL, dir.URL} {
		mustObserve(t, srv, "known", 1)
	}

	const want = "no durable store (-data-dir) on this instance\n"
	for _, ep := range []struct{ method, path, body string }{
		{"GET", "/v1/replication/wal?seq=1&off=0", ""},
		{"GET", "/v1/replication/state", ""},
	} {
		resp, body := doReq(t, ep.method, mem.URL+ep.path, ep.body)
		if resp.StatusCode != 503 || body != want {
			t.Errorf("memory %s %s: %d %q, want 503 %q", ep.method, ep.path, resp.StatusCode, body, want)
		}
		if resp, body := doReq(t, ep.method, dir.URL+ep.path, ep.body); resp.StatusCode != 200 {
			t.Errorf("directory %s %s: %d %q, want 200", ep.method, ep.path, resp.StatusCode, body)
		}
	}
	// Status is not gated, and a memory instance now reports its total.
	if st := getStatus(t, mem.URL); st.Total != 1 || st.Apps != 1 {
		t.Errorf("memory status: total %d apps %d, want 1 and 1", st.Total, st.Apps)
	}
}

// TestMemoryServiceIsTieredLikeAnyOther pins what became uniform when the
// store-less warm map went: on a service without -data-dir an app the
// store holds is restored through the hot LRU and counts against
// MaxHotApps, Apps means "apps with at least one observation", and Status
// reports the observation total.
func TestMemoryServiceIsTieredLikeAnyOther(t *testing.T) {
	svc := NewServiceWith(trainTinyModel(t), ServiceOptions{MaxHotApps: 2})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	names := make([]string, 5)
	for i := range names {
		names[i] = fmt.Sprintf("stored-%d", i)
		seedWindow(t, svc.st, names[i], []float64{1, 2, 3})
	}
	// The store is the warm tier: nothing is installed beside the LRU.
	for _, name := range names {
		if materialized(svc, name) {
			t.Errorf("%s holds hot state the hot LRU does not track", name)
		}
	}
	for _, name := range names {
		if d := fetchDecision(t, srv.URL, name); d.target.History != 3 {
			t.Fatalf("%s: history %d, want the 3 stored observations", name, d.target.History)
		}
	}
	if hot := svc.HotApps(); hot != 2 {
		t.Errorf("hot apps = %d after serving 5 stored apps, want MaxHotApps = 2", hot)
	}
	if hot, warm, cold := svc.TierCounts(); hot != 2 || warm != 3 || cold != 0 {
		t.Errorf("TierCounts = (%d, %d, %d), want (2, 3, 0)", hot, warm, cold)
	}

	// A read of an app nobody observed materializes it but does not make
	// it part of the fleet.
	fetchDecision(t, srv.URL, "only-read")
	if got := svc.Apps(); got != 5 {
		t.Errorf("Apps = %d, want 5 (apps with an observation)", got)
	}
	mustObserve(t, srv.URL, "only-read", 4)
	if got := svc.Apps(); got != 6 {
		t.Errorf("Apps = %d after its first observation, want 6", got)
	}
	if st := svc.Status(); st.Total != 5*3+1 || st.Apps != 6 {
		t.Errorf("Status total %d apps %d, want 16 and 6", st.Total, st.Apps)
	}
}
