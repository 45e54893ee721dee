package knative

import (
	"fmt"
	"net/http/httptest"
	"testing"
)

// TestMemoryServiceIsTieredLikeAnyOther pins what became uniform when the
// store-less warm map went: on a service without -data-dir an app the
// store holds is restored through the hot LRU and counts against
// MaxHotApps, Apps means "apps with at least one observation", and the
// store holds the observation total.
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
	if total := svc.st.TotalObservations(); total != 5*3+1 {
		t.Errorf("store total %d, want 16", total)
	}
}
