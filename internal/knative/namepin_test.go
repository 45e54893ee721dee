package knative

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"unsafe"

	"github.com/ubc-cirrus-lab/femux-go/internal/store"
)

// TestAppNamesPinNoRequest creates an app by an HTTP observe, then
// restores it by another, once from the warm tier and once from its page.
// The name a handler reads is a substring of its request's URL; after
// each observe, neither the hot tier's key and entry name nor the store's
// key may point into that request's bytes, which the app would keep alive
// for as long as it lives, and the hot tier must share the store's key
// rather than keep a copy of its own.
func TestAppNamesPinNoRequest(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	svc := NewServiceWith(trainTinyModel(t), ServiceOptions{Store: st})
	h := svc.Handler()
	const app = "pinned-app"
	within := func(s, buf string) bool {
		p, b := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(buf)))
		return p >= b && p < b+uintptr(len(buf))
	}
	observe := func(when string) {
		t.Helper()
		target := strings.Clone("/v1/apps/" + app + "/observe") // this request's own bytes
		req, err := http.NewRequest(http.MethodPost, target, strings.NewReader(`{"concurrency": 1.5}`))
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: observe answered %d: %s", when, rec.Code, rec.Body)
		}
		names := st.AppNames() // the store's own keys, not copies
		if len(names) != 1 {
			t.Fatalf("%s: the store holds %q", when, names)
		}
		if within(names[0], target) {
			t.Errorf("%s: the store's key of %q points into the request", when, names[0])
		}
		stored := unsafe.StringData(names[0])
		svc.tier.mu.Lock()
		for key, a := range svc.tier.apps {
			if within(key, target) || within(a.name, target) {
				t.Errorf("%s: the hot tier's name of %q points into the request", when, key)
			}
			if unsafe.StringData(key) != stored || unsafe.StringData(a.name) != stored {
				t.Errorf("%s: the hot tier keeps a copy of %q apart from the store's key", when, key)
			}
		}
		svc.tier.mu.Unlock()
	}
	observe("created")
	svc.dropCached(app)
	observe("restored from the warm tier")
	svc.dropCached(app)
	if err := st.PageOut(app); err != nil {
		t.Fatal(err)
	}
	if st.PagedApps() != 1 {
		t.Fatalf("%d apps paged out, want 1", st.PagedApps())
	}
	observe("restored from its page")
}
