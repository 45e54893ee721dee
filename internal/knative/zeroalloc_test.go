package knative

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
)

// TestServiceTargetZeroAlloc asserts the serving-path satellite guarantee:
// once the borrowed workspace is warm and the app's block classification
// has happened, the observe->target computation — the work femuxd does once
// per app-minute — performs zero heap allocations. Only the computation is
// measured; HTTP decode/encode and the history append are outside the
// kernel contract.
func TestServiceTargetZeroAlloc(t *testing.T) {
	s := NewService(trainTinyModel(t))
	rng := rand.New(rand.NewSource(4))

	a := s.app("alloc-probe")
	a.mu.Lock()
	defer a.mu.Unlock()
	// 45 observations: one completed block (size 30), mid-block afterwards,
	// so the measured calls never cross a block boundary and re-classify.
	for i := 0; i < 45; i++ {
		a.history = append(a.history, 2+rng.Float64())
	}
	ws := forecast.NewWorkspace()
	a.policy.TargetWS(a.history, 1, ws)
	a.policy.TargetWS(a.history, 1, ws)
	allocs := testing.AllocsPerRun(50, func() {
		a.policy.TargetWS(a.history, 1, ws)
	})
	if allocs != 0 {
		t.Fatalf("steady-state target computation: %v allocs/op, want 0", allocs)
	}
}

// TestObserveHandlerAllocs bounds what a warm single observe allocates
// end to end inside the service handler: decode, fence, ownership check,
// commit, apply, decision and encode. The bound is the count before the
// single observe became a batch of one (go1.24); the observations cross
// block boundaries, so reclassification is in the average too.
func TestObserveHandlerAllocs(t *testing.T) {
	if poolDropsItems() {
		t.Skip("sync.Pool is dropping items (race detector)")
	}
	const parentAllocs = 4
	svc := NewService(trainTinyModel(t))
	body := []byte(`{"concurrency": 2, "unitConcurrency": 1}`)
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/apps/alloc/observe", nil)
	req.Body = io.NopCloser(rd)
	w := &discardWriter{h: http.Header{}}
	observe := func() {
		rd.Reset(body)
		clear(w.h)
		w.body = w.body[:0]
		svc.appsHandler(w, req)
	}
	for i := 0; i < 45; i++ {
		observe()
	}
	allocs := testing.AllocsPerRun(200, observe)
	if w.status != 0 && w.status != http.StatusOK {
		t.Fatalf("observe answered %d: %s", w.status, w.body)
	}
	if allocs > parentAllocs {
		t.Errorf("warm single observe: %v allocs/op, want at most %d", allocs, parentAllocs)
	}
}

// TestServiceQuantileTargetZeroAlloc extends the serving-path pin to the
// quantile decision: with -quantile-level set, the per-app-minute
// observe->target computation must stay allocation-free too (the level
// slice comes from the workspace, not the stack, so it cannot escape
// through the forecaster interface).
func TestServiceQuantileTargetZeroAlloc(t *testing.T) {
	s := NewServiceWith(trainTinyModel(t), ServiceOptions{QuantileLevel: 0.95})
	rng := rand.New(rand.NewSource(4))

	a := s.app("alloc-probe-q")
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := 0; i < 45; i++ {
		a.history = append(a.history, 2+rng.Float64())
	}
	ws := forecast.NewWorkspace()
	a.policy.TargetQuantilesWS(a.history, 1, s.qlevel, ws)
	a.policy.TargetQuantilesWS(a.history, 1, s.qlevel, ws)
	allocs := testing.AllocsPerRun(50, func() {
		a.policy.TargetQuantilesWS(a.history, 1, s.qlevel, ws)
	})
	if allocs != 0 {
		t.Fatalf("steady-state quantile target computation: %v allocs/op, want 0", allocs)
	}
}

// TestQuantileLevelZeroMatchesPointPath pins the knob's default: a
// service with QuantileLevel 0 must return exactly the targets the
// point path returns — flag-off is bit-for-bit the old behaviour.
func TestQuantileLevelZeroMatchesPointPath(t *testing.T) {
	m := trainTinyModel(t)
	svc := NewServiceWith(m, ServiceOptions{QuantileLevel: 0})
	ref := m.NewAppPolicy(0)
	var res [1]BatchItemResult
	var hist []float64
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 70; i++ {
		v := 0.0
		if i%10 < 2 {
			v = 2 + rng.Float64()
		}
		hist = append(hist, v)
		if _, err := svc.observe([]BatchObservation{{App: "equiv-app-q", Concurrency: v}}, res[:]); err != nil || res[0].Error != "" {
			t.Fatalf("obs %d: %v %s", i, err, res[0].Error)
		}
		if want := ref.Target(hist, 1); res[0].Target != want {
			t.Fatalf("obs %d: zero-level target %d, plain Target %d", i, res[0].Target, want)
		}
	}
}

// TestWireCodecAllocs bounds what the wire codec allocates on the batch
// path: decoding an N-item canonical batch copies out N app names and
// makes one slice (N+2 leaves the pool a miss), and encoding into a
// buffer that is already big enough allocates nothing.
func TestWireCodecAllocs(t *testing.T) {
	const n = 64
	req, resp := wireBenchBatch(n)
	doc, err := marshalWire(req)
	if err != nil {
		t.Fatal(err)
	}
	var into BatchObserveRequest
	allocs := testing.AllocsPerRun(50, func() {
		if err := decodeWire(bytes.NewReader(doc), &into); err != nil {
			t.Fatal(err)
		}
	})
	// bytes.NewReader is the test's own allocation.
	if allocs > n+2+1 {
		t.Errorf("decoding a %d-item batch: %v allocs, want at most %d", n, allocs, n+2)
	}
	if len(into.Observations) != n || into.Observations[n-1] != req.Observations[n-1] {
		t.Fatalf("decoded %d items, last %+v", len(into.Observations), into.Observations[n-1])
	}
	w := &wireBuf{b: make([]byte, 0, 16<<10)}
	for _, m := range []wireMessage{req, resp} {
		allocs := testing.AllocsPerRun(50, func() {
			w.b = w.b[:0]
			m.appendWire(w)
		})
		if allocs != 0 || w.bad {
			t.Errorf("encoding %T into a sized buffer: %v allocs (declined: %v), want 0", m, allocs, w.bad)
		}
	}
}
