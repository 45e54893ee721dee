package knative

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/ubc-cirrus-lab/femux-go/internal/femux"
	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
	"github.com/ubc-cirrus-lab/femux-go/internal/store"
)

// restartFleet is the stream TestRestartAtEveryStep replays: four apps,
// each with its own regime, and what each was sent.
type restartFleet struct {
	apps   []string
	stream [][]float64
}

func (f *restartFleet) next(i int) float64 {
	v := shapedValue(i, len(f.stream[i]))
	f.stream[i] = append(f.stream[i], v)
	return v
}

// restartNode is one service and its store. A shard's node is served
// behind an indirection, so the service restarted in its place answers
// at the same URL.
type restartNode struct {
	svc *Service
	st  *store.Store
	dir string // "" for a memory store
}

// restartSubject is what TestRestartAtEveryStep drives: one service, or
// a fleet of shards behind a ShardRouter; srv is what clients call.
type restartSubject struct {
	nodes  []*restartNode
	srv    *httptest.Server
	models []*femux.Model
	cur    int // the model every node serves
}

// restartStep is one step of the schedule. It runs on the control and on
// the subject with the same values.
type restartStep struct {
	name string
	run  func(t *testing.T, f *restartFleet, subjects ...*restartSubject)
}

func observeStep(rounds int) restartStep {
	return restartStep{fmt.Sprintf("observe_%d", rounds), func(t *testing.T, f *restartFleet, subjects ...*restartSubject) {
		for r := 0; r < rounds; r++ {
			for i, app := range f.apps {
				v := f.next(i)
				for _, s := range subjects {
					if code := postObserve(t, s.srv.URL, app, v); code != 200 {
						t.Fatalf("observe %s: HTTP %d", app, code)
					}
				}
			}
		}
	}}
}

func batchStep(rounds int) restartStep {
	return restartStep{fmt.Sprintf("batch_%d", rounds), func(t *testing.T, f *restartFleet, subjects ...*restartSubject) {
		var obs []BatchObservation
		for r := 0; r < rounds; r++ {
			for i, app := range f.apps {
				obs = append(obs, BatchObservation{App: app, Concurrency: f.next(i)})
			}
		}
		body := marshalBatch(t, obs...)
		for _, s := range subjects {
			if resp, out := postBatchJSON(t, s.srv.URL, body); resp.StatusCode != 200 || out.Accepted != len(obs) {
				t.Fatalf("batch: HTTP %d, %d of %d accepted", resp.StatusCode, out.Accepted, len(obs))
			}
		}
	}}
}

// storeStep runs op on every node's store (a page-out of an app a shard
// does not hold does nothing).
func storeStep(name string, op func(st *store.Store) error) restartStep {
	return restartStep{name, func(t *testing.T, _ *restartFleet, subjects ...*restartSubject) {
		for _, s := range subjects {
			for _, n := range s.nodes {
				if err := op(n.st); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
	}}
}

var swapStep = restartStep{"swap_model", func(t *testing.T, _ *restartFleet, subjects ...*restartSubject) {
	for _, s := range subjects {
		s.cur = 1 - s.cur
		for _, n := range s.nodes {
			if err := n.svc.SwapModel(s.models[s.cur]); err != nil {
				t.Fatal(err)
			}
		}
	}
}}

// TestRestartAtEveryStep pins restart as the recovery path. The subject,
// on directory stores with SyncAlways, runs a schedule of observes,
// batches, page-outs, a compaction and a model swap. After each step k
// it is killed: its Service and store (shard 0's, for a fleet) are
// abandoned without Close, as kill -9 leaves them, the directory is
// reopened and a new Service is built on it with the model the directory
// holds, which must be the one the old service served. The store must
// hold exactly the acked stream, and every app's
// first target, forecaster, forecast and quantile bands must be
// Float64bits-equal to a control that never restarted and saw the same
// stream; so must they after the rest of the schedule. The subject is a
// service with 2 hot apps; one whose store keeps 1 app's window in
// memory and pages the rest; one provisioning p90 targets; and a fleet
// of 2 shards behind a ShardRouter.
func TestRestartAtEveryStep(t *testing.T) {
	models := []*femux.Model{muxModelA(t), muxModelB(t)}
	apps := []string{"rs-0", "rs-1", "rs-2", "rs-3"}
	owned := 0 // by shard 0 of 2, the one killed in the fleet
	for _, app := range apps {
		if store.ShardOf(app, 2) == 0 {
			owned++
		}
	}
	if owned == 0 || owned == len(apps) {
		t.Fatalf("setup: shard 0 of 2 owns %d of the %d apps", owned, len(apps))
	}
	pageOut := func(app string) func(st *store.Store) error {
		return func(st *store.Store) error { return st.PageOut(app) }
	}
	steps := []restartStep{
		batchStep(40),
		observeStep(3),
		storeStep("page_out", pageOut("rs-1")),
		batchStep(12),
		storeStep("compact", (*store.Store).Compact),
		observeStep(2),
		swapStep,
		batchStep(20),
		storeStep("page_out", pageOut("rs-3")),
		observeStep(4),
	}
	for _, v := range []struct {
		name   string
		so     ServiceOptions
		budget int // the store's InlineBudget
		shards int
	}{
		{"hot_budget", ServiceOptions{MaxHotApps: 2}, 0, 1},
		{"warm_budget", ServiceOptions{MaxHotApps: 1}, 1, 1},
		{"p90_targets", ServiceOptions{QuantileLevel: 0.9}, 0, 1},
		{"two_shards", ServiceOptions{MaxHotApps: 1}, 0, 2},
	} {
		t.Run(v.name, func(t *testing.T) {
			opt := store.Options{Sync: store.SyncAlways, CompactEvery: -1, InlineBudget: v.budget}
			for k := 0; k <= len(steps); k++ {
				name := "before_any_step"
				if k > 0 {
					name = fmt.Sprintf("after_%d_%s", k, steps[k-1].name)
				}
				t.Run(name, func(t *testing.T) {
					f := &restartFleet{apps: apps, stream: make([][]float64, len(apps))}
					control := newRestartSubject(t, models, ServiceOptions{QuantileLevel: v.so.QuantileLevel}, nil, 1)
					subject := newRestartSubject(t, models, v.so, &opt, v.shards)
					for _, step := range steps[:k] {
						step.run(t, f, control, subject)
					}
					// kill -9: nothing is closed, flushed or compacted.
					subject.restart(t, 0, v.so, opt)
					checkDurable(t, f, subject)
					compareRestarted(t, "after the restart", f, control, subject)
					for _, step := range steps[k:] {
						step.run(t, f, control, subject)
					}
					checkDurable(t, f, subject)
					compareRestarted(t, "after more traffic", f, control, subject)
				})
			}
		})
	}
}

// newRestartSubject serves models[0] from shards nodes, on directory
// stores opened with *opt and seeded with it, as femuxd's first boot
// seeds a directory, or from one node on a memory store when opt is nil.
// A fleet is served through a ShardRouter.
func newRestartSubject(t *testing.T, models []*femux.Model, so ServiceOptions, opt *store.Options, shards int) *restartSubject {
	s := &restartSubject{models: models}
	urls := make([]string, shards)
	for i := 0; i < shards; i++ {
		n := &restartNode{st: store.OpenMemory()}
		if opt != nil {
			n.dir = t.TempDir()
			st, err := store.Open(n.dir, *opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.SaveModel(modelBytes(t, models[0])); err != nil {
				t.Fatal(err)
			}
			n.st = st
		}
		so := so
		so.Store, so.ShardID, so.Shards = n.st, i, shards
		n.svc = NewServiceWith(models[0], so)
		s.nodes = append(s.nodes, n)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			n.svc.Handler().ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		s.srv, urls[i] = srv, srv.URL
	}
	if shards > 1 {
		rt, err := NewShardRouter(urls, nil)
		if err != nil {
			t.Fatal(err)
		}
		s.srv = httptest.NewServer(rt.Handler())
		t.Cleanup(s.srv.Close)
	}
	return s
}

// restart abandons node i's service and store, reopens its directory and
// serves a new service on it, with the model the directory holds: the
// one the old service served, byte for byte.
func (s *restartSubject) restart(t *testing.T, i int, so ServiceOptions, opt store.Options) {
	n := s.nodes[i]
	st, err := store.Open(n.dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if !bytes.Equal(st.Model(), modelBytes(t, s.models[s.cur])) {
		t.Fatal("the restarted directory does not hold the model its service served")
	}
	m, err := femux.Load(bytes.NewReader(st.Model()), forecast.NewMovingAverage(1))
	if err != nil {
		t.Fatal(err)
	}
	so.Store, so.ShardID, so.Shards = st, i, len(s.nodes)
	n.st, n.svc = st, NewServiceWith(m, so)
}

// modelBytes is m as a store holds it.
func modelBytes(t testing.TB, m *femux.Model) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := m.Save(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// checkDurable requires the subject's stores to hold exactly what was
// acked.
func checkDurable(t *testing.T, f *restartFleet, s *restartSubject) {
	t.Helper()
	acked, durable := 0, int64(0)
	for _, n := range s.nodes {
		durable += n.st.TotalObservations()
	}
	for i, app := range f.apps {
		acked += len(f.stream[i])
		var got []float64
		for _, n := range s.nodes {
			got = append(got, n.st.Window(app)...)
		}
		if !bitsEqual(got, f.stream[i]) {
			t.Fatalf("%s: %v durable, %v acked", app, got, f.stream[i])
		}
	}
	if durable != int64(acked) {
		t.Fatalf("%d observations durable, %d acked", durable, acked)
	}
}

// compareRestarted requires every app's target, forecaster, forecast and
// quantile bands from got to be Float64bits-equal to want's.
func compareRestarted(t *testing.T, when string, f *restartFleet, want, got *restartSubject) {
	t.Helper()
	for _, app := range f.apps {
		a, b := fetchDecision(t, want.srv.URL, app), fetchDecision(t, got.srv.URL, app)
		if a.target != b.target {
			t.Fatalf("%s: %s: target %+v, control %+v", when, app, b.target, a.target)
		}
		if a.forecast.Forecaster != b.forecast.Forecaster || !bitsEqual(a.forecast.Values, b.forecast.Values) {
			t.Fatalf("%s: %s: forecast %s %v, control %s %v", when, app,
				b.forecast.Forecaster, b.forecast.Values, a.forecast.Forecaster, a.forecast.Values)
		}
		qa, qb := fetchQuantileBands(t, want.srv.URL, app), fetchQuantileBands(t, got.srv.URL, app)
		if len(qa) != len(qb) {
			t.Fatalf("%s: %s: %d quantile bands, control %d", when, app, len(qb), len(qa))
		}
		for q := range qa {
			if qa[q].Level != qb[q].Level || !bitsEqual(qa[q].Values, qb[q].Values) {
				t.Fatalf("%s: %s: band %v, control %v", when, app, qb[q], qa[q])
			}
		}
	}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
