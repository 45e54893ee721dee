package knative

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/store"
)

// The knative-layer failover and resharding suite: the store-level
// fault-injection tests (internal/store) prove the replication protocol
// byte by byte; these tests prove the HTTP plumbing on top of it — a
// Replicator tailing a live primary over the wire, router-driven
// promotion, and a 2 -> 3 reshard under live traffic — all against the
// same bit-identical-forecast yardstick.

func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{Sync: store.SyncNever, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func postObserve(t *testing.T, baseURL, app string, conc float64) int {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/apps/"+app+"/observe", "application/json",
		strings.NewReader(fmt.Sprintf(`{"concurrency": %g}`, conc)))
	if err != nil {
		t.Fatalf("observe %s: %v", app, err)
	}
	defer resp.Body.Close()
	return resp.StatusCode
}

func mustObserve(t *testing.T, baseURL, app string, conc float64) {
	t.Helper()
	if code := postObserve(t, baseURL, app, conc); code != http.StatusOK {
		t.Fatalf("observe %s via %s: HTTP %d", app, baseURL, code)
	}
}

// observeWithRetry keeps retrying one observation until the fleet
// accepts it — the client-side behavior femux-load -retry implements —
// and fails the test if it never lands within the deadline.
func observeWithRetry(t *testing.T, baseURL, app string, conc float64, deadline time.Duration) {
	t.Helper()
	limit := time.Now().Add(deadline)
	for {
		if code := postObserve(t, baseURL, app, conc); code == http.StatusOK {
			return
		}
		if time.Now().After(limit) {
			t.Fatalf("observe %s: not accepted within %s", app, deadline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func getStatus(t *testing.T, baseURL string) ReplStatus {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/replication/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ReplStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitCaughtUp(t *testing.T, r *Replicator, primary, follower *store.Store, deadline time.Duration) {
	t.Helper()
	limit := time.Now().Add(deadline)
	for {
		up, _ := r.CaughtUp()
		if up && follower.TotalObservations() == primary.TotalObservations() {
			return
		}
		if time.Now().After(limit) {
			up, lastErr := r.CaughtUp()
			t.Fatalf("follower not caught up within %s: caughtUp=%v lastErr=%v follower=%d primary=%d",
				deadline, up, lastErr, follower.TotalObservations(), primary.TotalObservations())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// assertDecisionsIdentical compares every app's target and forecast
// between two serving endpoints, bit for bit.
func assertDecisionsIdentical(t *testing.T, apps []string, wantURL, gotURL string) {
	t.Helper()
	for _, app := range apps {
		want, got := fetchDecision(t, wantURL, app), fetchDecision(t, gotURL, app)
		if want.target.Target != got.target.Target || want.target.History != got.target.History {
			t.Errorf("%s: target %+v != %+v", app, want.target, got.target)
		}
		if want.forecast.Forecaster != got.forecast.Forecaster {
			t.Errorf("%s: forecaster %s != %s", app, want.forecast.Forecaster, got.forecast.Forecaster)
		}
		if len(want.forecast.Values) != len(got.forecast.Values) {
			t.Fatalf("%s: forecast lengths %d != %d", app, len(want.forecast.Values), len(got.forecast.Values))
		}
		for i := range want.forecast.Values {
			if math.Float64bits(want.forecast.Values[i]) != math.Float64bits(got.forecast.Values[i]) {
				t.Errorf("%s: forecast[%d] %v != %v (not bit-identical)",
					app, i, want.forecast.Values[i], got.forecast.Values[i])
			}
		}
	}
}

// TestReplicaFailoverE2E is the wire-level failover test: a follower
// femuxd tails a live primary over HTTP (including a snapshot bootstrap
// across a compaction gap), stays 503-gated the whole time, and after
// the primary dies and the follower is promoted it serves bit-identical
// forecasts to an unkilled control — then accepts new writes as the
// primary.
func TestReplicaFailoverE2E(t *testing.T) {
	model := trainTinyModel(t)
	apps := []string{"alpha", "beta", "gamma", "delta"}

	pst := openTestStore(t, t.TempDir())
	psvc := NewServiceWith(model, ServiceOptions{Store: pst})
	psrv := httptest.NewServer(psvc.Handler())
	defer psrv.Close()

	ctl := httptest.NewServer(NewService(model).Handler())
	defer ctl.Close()

	feed := func(url string, round int) {
		for i, app := range apps {
			mustObserve(t, url, app, float64(round*len(apps)+i)*0.375+0.25)
		}
	}

	// Phase 1: history the replicator will have to bootstrap — appended
	// and then compacted away before the follower ever connects.
	for r := 0; r < 10; r++ {
		feed(psrv.URL, r)
		feed(ctl.URL, r)
	}
	if err := pst.Compact(); err != nil {
		t.Fatal(err)
	}
	for r := 10; r < 13; r++ {
		feed(psrv.URL, r)
		feed(ctl.URL, r)
	}

	fst := openTestStore(t, t.TempDir())
	fsvc := NewServiceWith(model, ServiceOptions{Store: fst, Replica: true})
	fsrv := httptest.NewServer(fsvc.Handler())
	defer fsrv.Close()

	repl := NewReplicator(fst, psrv.URL, nil)
	repl.Interval = 2 * time.Millisecond
	replStopped := false
	defer func() {
		if !replStopped {
			repl.Stop()
		}
	}()
	repl.Start()
	waitCaughtUp(t, repl, pst, fst, 10*time.Second)

	// The gate: an unpromoted replica serves nothing and accepts nothing.
	if code := postObserve(t, fsrv.URL, "alpha", 1.0); code != http.StatusServiceUnavailable {
		t.Fatalf("replica accepted an observe with HTTP %d, want 503", code)
	}
	resp, out := postBatchJSON(t, fsrv.URL, marshalBatch(t, BatchObservation{App: "alpha", Concurrency: 1}))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("replica accepted a batch with HTTP %d (%+v), want 503", resp.StatusCode, out)
	}

	// More live traffic while the follower tails.
	for r := 13; r < 18; r++ {
		feed(psrv.URL, r)
		feed(ctl.URL, r)
	}
	waitCaughtUp(t, repl, pst, fst, 10*time.Second)

	pstat, fstat := getStatus(t, psrv.URL), getStatus(t, fsrv.URL)
	if pstat.Replica || !fstat.Replica {
		t.Fatalf("status roles wrong: primary.Replica=%v follower.Replica=%v", pstat.Replica, fstat.Replica)
	}
	if fstat.Cursor == nil {
		t.Fatal("follower status has no replication cursor")
	}
	if pstat.Total != fstat.Total {
		t.Fatalf("status totals diverge: primary=%d follower=%d", pstat.Total, fstat.Total)
	}

	// Kill the primary; promote the follower (the femuxd glue stops the
	// replicator first — mirrored here).
	psrv.Close()
	repl.Stop()
	replStopped = true
	for i := 0; i < 2; i++ { // promote is idempotent
		resp, err := http.Post(fsrv.URL+"/v1/admin/promote", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("promote attempt %d: HTTP %d", i, resp.StatusCode)
		}
	}
	if fsvc.Promotions() != 1 {
		t.Fatalf("promotions = %d, want 1 (second promote must be a no-op)", fsvc.Promotions())
	}

	// The promoted follower must forecast exactly as the never-killed
	// control does, and accept new writes.
	assertDecisionsIdentical(t, apps, ctl.URL, fsrv.URL)
	for r := 18; r < 21; r++ {
		feed(fsrv.URL, r)
		feed(ctl.URL, r)
	}
	mustObserve(t, fsrv.URL, "epsilon", 2.5)
	mustObserve(t, ctl.URL, "epsilon", 2.5)
	assertDecisionsIdentical(t, append(apps, "epsilon"), ctl.URL, fsrv.URL)
}

// TestBootstrapRefusesOverCapBody: a /v1/replication/state body longer
// than the follower's read cap is refused whole. The cap here ends exactly
// after the first of two app records, where a follower that imported what
// it read would install one app and a cursor, and lose the other app at
// failover. The step must fail and leave the follower with no app and no
// cursor; under the real cap the same step imports both.
func TestBootstrapRefusesOverCapBody(t *testing.T) {
	pst := openTestStore(t, t.TempDir())
	// Equal-length records, so the cut is on a record boundary whichever
	// app the primary writes first.
	for i := 0; i < 8; i++ {
		for _, app := range []string{"app-a", "app-b"} {
			if err := pst.Append(app, float64(i)*0.5); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := pst.Compact(); err != nil { // the follower's 1:0 is gone: 410, then /state
		t.Fatal(err)
	}
	psrv := httptest.NewServer(NewServiceWith(trainTinyModel(t), ServiceOptions{Store: pst}).Handler())
	defer psrv.Close()

	body, _, err := pst.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	frame := func(off int) int { return 8 + int(binary.LittleEndian.Uint32(body[off:])) }
	magic := frame(0)
	record := frame(magic)
	if len(body) != magic+2*record {
		t.Fatalf("state body of %d bytes is not a magic of %d and two %d-byte records", len(body), magic, record)
	}
	realCap := maxStateBytes
	defer func() { maxStateBytes = realCap }()
	maxStateBytes = int64(magic + record)

	fst := openTestStore(t, t.TempDir())
	r := NewReplicator(fst, psrv.URL, nil)
	_, err = r.step()
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(len(body))) || !strings.Contains(err.Error(), fmt.Sprint(maxStateBytes)) {
		t.Fatalf("step over the cap = %v, want an error naming %d and %d bytes", err, len(body), maxStateBytes)
	}
	if _, ok := fst.ReplCursor(); ok || fst.Apps() != 0 {
		t.Fatalf("follower holds %d apps (cursor set: %v) after a refused body", fst.Apps(), ok)
	}

	maxStateBytes = realCap
	if _, err := r.step(); err != nil {
		t.Fatal(err)
	}
	if _, ok := fst.ReplCursor(); !ok || fst.Apps() != 2 || fst.TotalObservations() != 16 {
		t.Fatalf("bootstrap under the real cap: %d apps, %d observations, cursor set %v",
			fst.Apps(), fst.TotalObservations(), ok)
	}
}

// TestRouterFailoverPromotesReplica drives the full HA loop: traffic
// flows through the router to a primary|replica shard group, the primary
// dies mid-run, the health loop detects it and promotes the replica, and
// traffic resumes against it — with every acknowledged observation
// intact and forecasts bit-identical to an unkilled control.
func TestRouterFailoverPromotesReplica(t *testing.T) {
	model := trainTinyModel(t)
	apps := []string{"svc-a", "svc-b", "svc-c"}

	pst := openTestStore(t, t.TempDir())
	psvc := NewServiceWith(model, ServiceOptions{Store: pst})
	psrv := httptest.NewServer(psvc.Handler())
	defer psrv.Close()

	rst := openTestStore(t, t.TempDir())
	rsvc := NewServiceWith(model, ServiceOptions{Store: rst, Replica: true})
	rsrv := httptest.NewServer(rsvc.Handler())
	defer rsrv.Close()

	ctl := httptest.NewServer(NewService(model).Handler())
	defer ctl.Close()

	repl := NewReplicator(rst, psrv.URL, nil)
	repl.Interval = 2 * time.Millisecond
	repl.Start()
	defer repl.Stop()

	rt, err := NewShardRouter([]string{psrv.URL + "|" + rsrv.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	stopHealth := rt.StartHealthLoop(5*time.Millisecond, 2)
	defer stopHealth()

	acked := 0
	for r := 0; r < 10; r++ {
		for i, app := range apps {
			v := float64(r*len(apps)+i)*0.5 + 0.125
			mustObserve(t, front.URL, app, v)
			mustObserve(t, ctl.URL, app, v)
			acked++
		}
	}
	waitCaughtUp(t, repl, pst, rst, 10*time.Second)

	// Primary dies. The health loop must notice and promote the replica;
	// the client just retries until the fleet answers again.
	psrv.Close()
	for r := 10; r < 16; r++ {
		for i, app := range apps {
			v := float64(r*len(apps)+i)*0.5 + 0.125
			observeWithRetry(t, front.URL, app, v, 10*time.Second)
			mustObserve(t, ctl.URL, app, v)
			acked++
		}
	}
	if rsvc.Promotions() != 1 {
		t.Fatalf("replica promotions = %d, want 1", rsvc.Promotions())
	}
	if got := rst.TotalObservations(); got != int64(acked) {
		t.Fatalf("promoted replica holds %d durable observations, want every acked = %d", got, acked)
	}
	assertDecisionsIdentical(t, apps, ctl.URL, front.URL)
}

// TestBatchItemDegradation pins satellite behavior: a dead shard
// degrades that slice of a routed batch to per-item 503s (retryable,
// the healthy shard still commits), while a misrouted app posted
// directly to the wrong instance gets a per-item 421 naming its owner.
func TestBatchItemDegradation(t *testing.T) {
	model := trainTinyModel(t)
	svcs := make([]*Service, 2)
	urls := make([]string, 2)
	srvs := make([]*httptest.Server, 2)
	for i := range svcs {
		svcs[i] = NewServiceWith(model, ServiceOptions{ShardID: i, Shards: 2})
		srvs[i] = httptest.NewServer(svcs[i].Handler())
		defer srvs[i].Close()
		urls[i] = srvs[i].URL
	}
	rt, err := NewShardRouter(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// One app per shard.
	var app0, app1 string
	for i := 0; app0 == "" || app1 == ""; i++ {
		name := fmt.Sprintf("deg-%d", i)
		if store.ShardOf(name, 2) == 0 && app0 == "" {
			app0 = name
		} else if store.ShardOf(name, 2) == 1 && app1 == "" {
			app1 = name
		}
	}

	// Direct misroute: per-item 421 with the owner identified.
	resp, out := postBatchJSON(t, urls[0], marshalBatch(t,
		BatchObservation{App: app0, Concurrency: 1},
		BatchObservation{App: app1, Concurrency: 1}))
	if resp.StatusCode != http.StatusOK || out.Accepted != 1 || out.Rejected != 1 {
		t.Fatalf("direct misroute: status=%d accepted=%d rejected=%d", resp.StatusCode, out.Accepted, out.Rejected)
	}
	mis := out.Results[1]
	if mis.Status != http.StatusMisdirectedRequest || mis.Owner == nil || *mis.Owner != 1 {
		t.Fatalf("misrouted item = %+v, want Status 421 Owner 1", mis)
	}

	// Dead shard behind the router: that slice degrades to per-item 503,
	// the live shard's slice still commits.
	srvs[1].Close()
	resp, out = postBatchJSON(t, front.URL, marshalBatch(t,
		BatchObservation{App: app0, Concurrency: 2},
		BatchObservation{App: app1, Concurrency: 2}))
	if resp.StatusCode != http.StatusOK || out.Accepted != 1 || out.Rejected != 1 {
		t.Fatalf("dead shard: status=%d accepted=%d rejected=%d", resp.StatusCode, out.Accepted, out.Rejected)
	}
	dead := out.Results[1]
	if dead.Status != http.StatusServiceUnavailable || dead.Error == "" {
		t.Fatalf("dead-shard item = %+v, want Status 503 with error", dead)
	}
	if live := out.Results[0]; live.Error != "" {
		t.Fatalf("live-shard item rejected alongside the dead shard: %+v", live)
	}
}
