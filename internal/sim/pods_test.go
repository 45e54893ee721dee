package sim

import (
	"math"
	"testing"
	"time"
)

// TestFleetScaleDownReapsLongestIdleFirst pins scale-down's choice: only
// idle, ready pods go, longest idle first, and a target above the live
// count provisions pods that serve after the cold start.
func TestFleetScaleDownReapsLongestIdleFirst(t *testing.T) {
	s := time.Second
	f := newFleet(1, 1, 2*s, 0)
	older := f.spawn(0, 0)
	older.idleSince = 1 * s
	newer := f.spawn(0, 0)
	newer.idleSince = 5 * s
	busy := f.spawn(0, 0)
	f.start(busy, 2*s, time.Hour)
	provisioning := f.spawn(9*s, 20*s)

	f.scale(3, 10*s)
	if !older.dead {
		t.Error("the longest-idle pod survived scale-down")
	}
	if newer.dead || busy.dead || provisioning.dead {
		t.Errorf("scale-down to 3 reaped more than one pod: newer %v busy %v provisioning %v",
			newer.dead, busy.dead, provisioning.dead)
	}
	if n := f.alive(); n != 3 {
		t.Errorf("alive = %d after reaping 1 of 4 pods, want 3", n)
	}

	f.scale(0, 11*s)
	if !newer.dead {
		t.Error("the last idle pod survived scale-down to zero")
	}
	if n := f.alive(); n != 2 {
		t.Errorf("alive = %d, want the busy and provisioning pods", n)
	}

	f.scale(5, 12*s)
	if n := f.alive(); n != 5 {
		t.Fatalf("alive = %d after scaling up to 5", n)
	}
	for _, pd := range f.pods[2:] {
		if pd.aliveFrom != 12*s || pd.readyAt != 14*s {
			t.Errorf("new pod alive from %v, ready at %v; want 12s and 14s", pd.aliveFrom, pd.readyAt)
		}
	}
}

// TestFleetReapChargesMemory pins reap's accounting: a pod's whole life
// is allocated, and the part its requests did not fill, in slots of the
// concurrency limit, is wasted.
func TestFleetReapChargesMemory(t *testing.T) {
	s := time.Second
	f := newFleet(2, 0.5, 0, 1)
	pd := f.pods[0]
	f.start(pd, 2*s, 4*s) // one of two slots busy for 4 s: 2 s of pod time used
	c, ok := f.due(5 * s)
	if ok {
		t.Fatalf("completion at %v popped before it was due", c.at)
	}
	c, ok = f.due(6 * s)
	if !ok || c.at != 6*s || c.pod != pd {
		t.Fatalf("due(6s) = %+v, %v; want the request ending at 6s", c, ok)
	}
	f.end(c)
	if pd.busy != 0 || f.inFlight != 0 || pd.idleSince != 6*s {
		t.Errorf("after end: busy %d, in flight %d, idle since %v", pd.busy, f.inFlight, pd.idleSince)
	}
	f.close(10 * s)
	if !pd.dead {
		t.Fatal("close left the pod alive")
	}
	if got, want := f.sample.AllocatedGBSec, 10*0.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("allocated = %v GB-s, want %v", got, want)
	}
	if got, want := f.sample.WastedGBSec, (10-2)*0.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("wasted = %v GB-s, want %v", got, want)
	}
}

// TestFleetCloseChargesEachPodOnce reaps pods by scale-down and the rest
// at the horizon: every pod is charged for its own life, once.
func TestFleetCloseChargesEachPodOnce(t *testing.T) {
	s := time.Second
	f := newFleet(1, 1, s, 2) // two pods from time zero
	f.scale(0, 4*s)           // both idle: both reaped at 4 s
	f.scale(1, 6*s)           // one pod provisioned at 6 s
	f.close(10 * s)
	f.close(10 * s) // a second close finds nothing alive
	if got, want := f.sample.AllocatedGBSec, 4.0+4.0+4.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("allocated = %v GB-s, want %v", got, want)
	}
	if got := f.sample.WastedGBSec; math.Abs(got-f.sample.AllocatedGBSec) > 1e-9 {
		t.Errorf("wasted = %v GB-s of %v allocated; no request ran", got, f.sample.AllocatedGBSec)
	}
	if n := f.alive(); n != 0 {
		t.Errorf("alive = %d after close", n)
	}
}
