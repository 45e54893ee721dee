package sim

import (
	"container/heap"
	"sort"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/rum"
)

// pod models one compute unit.
type pod struct {
	readyAt    time.Duration // when the pod can first serve
	busy       int           // in-flight requests
	idleSince  time.Duration // valid when busy == 0
	aliveFrom  time.Duration
	busySlotNS float64 // integral of busy slots over time, in ns-slots
	lastChange time.Duration
	dead       bool
}

func (p *pod) accrue(now time.Duration) {
	if now > p.lastChange {
		p.busySlotNS += float64(p.busy) * float64(now-p.lastChange)
		p.lastChange = now
	}
}

// completion is a scheduled request finish on a pod.
type completion struct {
	at  time.Duration
	pod *pod
}

type completionHeap []completion

func (h completionHeap) Len() int            { return len(h) }
func (h completionHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h completionHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *completionHeap) Push(x interface{}) { *h = append(*h, x.(completion)) }
func (h *completionHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// fleet is one app's pods and the requests running on them: the Knative
// emulator's data plane. Its sample accrues the app's memory charges as
// pods are reaped; the caller adds the per-request fields.
type fleet struct {
	pods      []*pod
	comps     completionHeap
	inFlight  int // executing requests
	unitC     int // requests one pod serves at once
	memoryGB  float64
	coldStart time.Duration
	sample    rum.Sample
}

// newFleet returns a fleet holding minScale pods, ready from time zero.
// A unitConcurrency below 1 is 1.
func newFleet(unitConcurrency int, memoryGB float64, coldStart time.Duration, minScale int) *fleet {
	f := &fleet{unitC: max(unitConcurrency, 1), memoryGB: memoryGB, coldStart: coldStart}
	for i := 0; i < minScale; i++ {
		f.spawn(0, 0)
	}
	return f
}

// spawn adds a pod provisioned at now that can serve from readyAt.
func (f *fleet) spawn(now, readyAt time.Duration) *pod {
	pd := &pod{readyAt: readyAt, idleSince: readyAt, aliveFrom: now, lastChange: now}
	f.pods = append(f.pods, pd)
	return pd
}

// start runs a request of length d on pd from at.
func (f *fleet) start(pd *pod, at, d time.Duration) {
	pd.accrue(at)
	pd.busy++
	f.inFlight++
	heap.Push(&f.comps, completion{at: at + d, pod: pd})
}

// due pops the earliest request that finishes by now. The caller
// settles its own time-weighted counters at c.at, then calls end.
func (f *fleet) due(now time.Duration) (c completion, ok bool) {
	if f.comps.Len() == 0 || f.comps[0].at > now {
		return completion{}, false
	}
	return heap.Pop(&f.comps).(completion), true
}

// end frees the slot c held.
func (f *fleet) end(c completion) {
	c.pod.accrue(c.at)
	c.pod.busy--
	f.inFlight--
	if c.pod.busy == 0 {
		c.pod.idleSince = c.at
	}
}

// reap removes pd at now and charges its memory-time: all of it as
// allocated, and what its requests did not use (busy slots over the
// concurrency limit) as wasted.
func (f *fleet) reap(pd *pod, now time.Duration) {
	pd.accrue(now)
	pd.dead = true
	aliveSec := (now - pd.aliveFrom).Seconds()
	usedSec := pd.busySlotNS / float64(time.Second) / float64(f.unitC)
	f.sample.AllocatedGBSec += aliveSec * f.memoryGB
	if w := (aliveSec - usedSec) * f.memoryGB; w > 0 {
		f.sample.WastedGBSec += w
	}
}

// alive drops reaped pods, so every scan stays proportional to the live
// fleet, and returns how many pods are left.
func (f *fleet) alive() int {
	live := f.pods[:0]
	for _, pd := range f.pods {
		if !pd.dead {
			live = append(live, pd)
		}
	}
	f.pods = live
	return len(live)
}

// scale moves the fleet toward target at now. Scale-up provisions pods
// that serve after the cold start, charging no request. Scale-down reaps
// idle pods only, longest idle first: a busy pod finishes its work (no
// preemption), and a provisioning pod stays.
func (f *fleet) scale(target int, now time.Duration) {
	alive := f.alive()
	if target > alive {
		for i := alive; i < target; i++ {
			f.spawn(now, now+f.coldStart)
		}
		return
	}
	excess := alive - target
	if excess <= 0 {
		return
	}
	idle := make([]*pod, 0, excess)
	for _, pd := range f.pods {
		if pd.busy == 0 && pd.readyAt <= now {
			idle = append(idle, pd)
		}
	}
	sort.Slice(idle, func(i, j int) bool { return idle[i].idleSince < idle[j].idleSince })
	for i := 0; i < excess && i < len(idle); i++ {
		f.reap(idle[i], now)
	}
}

// close reaps every pod still alive at the horizon.
func (f *fleet) close(horizon time.Duration) {
	for _, pd := range f.pods {
		if !pd.dead {
			f.reap(pd, horizon)
		}
	}
}
