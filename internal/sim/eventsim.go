package sim

import (
	"container/heap"
	"sort"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
	"github.com/ubc-cirrus-lab/femux-go/internal/rum"
	"github.com/ubc-cirrus-lab/femux-go/internal/trace"
)

// EventConfig parameterizes the event-driven simulator, which replays
// millisecond-resolution invocation traces against a pod fleet and a
// scaling policy. It is the engine behind the sub-minute scaling study
// (Fig 5) and the platform-delay characterization (Fig 6).
type EventConfig struct {
	ScaleInterval   time.Duration // policy tick (Knative default reacts every 2 s)
	UnitConcurrency int           // per-pod concurrency limit
	MemoryGB        float64       // per-pod memory
	ColdStart       time.Duration // pod provisioning time
	MinScale        int           // user minimum pods
	CaptureDelays   bool          // record per-request platform delays
}

// EventResult is the outcome of an event-driven run for one app.
type EventResult struct {
	Sample         rum.Sample
	PlatformDelays []float64 // seconds, one per invocation (when captured)
}

// pod models one compute unit.
type pod struct {
	readyAt    time.Duration // when the pod can first serve
	busy       int           // in-flight requests
	idleSince  time.Duration // valid when busy == 0
	coldUntil  time.Duration // cold-provisioned pods are pinned until here
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

// SimulateEvents replays one app's invocations under a scaling policy.
// horizon bounds the simulated time; invocations must be sorted by arrival.
//
// Semantics:
//
//   - A request is served by the ready pod with free capacity that has been
//     idle longest; failing that it queues on a provisioning pod with free
//     capacity; failing that it triggers a cold start (a new pod) and waits
//     the full provisioning time. The request's platform delay is its wait.
//   - Every ScaleInterval the observed average concurrency of the elapsed
//     interval is appended to the policy's history and the policy re-
//     targets. Scale-up provisions pods proactively (they become ready
//     after ColdStart without charging any request). Scale-down removes
//     idle pods only — busy pods finish their work (no preemption), and
//     cold-provisioned pods survive until their interval ends.
//   - Waste accounting: each pod's allocated memory-time minus its used
//     share (busy slots / concurrency limit).
func SimulateEvents(invs []trace.Invocation, p Policy, cfg EventConfig, horizon time.Duration) EventResult {
	unitC := cfg.UnitConcurrency
	if unitC < 1 {
		unitC = 1
	}
	tick := cfg.ScaleInterval
	if tick <= 0 {
		tick = time.Minute
	}

	var res EventResult
	if cfg.CaptureDelays {
		res.PlatformDelays = make([]float64, 0, len(invs))
	}

	var pods []*pod
	spawn := func(now, readyAt, coldUntil time.Duration) *pod {
		pd := &pod{
			readyAt:    readyAt,
			idleSince:  readyAt,
			coldUntil:  coldUntil,
			aliveFrom:  now,
			lastChange: now,
		}
		pods = append(pods, pd)
		return pd
	}
	for i := 0; i < cfg.MinScale; i++ {
		spawn(0, 0, 0)
	}

	comps := &completionHeap{}
	ws := forecast.NewWorkspace()
	history := make([]float64, 0, int(horizon/tick)+1)
	// Concurrency integral for the current interval.
	var intervalBusyNS float64
	var lastObs time.Duration
	var inFlight int
	observe := func(now time.Duration) {
		if now > lastObs {
			intervalBusyNS += float64(inFlight) * float64(now-lastObs)
			lastObs = now
		}
	}

	finish := func(now time.Duration) {
		for comps.Len() > 0 && (*comps)[0].at <= now {
			c := heap.Pop(comps).(completion)
			observe(c.at)
			c.pod.accrue(c.at)
			c.pod.busy--
			inFlight--
			if c.pod.busy == 0 {
				c.pod.idleSince = c.at
			}
		}
	}

	reap := func(pd *pod, now time.Duration) {
		pd.accrue(now)
		pd.dead = true
		aliveSec := (now - pd.aliveFrom).Seconds()
		usedSec := pd.busySlotNS / float64(time.Second) / float64(unitC)
		res.Sample.AllocatedGBSec += aliveSec * cfg.MemoryGB
		w := (aliveSec - usedSec) * cfg.MemoryGB
		if w > 0 {
			res.Sample.WastedGBSec += w
		}
	}

	scaleTick := func(now time.Duration) {
		// Record the interval's observed average concurrency.
		observe(now)
		history = append(history, intervalBusyNS/float64(tick))
		intervalBusyNS = 0

		// Compact dead pods so the per-arrival scan stays proportional to
		// the live fleet.
		live := pods[:0]
		for _, pd := range pods {
			if !pd.dead {
				live = append(live, pd)
			}
		}
		pods = live

		target := p.Target(history, unitC, ws)
		if target < cfg.MinScale {
			target = cfg.MinScale
		}
		alive := 0
		for _, pd := range pods {
			if !pd.dead {
				alive++
			}
		}
		if target > alive {
			for i := alive; i < target; i++ {
				spawn(now, now+cfg.ColdStart, 0) // proactive pre-warm
			}
			return
		}
		// Scale down: remove idle, unpinned pods, longest-idle first.
		excess := alive - target
		if excess <= 0 {
			return
		}
		idle := make([]*pod, 0, excess)
		for _, pd := range pods {
			if !pd.dead && pd.busy == 0 && pd.readyAt <= now && pd.coldUntil <= now {
				idle = append(idle, pd)
			}
		}
		sort.Slice(idle, func(i, j int) bool { return idle[i].idleSince < idle[j].idleSince })
		for i := 0; i < excess && i < len(idle); i++ {
			// MinScale floor is preserved by the target clamp above.
			reap(idle[i], now)
		}
	}

	nextTick := tick
	idx := 0
	for idx < len(invs) || nextTick < horizon {
		// Next event: arrival or scale tick.
		var now time.Duration
		arrival := idx < len(invs) && (nextTick >= horizon || invs[idx].Arrival <= nextTick)
		if arrival {
			now = invs[idx].Arrival
		} else {
			now = nextTick
		}
		if now > horizon {
			break
		}
		finish(now)
		if !arrival {
			scaleTick(now)
			nextTick += tick
			continue
		}

		inv := invs[idx]
		idx++
		observe(now)

		// Pick a pod: ready with capacity (longest idle first), else
		// provisioning with capacity (earliest ready), else cold start.
		var bestReady, bestProv *pod
		for _, pd := range pods {
			if pd.dead || pd.busy >= unitC {
				continue
			}
			if pd.readyAt <= now {
				if bestReady == nil || pd.idleSince < bestReady.idleSince {
					bestReady = pd
				}
			} else if bestProv == nil || pd.readyAt < bestProv.readyAt {
				bestProv = pd
			}
		}
		best := bestReady
		if best == nil {
			best = bestProv
		}
		var startAt time.Duration
		switch {
		case best != nil && best.readyAt <= now:
			startAt = now
		case best != nil:
			startAt = best.readyAt // queued on a provisioning pod
		default:
			best = spawn(now, now+cfg.ColdStart, 0)
			startAt = best.readyAt
		}
		delay := startAt - now
		if delay > 0 {
			res.Sample.ColdStarts++
			res.Sample.ColdStartSec += delay.Seconds()
			// Overriding rule: the pod serving a cold request is pinned
			// until the end of the current scaling interval.
			intervalEnd := nextTick
			if best.coldUntil < intervalEnd {
				best.coldUntil = intervalEnd
			}
		}
		best.accrue(startAt)
		if startAt > now {
			// The pod was not busy before ready; accrual starts at ready.
			best.lastChange = startAt
		}
		best.busy++
		inFlight++
		// In-flight accounting begins when the request starts executing.
		observe(startAt)
		heap.Push(comps, completion{at: startAt + inv.Duration, pod: best})

		res.Sample.Invocations++
		res.Sample.ExecSec += inv.Duration.Seconds()
		if cfg.CaptureDelays {
			res.PlatformDelays = append(res.PlatformDelays, delay.Seconds())
		}
	}
	// Drain completions and close out pods at the horizon.
	finish(horizon)
	for _, pd := range pods {
		if !pd.dead {
			reap(pd, horizon)
		}
	}
	return res
}

// ColdStartFractionPerApp returns per-app cold-start fractions for a set of
// results, preserving order.
func ColdStartFractionPerApp(results []EventResult) []float64 {
	out := make([]float64, len(results))
	for i, r := range results {
		out[i] = r.Sample.ColdStartFraction()
	}
	return out
}

// PercentOver returns the share of values strictly greater than threshold.
func PercentOver(values []float64, threshold float64) float64 {
	if len(values) == 0 {
		return 0
	}
	n := 0
	for _, v := range values {
		if v > threshold {
			n++
		}
	}
	return float64(n) / float64(len(values))
}
