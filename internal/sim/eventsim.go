package sim

import (
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
	tick := cfg.ScaleInterval
	if tick <= 0 {
		tick = time.Minute
	}

	var res EventResult
	if cfg.CaptureDelays {
		res.PlatformDelays = make([]float64, 0, len(invs))
	}

	f := newFleet(cfg.UnitConcurrency, cfg.MemoryGB, cfg.ColdStart, cfg.MinScale)
	ws := forecast.NewWorkspace()
	history := make([]float64, 0, int(horizon/tick)+1)
	// Concurrency integral for the current interval.
	var intervalBusyNS float64
	var lastObs time.Duration
	observe := func(now time.Duration) {
		if now > lastObs {
			intervalBusyNS += float64(f.inFlight) * float64(now-lastObs)
			lastObs = now
		}
	}

	finish := func(now time.Duration) {
		for c, ok := f.due(now); ok; c, ok = f.due(now) {
			observe(c.at)
			f.end(c)
		}
	}

	scaleTick := func(now time.Duration) {
		// Record the interval's observed average concurrency.
		observe(now)
		history = append(history, intervalBusyNS/float64(tick))
		intervalBusyNS = 0

		// The MinScale floor holds because scale-down never goes below
		// the target.
		f.scale(max(p.Target(history, f.unitC, ws), cfg.MinScale), now)
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
		for _, pd := range f.pods {
			if pd.dead || pd.busy >= f.unitC {
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
		if best == nil {
			best = f.spawn(now, now+cfg.ColdStart)
		}
		// A request on a provisioning pod waits until it is ready.
		startAt := max(best.readyAt, now)
		delay := startAt - now
		if delay > 0 {
			f.sample.ColdStarts++
			f.sample.ColdStartSec += delay.Seconds()
			// Overriding rule: the pod serving a cold request is pinned
			// until the end of the current scaling interval.
			best.coldUntil = max(best.coldUntil, nextTick)
		}
		f.start(best, startAt, inv.Duration)
		// The interval's concurrency counts the request from its
		// arrival, its wait included.
		observe(startAt)

		f.sample.Invocations++
		f.sample.ExecSec += inv.Duration.Seconds()
		if cfg.CaptureDelays {
			res.PlatformDelays = append(res.PlatformDelays, delay.Seconds())
		}
	}
	// Drain completions and close out pods at the horizon.
	finish(horizon)
	f.close(horizon)
	res.Sample = f.sample
	return res
}
