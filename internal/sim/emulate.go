package sim

import (
	"math"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/rum"
	"github.com/ubc-cirrus-lab/femux-go/internal/trace"
)

// Knative's KPA defaults, the settings the paper's prototype runs under.
const (
	kpaTick           = 2 * time.Second  // scaling decision period
	kpaStableWindow   = time.Minute      // averaging window (the "1-min KA" behaviour)
	kpaPanicWindow    = 6 * time.Second  // short window for burst detection
	kpaPanicThreshold = 2.0              // panic when panic-window demand / capacity reaches this
	kpaScaleToZero    = 30 * time.Second // grace period before removing the last pod
)

// kpa is one revision's reactive autoscaler: it ingests concurrency
// observations (one per tick, as the queue-proxy reports every 2 s) and
// produces a desired pod count.
type kpa struct {
	unitC int

	obs        []obsPoint // observations within the stable window
	panicUntil time.Duration
	panicPods  int
	zeroSince  time.Duration // when desired first hit zero; -1 when active
}

type obsPoint struct {
	at   time.Duration
	conc float64
}

// newKPA returns an autoscaler for an app with the given container
// concurrency limit.
func newKPA(unitConcurrency int) *kpa {
	return &kpa{unitC: max(unitConcurrency, 1), zeroSince: -1}
}

// observe records the average concurrency measured over the last tick
// (including requests queued at the activator, which is what drives
// Knative's scale-from-zero).
func (a *kpa) observe(now time.Duration, concurrency float64) {
	a.obs = append(a.obs, obsPoint{at: now, conc: concurrency})
	cut := now - kpaStableWindow
	i := 0
	for i < len(a.obs) && a.obs[i].at <= cut {
		i++
	}
	if i > 0 {
		a.obs = append(a.obs[:0], a.obs[i:]...)
	}
}

func (a *kpa) windowAvg(now, window time.Duration) float64 {
	cut := now - window
	var sum float64
	var n int
	for _, o := range a.obs {
		if o.at > cut {
			sum += o.conc
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// desired computes the pod count for the next tick, given the current pod
// count, applying Knative's stable/panic logic and scale-to-zero grace.
func (a *kpa) desired(now time.Duration, current, minScale int) int {
	stable := a.windowAvg(now, kpaStableWindow)
	panicAvg := a.windowAvg(now, kpaPanicWindow)

	want := podsFor(stable, a.unitC)

	// Panic mode: the short window sees demand at or beyond the threshold
	// times current capacity.
	capacity := float64(current * a.unitC)
	if capacity > 0 && panicAvg/capacity >= kpaPanicThreshold {
		a.panicUntil = now + kpaStableWindow
		a.panicPods = max(a.panicPods, podsFor(panicAvg, a.unitC))
	} else if current == 0 && panicAvg > 0 {
		// Scale from zero reacts on the panic window too.
		want = max(want, podsFor(panicAvg, a.unitC))
	}
	if now < a.panicUntil {
		// During panic Knative never scales down.
		want = max(want, a.panicPods)
	} else {
		a.panicPods = 0
	}

	want = max(want, minScale)
	// Scale-to-zero grace: hold the last pod for kpaScaleToZero.
	if want == 0 && current > 0 {
		if a.zeroSince < 0 {
			a.zeroSince = now
		}
		if now-a.zeroSince < kpaScaleToZero {
			return 1
		}
		return 0
	}
	a.zeroSince = -1
	return want
}

func podsFor(concurrency float64, unitC int) int {
	if concurrency <= 0 {
		return 0
	}
	return int(math.Ceil(concurrency / float64(unitC)))
}

// ScaleProvider is the hook through which FeMux overrides Knative's
// reactive autoscaler (Fig 13): once per minute the emulation reports the
// completed minute's average concurrency and receives the pod target to
// hold until the next report. ok=false falls back to the reactive logic.
type ScaleProvider interface {
	Target(app string, minuteAvg float64, unitConcurrency int) (target int, ok bool)
}

// AppSpec describes one application deployed on the emulated cluster.
type AppSpec struct {
	Name        string
	Config      trace.Config
	Invocations []trace.Invocation // sorted by arrival
}

// Emulate replays one app on the Knative Serving control loop over
// [0, horizon) and returns its sample and the platform delay, in seconds,
// of each request it served, in arrival order. A request still queued at
// the horizon has neither. Knative scales each revision on its own, so an
// app's outcome does not depend on any other app.
//
// Semantics (§5.2, Fig 13):
//
//   - A request waits at the activator until a ready pod has a free slot;
//     the longest-idle such pod serves it. The wait is its platform
//     delay, and any wait is a cold start.
//   - Every 2 s the KPA observes the tick's average concurrency, queued
//     requests included, and retargets with its stable and panic windows
//     and its scale-to-zero grace. Scale-up provisions pods that serve
//     after the cold start; scale-down reaps idle pods, longest idle
//     first, and never preempts a busy one.
//   - With p set, at every minute boundary p gets the minute's average
//     concurrency, and the target it answers holds until the next
//     answer. The KPA's target still wins when it is higher, so a burst
//     the forecast missed is served.
func Emulate(app AppSpec, p ScaleProvider, horizon time.Duration) (rum.Sample, []float64) {
	cfg := app.Config
	f := newFleet(cfg.Concurrency, cfg.MemoryGB, cfg.ColdStart, cfg.MinScale)
	scaler := newKPA(f.unitC)

	arrivals := app.Invocations
	// The activator's buffer is arrivals[head:next]: requests start in
	// arrival order, so the queued ones are always the latest arrivals.
	head, next := 0, 0
	delays := make([]float64, 0, len(arrivals))

	// Concurrency integrals, executing plus queued: over the current tick
	// for the KPA, over the current minute for p.
	var tickNS, minuteNS float64
	var lastTick, lastMinute time.Duration
	observe := func(now time.Duration) {
		load := float64(f.inFlight + next - head)
		if now > lastTick {
			tickNS += load * float64(now-lastTick)
			lastTick = now
		}
		if now > lastMinute {
			minuteNS += load * float64(now-lastMinute)
			lastMinute = now
		}
	}

	// drain assigns queued requests, in arrival order, to free slots on
	// ready pods.
	drain := func(now time.Duration) {
		for head < next {
			var slot *pod
			for _, pd := range f.pods {
				if pd.dead || pd.readyAt > now || pd.busy >= f.unitC {
					continue
				}
				if slot == nil || pd.idleSince < slot.idleSince {
					slot = pd
				}
			}
			if slot == nil {
				return
			}
			// Settle the integrals while the request still counts as
			// queued: dequeuing it first would drop it from every
			// interval since the last event.
			observe(now)
			inv := arrivals[head]
			head++
			f.start(slot, now, inv.Duration)
			f.sample.Invocations++
			f.sample.ExecSec += inv.Duration.Seconds()
			delay := now - inv.Arrival
			delays = append(delays, delay.Seconds())
			if delay > 0 {
				f.sample.ColdStarts++
				f.sample.ColdStartSec += delay.Seconds()
			}
		}
	}

	finish := func(now time.Duration) {
		for c, ok := f.due(now); ok; c, ok = f.due(now) {
			observe(c.at)
			f.end(c)
			drain(c.at)
		}
	}

	// nextReady is the earliest time after `after` at which a pod with a
	// free slot becomes ready while requests wait, or -1: a pod becoming
	// ready is an event, since it unblocks the queue.
	nextReady := func(after time.Duration) time.Duration {
		best := time.Duration(-1)
		if head == next {
			return best
		}
		for _, pd := range f.pods {
			if pd.dead || pd.busy >= f.unitC || pd.readyAt <= after {
				continue
			}
			if best < 0 || pd.readyAt < best {
				best = pd.readyAt
			}
		}
		return best
	}

	override := -1 // p's target until the next minute; -1 = none
	tick := func(now time.Duration) {
		observe(now)
		scaler.observe(now, tickNS/float64(kpaTick))
		tickNS = 0

		if p != nil && now%time.Minute == 0 {
			minuteAvg := minuteNS / float64(time.Minute)
			minuteNS = 0
			if target, ok := p.Target(app.Name, minuteAvg, f.unitC); ok {
				override = target
			}
		}

		alive := f.alive()
		desired := scaler.desired(now, alive, cfg.MinScale)
		if override >= 0 {
			desired = max(desired, override, cfg.MinScale)
		}
		f.scale(desired, now)
	}

	const (
		done = iota
		arrival
		scaleTick
		ready
	)
	nextTick := kpaTick
	prev := time.Duration(0)
	for {
		// The earliest event before the horizon; at equal times an
		// arrival comes first, then a tick, then a pod becoming ready.
		now, kind := horizon, done
		if next < len(arrivals) && arrivals[next].Arrival < now {
			now, kind = arrivals[next].Arrival, arrival
		}
		if nextTick < now {
			now, kind = nextTick, scaleTick
		}
		if r := nextReady(prev); r >= 0 && r < now {
			now, kind = r, ready
		}
		if kind == done {
			break
		}
		finish(now)
		switch kind {
		case arrival:
			observe(now)
			next++
		case scaleTick:
			tick(now)
			nextTick += kpaTick
		}
		drain(now)
		prev = now
	}
	finish(horizon)
	f.close(horizon)
	return f.sample, delays
}
