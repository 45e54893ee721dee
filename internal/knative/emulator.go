package knative

import (
	"container/heap"
	"sort"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/rum"
	"github.com/ubc-cirrus-lab/femux-go/internal/trace"
)

// ScaleProvider is the hook through which FeMux overrides the default
// reactive autoscaler (Fig 13): once per minute the emulation reports the
// completed minute's average concurrency and receives the pod target to
// hold until the next report. ok=false falls back to the reactive logic.
type ScaleProvider interface {
	Target(app string, minuteAvg float64, unitConcurrency int) (target int, ok bool)
}

// EmulatorConfig parameterizes a cluster emulation run.
type EmulatorConfig struct {
	Autoscaler         AutoscalerConfig
	Provider           ScaleProvider // nil -> pure default Knative behaviour
	MaxPods            int           // cluster capacity in pods (0 = unbounded)
	CaptureDelays      bool          // record per-request platform delays
	CaptureScaleEvents bool          // record pod scale up/down events per app
}

// ScaleEvent records one pod-count change, the scale up/down event stream
// the production dataset exposes (Table 1).
type ScaleEvent struct {
	At    time.Duration
	Delta int // positive: pods added; negative: pods removed
	Pods  int // pod count after the change
}

// AppSpec describes one application deployed on the emulated cluster.
type AppSpec struct {
	Name        string
	Config      trace.Config
	Invocations []trace.Invocation // sorted by arrival
}

// AppResult is one application's outcome.
type AppResult struct {
	Name           string
	Sample         rum.Sample
	PlatformDelays []float64    // seconds (when captured)
	ScaleEvents    []ScaleEvent // pod count changes (when captured)
}

// emuPod is one pod of one app.
type emuPod struct {
	app        int
	readyAt    time.Duration
	busy       int
	idleSince  time.Duration
	aliveFrom  time.Duration
	busySlotNS float64
	lastChange time.Duration
	dead       bool
}

func (p *emuPod) accrue(now time.Duration) {
	if now > p.lastChange {
		p.busySlotNS += float64(p.busy) * float64(now-p.lastChange)
		p.lastChange = now
	}
}

// queuedReq is a request buffered at the activator.
type queuedReq struct {
	arrival  time.Duration
	duration time.Duration
}

// appRuntime is the emulator's per-app state.
type appRuntime struct {
	idx     int
	spec    AppSpec
	pods    []*emuPod
	queue   []queuedReq
	scaler  *Autoscaler
	unitC   int
	nextInv int

	// Concurrency integral for the current tick (in-flight + queued).
	loadNS  float64
	lastObs time.Duration
	inUse   int // executing requests

	// Per-minute accumulation for the FeMux provider.
	minuteNS   float64
	lastMinObs time.Duration
	// Provider override, held until the next minute boundary. -1 = none.
	override int

	result AppResult
}

func (a *appRuntime) observe(now time.Duration) {
	load := float64(a.inUse + len(a.queue))
	if now > a.lastObs {
		a.loadNS += load * float64(now-a.lastObs)
		a.lastObs = now
	}
	if now > a.lastMinObs {
		a.minuteNS += load * float64(now-a.lastMinObs)
		a.lastMinObs = now
	}
}

type emuCompletion struct {
	at  time.Duration
	pod *emuPod
}

type emuHeap []emuCompletion

func (h emuHeap) Len() int            { return len(h) }
func (h emuHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h emuHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *emuHeap) Push(x interface{}) { *h = append(*h, x.(emuCompletion)) }
func (h *emuHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Run emulates the cluster over [0, horizon) and returns per-app results in
// input order.
func Run(apps []AppSpec, cfg EmulatorConfig, horizon time.Duration) []AppResult {
	tick := cfg.Autoscaler.TickInterval
	if tick <= 0 {
		tick = 2 * time.Second
	}
	runtimes := make([]*appRuntime, len(apps))
	totalPods := 0
	for i, spec := range apps {
		unitC := spec.Config.Concurrency
		if unitC < 1 {
			unitC = 1
		}
		rt := &appRuntime{
			idx:      i,
			spec:     spec,
			scaler:   NewAutoscaler(cfg.Autoscaler, unitC),
			unitC:    unitC,
			override: -1,
		}
		rt.result.Name = spec.Name
		for j := 0; j < spec.Config.MinScale; j++ {
			rt.pods = append(rt.pods, &emuPod{app: i})
			totalPods++
		}
		if cfg.CaptureDelays {
			rt.result.PlatformDelays = make([]float64, 0, len(spec.Invocations))
		}
		runtimes[i] = rt
	}

	comps := &emuHeap{}

	reap := func(rt *appRuntime, pd *emuPod, now time.Duration) {
		pd.accrue(now)
		pd.dead = true
		totalPods--
		aliveSec := (now - pd.aliveFrom).Seconds()
		usedSec := pd.busySlotNS / float64(time.Second) / float64(rt.unitC)
		rt.result.Sample.AllocatedGBSec += aliveSec * rt.spec.Config.MemoryGB
		if w := (aliveSec - usedSec) * rt.spec.Config.MemoryGB; w > 0 {
			rt.result.Sample.WastedGBSec += w
		}
	}

	// drain assigns queued requests to free slots on ready pods.
	drain := func(rt *appRuntime, now time.Duration) {
		for len(rt.queue) > 0 {
			var slot *emuPod
			for _, pd := range rt.pods {
				if pd.dead || pd.readyAt > now || pd.busy >= rt.unitC {
					continue
				}
				if slot == nil || pd.idleSince < slot.idleSince {
					slot = pd
				}
			}
			if slot == nil {
				return
			}
			req := rt.queue[0]
			rt.queue = rt.queue[1:]
			rt.observe(now)
			slot.accrue(now)
			slot.busy++
			rt.inUse++
			heap.Push(comps, emuCompletion{at: now + req.duration, pod: slot})

			delay := now - req.arrival
			rt.result.Sample.Invocations++
			rt.result.Sample.ExecSec += req.duration.Seconds()
			if delay > 0 {
				rt.result.Sample.ColdStarts++
				rt.result.Sample.ColdStartSec += delay.Seconds()
			}
			if rt.result.PlatformDelays != nil {
				rt.result.PlatformDelays = append(rt.result.PlatformDelays, delay.Seconds())
			}
		}
	}

	finish := func(now time.Duration) {
		for comps.Len() > 0 && (*comps)[0].at <= now {
			c := heap.Pop(comps).(emuCompletion)
			rt := runtimes[c.pod.app]
			rt.observe(c.at)
			c.pod.accrue(c.at)
			c.pod.busy--
			rt.inUse--
			if c.pod.busy == 0 {
				c.pod.idleSince = c.at
			}
			drain(rt, c.at)
		}
	}

	// Pods becoming ready unblock queued requests, so a pending ready time
	// is an event: for every app with a non-empty queue, the earliest pod
	// ready time after the last processed instant must be visited.
	nextReady := func(after time.Duration) (time.Duration, *appRuntime) {
		best := time.Duration(-1)
		var bestRT *appRuntime
		for _, rt := range runtimes {
			if len(rt.queue) == 0 {
				continue
			}
			for _, pd := range rt.pods {
				if pd.dead || pd.busy >= rt.unitC || pd.readyAt <= after {
					continue
				}
				if best < 0 || pd.readyAt < best {
					best = pd.readyAt
					bestRT = rt
				}
			}
		}
		return best, bestRT
	}

	scaleApp := func(rt *appRuntime, now time.Duration) {
		// Tick observation: average load over the elapsed tick.
		rt.observe(now)
		avg := rt.loadNS / float64(tick)
		rt.loadNS = 0
		rt.scaler.Observe(now, avg)

		// Minute boundary: consult the FeMux provider.
		if cfg.Provider != nil && now%time.Minute == 0 && now > 0 {
			minuteAvg := rt.minuteNS / float64(time.Minute)
			rt.minuteNS = 0
			if tgt, ok := cfg.Provider.Target(rt.spec.Name, minuteAvg, rt.unitC); ok {
				rt.override = tgt
			}
		}

		alive := 0
		for _, pd := range rt.pods {
			if !pd.dead {
				alive++
			}
		}
		var desired int
		if rt.override >= 0 {
			desired = rt.override
			if desired < rt.spec.Config.MinScale {
				desired = rt.spec.Config.MinScale
			}
			// The reactive path still covers emergencies: never scale
			// below what the panic window demands right now.
			if reactive := rt.scaler.Desired(now, alive, rt.spec.Config.MinScale); reactive > desired {
				desired = reactive
			}
		} else {
			desired = rt.scaler.Desired(now, alive, rt.spec.Config.MinScale)
		}

		scaled := 0
		if desired > alive {
			for i := alive; i < desired; i++ {
				if cfg.MaxPods > 0 && totalPods >= cfg.MaxPods {
					break
				}
				rt.pods = append(rt.pods, &emuPod{
					app:        rt.idx,
					readyAt:    now + rt.spec.Config.ColdStart,
					idleSince:  now + rt.spec.Config.ColdStart,
					aliveFrom:  now,
					lastChange: now,
				})
				totalPods++
				scaled++
			}
		} else if desired < alive {
			excess := alive - desired
			idle := make([]*emuPod, 0, excess)
			for _, pd := range rt.pods {
				if !pd.dead && pd.busy == 0 && pd.readyAt <= now {
					idle = append(idle, pd)
				}
			}
			sort.Slice(idle, func(i, j int) bool { return idle[i].idleSince < idle[j].idleSince })
			for i := 0; i < excess && i < len(idle); i++ {
				reap(rt, idle[i], now)
				scaled--
			}
		}
		if cfg.CaptureScaleEvents && scaled != 0 {
			rt.result.ScaleEvents = append(rt.result.ScaleEvents, ScaleEvent{
				At: now, Delta: scaled, Pods: alive + scaled,
			})
		}
		// Compact dead pods.
		live := rt.pods[:0]
		for _, pd := range rt.pods {
			if !pd.dead {
				live = append(live, pd)
			}
		}
		rt.pods = live
	}

	// Merge arrivals across apps.
	type arrival struct {
		at  time.Duration
		app int
	}
	order := make([]arrival, 0)
	for i, spec := range apps {
		for _, inv := range spec.Invocations {
			order = append(order, arrival{at: inv.Arrival, app: i})
		}
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].at < order[j].at })

	nextTick := tick
	ai := 0
	prevNow := time.Duration(0)
	for {
		now := horizon
		kind := 2 // 0 arrival, 1 tick, 2 done, 3 pod-ready
		if ai < len(order) && order[ai].at < now {
			now = order[ai].at
			kind = 0
		}
		if nextTick < now && nextTick < horizon {
			now = nextTick
			kind = 1
		}
		var readyRT *appRuntime
		if rAt, rRT := nextReady(prevNow); rAt >= 0 && rAt < now {
			now = rAt
			kind = 3
			readyRT = rRT
		}
		if kind == 2 {
			break
		}
		finish(now)
		switch kind {
		case 0:
			a := order[ai]
			ai++
			rt := runtimes[a.app]
			inv := rt.spec.Invocations[rt.nextInv]
			rt.nextInv++
			rt.observe(now)
			rt.queue = append(rt.queue, queuedReq{arrival: now, duration: inv.Duration})
			drain(rt, now)
		case 1:
			for _, rt := range runtimes {
				scaleApp(rt, now)
				drain(rt, now)
			}
			nextTick += tick
		case 3:
			drain(readyRT, now)
		}
		prevNow = now
	}
	finish(horizon)
	for _, rt := range runtimes {
		for _, pd := range rt.pods {
			if !pd.dead {
				reap(rt, pd, horizon)
			}
		}
	}

	out := make([]AppResult, len(runtimes))
	for i, rt := range runtimes {
		out[i] = rt.result
	}
	return out
}
