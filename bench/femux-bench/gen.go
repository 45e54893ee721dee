package main

import (
	"fmt"
	"math"
)

// The generator is a pure function of (seed, client, op index) plus one
// int32 per app (the app's observation count): nothing is materialised
// ahead of time, so generator memory is O(1) per app and the live-heap
// metric is service state. Every app belongs to exactly one client (by
// index parity), so per-app request order holds without coordination and
// the two clients never write the same count entry.

const (
	clients     = 2   // closed-loop keep-alive connections
	seedMinutes = 300 // observations pre-seeded per app: two completed 144-min blocks and a full 120-min window
	tailRounds  = 2   // of those, the last rounds are written minute-major after the snapshot, so reopen replays a WAL tail
	batchItems  = 64
)

type opKind uint8

const (
	opObserve opKind = iota
	opTarget
	opForecast
	opBatch
)

// op is one request. For opBatch, app is the first of batchItems apps the
// batch covers (see batchApp).
type op struct {
	kind  opKind
	app   int
	value float64
}

// mix64 is the splitmix64 finaliser.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hash3(seed uint64, a, b, c int) uint64 {
	return mix64(mix64(mix64(seed^uint64(a))^uint64(b)) ^ uint64(c))
}

func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

type generator struct {
	w     workload
	seed  uint64
	names []string
	// count[a] is how many observations app a has had acknowledged,
	// seeding included: the history length the service must report next.
	count []int32
}

// newGenerator returns the generator for a fleet whose every app has just
// been seeded with its first seedMinutes observations.
func newGenerator(w workload, seed uint64) *generator {
	g := &generator{w: w, seed: seed, names: make([]string, w.apps), count: make([]int32, w.apps)}
	for a := range g.names {
		g.names[a] = fmt.Sprintf("app-%05d", a)
		g.count[a] = seedMinutes
	}
	return g
}

// value is the concurrency app a reports as its minute-th observation.
// Hot fleets: a diurnal curve times a log-uniform per-app scale, with
// Poisson noise drawn from a hashed stream, in quarters so bodies stay
// short. Sparse fleet: the per-app level of femux-load -sparse with a
// hashed ±25% wobble, in thousandths.
func (g *generator) value(a, minute int) float64 {
	ua := unit(hash3(g.seed, a, -1, 0))
	if g.w.sparse {
		level := 0.2 + 2*ua
		return math.Round(level*(0.75+0.5*unit(hash3(g.seed, a, minute, 1)))*1000) / 1000
	}
	scale := 0.5 * math.Pow(16, ua)
	phase := 1440 * unit(hash3(g.seed, a, -1, 2))
	lambda := 4 * scale * (1 + 0.8*math.Sin(2*math.Pi*(float64(minute)+phase)/1440))
	// Knuth's Poisson sampler over a splitmix stream keyed by (app, minute).
	limit, p, k := math.Exp(-lambda), 1.0, -1
	for s := hash3(g.seed, a, minute, 3); p > limit; k++ {
		s = mix64(s)
		p *= unit(s)
	}
	return float64(k) / 4
}

// next returns client c's i-th request. It reads count but does not
// advance it: the caller does, once the observation is acknowledged.
func (g *generator) next(c, i int) op {
	perClient := g.w.apps / clients
	switch {
	case g.w.batch:
		return op{kind: opBatch, app: i * batchItems % perClient}
	case g.w.sparse:
		// App index a has mean gap 2·720^(a/apps) minutes (log-uniform in
		// [2, 1440], the femux-load -sparse population) and is drawn with
		// probability ∝ 1/gap by inverting that distribution's CDF.
		x := unit(hash3(g.seed, c, i, 4))
		u := -math.Log(1-x*(1-1.0/720)) / math.Log(720)
		a := int(u*float64(g.w.apps))&^1 | c
		return op{kind: opObserve, app: a, value: g.value(a, int(g.count[a]))}
	}
	// Minute-major round-robin: every app reports each interval.
	a := (i%perClient)*clients + c
	kind := opObserve
	if g.w.readMix {
		switch x := unit(hash3(g.seed, c, i, 5)); {
		case x >= 0.8:
			kind = opForecast
		case x >= 0.5:
			kind = opTarget
		}
	}
	o := op{kind: kind, app: a}
	if kind == opObserve {
		o.value = g.value(a, int(g.count[a]))
	}
	return o
}

// batchApp is the j-th app of client c's batch starting at first: 64
// distinct apps of that client, wrapping round the fleet.
func (g *generator) batchApp(c, first, j int) int {
	return (first+j)%(g.w.apps/clients)*clients + c
}

// series regenerates app a's whole observation history, for the oracle.
func (g *generator) series(a int) []float64 {
	out := make([]float64, g.count[a])
	for m := range out {
		out[m] = g.value(a, m)
	}
	return out
}
