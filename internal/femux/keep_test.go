package femux

import (
	"testing"

	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
)

// withGeometry is m over another block size and forecast window: the
// same classifier and group table, so only what Reads depends on changes.
func withGeometry(m *Model, blockSize, window int) *Model {
	v := *m
	v.cfg.BlockSize, v.cfg.Window = blockSize, window
	return &v
}

// regimeSeries is n values that change regime twice (periodic, smooth,
// bursty, in an order the seed picks), so consecutive blocks classify
// differently.
func regimeSeries(seed int64, n int) []float64 {
	apps := mixedFleet(seed, 3, n)
	out := make([]float64, 0, n)
	for k := range apps {
		out = append(out, apps[(int(seed&3)+k)%3].Demand.Values[k*n/3:(k+1)*n/3]...)
	}
	return out
}

// checkKeptTail walks series through pairs of policies of m: one handed
// the whole history and one, before each call, exactly the last Reads(n)
// values it asks for, both with the count n. It fails at the first
// answer that differs in a bit: target, forecaster name, whether the
// call extracted, the point forecast and the quantile bands. One pair is
// kept up to date from the first value. At every length two fresh pairs
// start over, one asked for its decision first and one for its forecast,
// as a policy is after a model swap or a memo miss.
func checkKeptTail(t testing.TB, m *Model, series []float64) {
	t.Helper()
	levels := []float64{0.5, 0.9}
	ws := forecast.NewWorkspace()
	fresh := func() [2]*AppPolicy {
		return [2]*AppPolicy{m.NewAppPolicy(0.2), m.NewAppPolicy(0.2)}
	}
	live := fresh()
	for n := 1; n <= len(series); n++ {
		hist := series[:n]
		for k, pair := range [][2]*AppPolicy{live, fresh(), fresh()} {
			forecastFirst := k == 2
			var (
				target    [2]int
				name      [2]string
				extracted [2]bool
				point, qs [2][]float64
			)
			for j, p := range pair {
				view := func() []float64 {
					if j == 0 {
						return hist
					}
					k, _, _ := p.Reads(n)
					return hist[n-k:]
				}
				if forecastFirst {
					point[j] = p.ForecastTail(view(), n, 3, nil, ws)
				}
				target[j], name[j], extracted[j] = p.Decide(view(), n, 2, 0.8, ws)
				if !forecastFirst {
					point[j] = p.ForecastTail(view(), n, 3, nil, ws)
				}
				qs[j] = p.ForecastQuantilesTail(view(), n, 3, levels, nil, ws)
			}
			if target[0] != target[1] || name[0] != name[1] || extracted[0] != extracted[1] ||
				!sameBits(point[0], point[1]) || !sameBits(qs[0], qs[1]) {
				t.Fatalf("block %d window %d, n=%d, pair %d: whole history answers %d %s extracted=%v %v %v; read view %d %s extracted=%v %v %v",
					m.cfg.BlockSize, m.cfg.Window, n, k,
					target[0], name[0], extracted[0], point[0], qs[0],
					target[1], name[1], extracted[1], point[1], qs[1])
			}
		}
	}
}

// TestDecideOnKeptTail is the oracle for Reads: over several block
// size/window pairs, including windows longer than a block, every
// serving call on exactly the Reads(n) values the policy asks for
// answers exactly what it answers on the whole n-observation history.
func TestDecideOnKeptTail(t *testing.T) {
	base := reassigned(t)
	for i, g := range []struct{ bs, window int }{{72, 60}, {30, 30}, {16, 50}, {12, 120}, {40, 1}} {
		m := withGeometry(base, g.bs, g.window)
		checkKeptTail(t, m, regimeSeries(int64(40+i), 4*g.bs+g.window+7))
	}
}

// FuzzDecideOnKeptTail is TestDecideOnKeptTail over random series and
// geometries: block sizes 8..80, windows 1..160, so every view a policy
// asks for is fuzzed at exactly the length it asks for.
func FuzzDecideOnKeptTail(f *testing.F) {
	f.Add(int64(1), uint8(64), uint8(59), uint16(300))
	f.Add(int64(2), uint8(0), uint8(90), uint16(120))
	f.Add(int64(3), uint8(22), uint8(0), uint16(200))
	base := reassigned(f)
	f.Fuzz(func(t *testing.T, seed int64, bs, window uint8, n uint16) {
		m := withGeometry(base, 8+int(bs)%73, 1+int(window)%160)
		checkKeptTail(t, m, regimeSeries(seed, 3+int(n)%400))
	})
}

// TestShortViewLeavesBlockDue pins what a view shorter than Reads(n)
// does — a store that lost a due block with its page serves one: the
// call classifies nothing and keeps the forecaster, the block stays due,
// and the next call with the whole view classifies it as a policy that
// never saw the short one does.
func TestShortViewLeavesBlockDue(t *testing.T) {
	m := reassigned(t)
	bs := m.cfg.BlockSize
	hist := regimeSeries(5, 3*bs+bs/2)
	n := len(hist)
	ws := forecast.NewWorkspace()
	p, ref := m.NewAppPolicy(0.2), m.NewAppPolicy(0.2)
	k, _, _ := p.Reads(n)
	_, name, extracted := p.Decide(hist[n-k+1:], n, 1, 0, ws)
	if extracted || name != m.DefaultForecaster().Name() {
		t.Fatalf("a short view extracted=%v and served %s, want no extraction and %s", extracted, name, m.DefaultForecaster().Name())
	}
	if again, _, _ := p.Reads(n); again != k {
		t.Fatalf("after a short view Reads(%d) = %d, want the due block's %d", n, again, k)
	}
	target, name, extracted := p.Decide(hist[n-k:], n, 1, 0, ws)
	wantTarget, wantName, _ := ref.Decide(hist, n, 1, 0, ws)
	if !extracted || target != wantTarget || name != wantName {
		t.Fatalf("the whole view answered %d %s extracted=%v, a fresh policy %d %s", target, name, extracted, wantTarget, wantName)
	}
}
