package femux

import (
	"math"
	"testing"

	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
)

// reassigned returns a trained model whose group table is rewritten so
// that no group uses the default forecaster: an unclassified policy then
// answers differently from a classified one, whatever the block.
func reassigned(t testing.TB) *Model {
	t.Helper()
	m, err := Train(mixedFleet(7, 12, 288), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(m.cfg.Forecasters))
	for _, fc := range m.cfg.Forecasters {
		if fc.Name() != m.defaultFC {
			names = append(names, fc.Name())
		}
	}
	for g := range m.perGroup {
		m.perGroup[g] = names[g%len(names)]
	}
	return m.index()
}

func sameBits(a, b []float64) bool {
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

// TestForecastClassifiesFirst is the unit half of the bit-identity fix:
// a forecast (point or quantile) issued before any target call must
// classify the completed block first, exactly as a target call does.
func TestForecastClassifiesFirst(t *testing.T) {
	m := reassigned(t)
	series := mixedFleet(21, 1, 200)[0].Demand.Values
	levels := []float64{0.5, 0.9, 0.99}

	ctl := m.NewAppPolicy(0.2)
	ctl.Target(series, 1, nil)
	if ctl.CurrentForecaster() == m.defaultFC {
		t.Fatal("setup: the classified block maps to the default forecaster")
	}
	wantQ := ctl.ForecastQuantilesTail(series, len(series), 5, levels, nil, nil)
	want := ctl.ForecastWS(series, 5, nil, nil)

	q := m.NewAppPolicy(0.2)
	if got := q.ForecastQuantilesTail(series, len(series), 5, levels, nil, nil); !sameBits(got, wantQ) {
		t.Errorf("quantile forecast first: %v, want %v", got, wantQ)
	}
	p := m.NewAppPolicy(0.2)
	if got := p.ForecastWS(series, 5, nil, forecast.NewWorkspace()); !sameBits(got, want) {
		t.Errorf("point forecast first: %v, want %v", got, want)
	}
	for _, pol := range []*AppPolicy{q, p} {
		if pol.CurrentForecaster() != ctl.CurrentForecaster() {
			t.Errorf("forecaster %q, want %q", pol.CurrentForecaster(), ctl.CurrentForecaster())
		}
	}
}

// TestResumeAppPolicy walks a regime-changing series and, at every
// length, rebuilds the policy from (length, group) alone: the resumed
// policy must be indistinguishable from a fresh one that classified the
// same history, and must cost one allocation. The used-forecaster bitset
// is checked against the name set it replaced.
func TestResumeAppPolicy(t *testing.T) {
	m := reassigned(t)
	series := append(append([]float64(nil), mixedFleet(30, 1, 150)[0].Demand.Values...),
		mixedFleet(31, 2, 150)[1].Demand.Values...)
	bs := m.cfg.BlockSize

	p := m.NewAppPolicy(0.2)
	usedNames := map[string]bool{p.CurrentForecaster(): true}
	switches := 0
	for n := 1; n <= len(series); n++ {
		h := series[:n]
		if _, ok := p.Classified(n); ok != (n%bs != 0) {
			t.Fatalf("n=%d: Classified ok=%v before the call", n, ok)
		}
		before := p.CurrentForecaster()
		want := p.Target(h, 1, nil)
		if p.CurrentForecaster() != before {
			switches++
		}
		usedNames[p.CurrentForecaster()] = true
		group, ok := p.Classified(n)
		if !ok {
			t.Fatalf("n=%d: not classified after a target call", n)
		}

		r, resumed := m.ResumeAppPolicy(0.2, n, group)
		if resumed != (n >= bs) {
			t.Fatalf("n=%d: resumed=%v", n, resumed)
		}
		if g, ok := r.Classified(n); !ok || (resumed && g != group) {
			t.Fatalf("n=%d: resumed policy reports group %d ok=%v, want %d", n, g, ok, group)
		}
		if r.CurrentForecaster() != p.CurrentForecaster() {
			t.Fatalf("n=%d: resumed forecaster %q, want %q", n, r.CurrentForecaster(), p.CurrentForecaster())
		}
		// A fresh policy that classifies this history is the uncached path.
		f := m.NewAppPolicy(0.2)
		if got := f.Target(h, 1, nil); got != want || r.Target(h, 1, nil) != want {
			t.Fatalf("n=%d: targets fresh=%d resumed=%d live=%d", n, got, r.Target(h, 1, nil), want)
		}
		if !sameBits(r.ForecastWS(h, 4, nil, nil), f.ForecastWS(h, 4, nil, nil)) {
			t.Fatalf("n=%d: resumed forecast differs from the fresh policy's", n)
		}
		if r.ForecastersUsed() != f.ForecastersUsed() || r.Switches() != f.Switches() {
			t.Fatalf("n=%d: resumed used/switches %d/%d, fresh %d/%d", n,
				r.ForecastersUsed(), r.Switches(), f.ForecastersUsed(), f.Switches())
		}
	}
	if p.ForecastersUsed() != len(usedNames) || p.Switches() != switches {
		t.Errorf("used/switches = %d/%d, want %d/%d", p.ForecastersUsed(), p.Switches(), len(usedNames), switches)
	}
	if len(usedNames) < 2 {
		t.Error("setup: the series never switched forecasters")
	}
	if allocs := testing.AllocsPerRun(100, func() { m.ResumeAppPolicy(0.2, 3*bs, 1) }); allocs != 1 {
		t.Errorf("ResumeAppPolicy allocates %v times, want 1", allocs)
	}
}

// TestForecasterSetBound: the used-forecaster bitset is 64 wide, so a
// wider set is refused at the door rather than miscounted.
func TestForecasterSetBound(t *testing.T) {
	cfg := testConfig()
	for len(cfg.Forecasters) <= maxForecasters {
		cfg.Forecasters = append(cfg.Forecasters, forecast.NewMovingAverage(len(cfg.Forecasters)+1))
	}
	if _, err := Train(mixedFleet(7, 3, 144), cfg); err == nil {
		t.Errorf("a set of %d forecasters trained", len(cfg.Forecasters))
	}
}
