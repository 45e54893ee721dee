package femux

import (
	"math"
	"math/rand"
	"testing"

	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
	"github.com/ubc-cirrus-lab/femux-go/internal/sim"
)

// windowedPolicy is the oracle for Decide: the policy FeMux ran as its
// own type before Decide was built on sim.ForecastPolicy. It feeds the
// forecaster the last window values of the history (FeMux feeds two
// hours, §4.3.3) and provisions for the peak of the forecast over the
// horizon, with no headroom and no keep-alive floor. It forecasts with
// no workspace, so a match also shows that the policy's results do not
// depend on the workspace it is handed.
type windowedPolicy struct {
	fc      forecast.Forecaster
	window  int
	horizon int
}

// forecast is the curve the policy provisions from: the point forecast
// at level <= 0, else the level-quantile curve.
func (p windowedPolicy) forecast(history []float64, level float64) []float64 {
	window := history[len(history)-min(p.window, len(history)):]
	if level <= 0 {
		return p.fc.ForecastInto(window, p.horizon, nil, nil)
	}
	return p.fc.ForecastQuantilesInto(window, p.horizon, []float64{level}, nil, nil)
}

// target is the unit count for the peak of forecast's curve.
func (p windowedPolicy) target(history []float64, unitC int, level float64) int {
	peak := 0.0
	for _, v := range p.forecast(history, level) {
		if v > peak {
			peak = v
		}
	}
	return sim.ForecastUnits(peak, unitC)
}

// TestDecideMatchesWindowedReference runs every forecaster of the default
// set through an AppPolicy that uses it and checks Decide,
// TargetQuantilesWS and the forecasts behind them against the oracle:
// targets equal, forecasts equal to the bit, at the point forecast and at
// two quantile levels, for histories shorter and longer than the window.
// At a positive level the target must also ignore a ForecastPolicy's
// Headroom, which scales only the point forecast.
func TestDecideMatchesWindowedReference(t *testing.T) {
	const window, horizon = 60, 3
	rng := rand.New(rand.NewSource(11))
	series := make([]float64, 3*window)
	for i := range series {
		v := 3 + 2*math.Sin(2*math.Pi*float64(i)/17) + rng.NormFloat64()
		if i%23 < 4 {
			v = 0 // idle gaps: the keep-alive forecasters' quantiles spread
		}
		series[i] = math.Max(0, v)
	}
	set := forecast.DefaultSet()
	ws := forecast.NewWorkspace()
	for _, fc := range set {
		// One block never completes, so the app keeps the default: fc.
		m := (&Model{cfg: Config{BlockSize: 1 << 20, Window: window, Horizon: horizon, Forecasters: set}, defaultFC: fc.Name()}).index()
		ref := windowedPolicy{fc: fc, window: window, horizon: horizon}
		for _, n := range []int{0, 1, 7, window - 1, window, window + 1, len(series)} {
			h := series[:n]
			for _, level := range []float64{0, 0.5, 0.95} {
				p := m.NewAppPolicy(0)
				for _, unitC := range []int{1, 4} {
					want := ref.target(h, unitC, level)
					got, name, _ := p.Decide(h, n, unitC, level, ws)
					if got != want || name != fc.Name() {
						t.Fatalf("%s, n=%d, level %g, unitC %d: Decide = %d by %s, want %d", fc.Name(), n, level, unitC, got, name, want)
					}
					if got := p.TargetQuantilesWS(h, unitC, level, ws); got != want {
						t.Fatalf("%s, n=%d, level %g, unitC %d: TargetQuantilesWS = %d, want %d", fc.Name(), n, level, unitC, got, want)
					}
					if level > 0 {
						padded := sim.ForecastPolicy{Forecaster: fc, Window: window, Horizon: horizon, Level: level, Headroom: 0.5}
						if got := padded.Target(h, unitC, ws); got != want {
							t.Fatalf("%s, n=%d, level %g, unitC %d: with headroom 0.5, target %d, want %d", fc.Name(), n, level, unitC, got, want)
						}
					}
				}
				var got []float64
				if level <= 0 {
					got = p.ForecastWS(h, horizon, nil, ws)
				} else {
					got = p.ForecastQuantilesTail(h, n, horizon, []float64{level}, nil, ws)
				}
				if want := ref.forecast(h, level); !sameBits(got, want) {
					t.Fatalf("%s, n=%d, level %g: forecast %v, want %v", fc.Name(), n, level, got, want)
				}
			}
		}
	}
}
