package forecast

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Property tests for the quantile layer: every forecaster, randomized
// and adversarial histories, well-formed and degenerate level sets. The
// pinned invariants are the ones the pod-conversion policy relies on
// (quantile.go's header): monotone in level, finite, clamped
// non-negative, deterministic to the bit, and p50 == point for the
// Gaussian-band forecasters.

// quantileSet returns every built-in forecaster.
func quantileSet() []Forecaster {
	return append(DefaultSet(), NewMovingAverage(60), Naive{}, Zero{})
}

// gaussianBand reports whether the forecaster's 0.5 level is defined to
// be bit-identical to its point forecast. The Markov chain's point
// forecast is an expected value (not a median) and the peak/keep-warm
// envelopes' point forecast is a max, so those are exempt.
func gaussianBand(name string) bool {
	switch {
	case len(name) >= 4 && name[:4] == "peak":
		return false
	case len(name) >= 4 && name[:4] == "warm":
		return false
	case len(name) >= 6 && name[:6] == "markov":
		return false
	}
	return true
}

// propHistories builds the adversarial history menu: random noisy,
// NaN-gapped, constant, heavy-tailed, bursty-sparse, short, and empty.
func propHistories(rng *rand.Rand, n int) map[string][]float64 {
	noisy := make([]float64, n)
	for i := range noisy {
		noisy[i] = math.Max(0, 3+2*math.Sin(float64(i)/7)+rng.NormFloat64())
	}
	gapped := make([]float64, n)
	copy(gapped, noisy)
	for i := 3; i < n; i += 7 {
		gapped[i] = math.NaN()
	}
	constant := make([]float64, n)
	for i := range constant {
		constant[i] = 2.5
	}
	heavy := make([]float64, n)
	for i := range heavy {
		heavy[i] = math.Exp(2 * rng.NormFloat64()) // lognormal: occasional huge spikes
	}
	bursty := make([]float64, n)
	for i := range bursty {
		if rng.Float64() < 0.06 {
			bursty[i] = 1 + 9*rng.Float64()
		}
	}
	return map[string][]float64{
		"noisy":    noisy,
		"nan-gaps": gapped,
		"constant": constant,
		"heavy":    heavy,
		"bursty":   bursty,
		"short":    {1.5, 0.5},
		"empty":    {},
	}
}

var propLevelSets = map[string][]float64{
	"sorted":     {0.5, 0.75, 0.9, 0.95, 0.99},
	"unsorted":   {0.9, 0.5, 0.99, 0.5, 0.75},
	"degenerate": {0, 0.5, 1},
	"single":     {0.95},
}

// checkQuantileCurves asserts the structural invariants on one flat
// level-major result.
func checkQuantileCurves(t *testing.T, name string, levels, flat []float64, horizon int) {
	t.Helper()
	if len(flat) != len(levels)*horizon {
		t.Fatalf("%s: got %d values, want %d", name, len(flat), len(levels)*horizon)
	}
	for i, v := range flat {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s: value[%d] = %v, want finite", name, i, v)
		}
		if v < 0 {
			t.Fatalf("%s: value[%d] = %v, want >= 0", name, i, v)
		}
	}
	// Monotone: for every comparable (non-NaN) level pair p <= p', the
	// p-curve never exceeds the p'-curve at any step — regardless of the
	// order levels were requested in.
	for a := range levels {
		for b := range levels {
			if math.IsNaN(levels[a]) || math.IsNaN(levels[b]) || levels[a] > levels[b] {
				continue
			}
			for s := 0; s < horizon; s++ {
				lo, hi := flat[a*horizon+s], flat[b*horizon+s]
				if lo > hi {
					t.Fatalf("%s: curves cross at step %d: p%g=%v > p%g=%v",
						name, s, levels[a]*100, lo, levels[b]*100, hi)
				}
			}
		}
	}
}

// TestForecastQuantilesProperties sweeps every forecaster across the
// history menu and level sets, asserting the structural invariants plus
// bitwise determinism across repeated calls and across fresh-vs-pooled
// workspaces.
func TestForecastQuantilesProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	hists := propHistories(rng, 120)
	const horizon = 4
	for _, qf := range quantileSet() {
		for hn, hist := range hists {
			for ln, levels := range propLevelSets {
				t.Run(fmt.Sprintf("%s/%s/%s", qf.Name(), hn, ln), func(t *testing.T) {
					ws := NewWorkspace()
					first := append([]float64(nil),
						qf.ForecastQuantilesInto(hist, horizon, levels, nil, ws)...)
					checkQuantileCurves(t, qf.Name(), levels, first, horizon)

					// Same workspace again: bit-identical.
					again := qf.ForecastQuantilesInto(hist, horizon, levels, nil, ws)
					for i := range first {
						if math.Float64bits(first[i]) != math.Float64bits(again[i]) {
							t.Fatalf("repeat call diverged at %d: %v vs %v", i, first[i], again[i])
						}
					}

					// No workspace, fresh destination: bit-identical.
					fresh := qf.ForecastQuantilesInto(hist, horizon, levels, nil, nil)
					for i := range first {
						if math.Float64bits(first[i]) != math.Float64bits(fresh[i]) {
							t.Fatalf("fresh workspace diverged at %d: %v vs %v", i, first[i], fresh[i])
						}
					}
				})
			}
		}
	}
}

// TestQuantileP50MatchesPoint pins the Gaussian-band contract: the 0.5
// level is bit-identical to the point forecast, because z(0.5) is
// exactly zero and the quantile path builds its point curve with the
// same operations and clamps as ForecastInto.
func TestQuantileP50MatchesPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	hists := propHistories(rng, 120)
	const horizon = 4
	levels := []float64{0.5}
	for _, qf := range quantileSet() {
		if !gaussianBand(qf.Name()) {
			continue
		}
		for hn, hist := range hists {
			if hn == "nan-gaps" {
				// NaN histories can make the point forecast NaN; the
				// quantile path clamps NaN to 0 by contract, so bitwise
				// equality is only promised on finite histories.
				continue
			}
			t.Run(qf.Name()+"/"+hn, func(t *testing.T) {
				ws := NewWorkspace()
				point := append([]float64(nil), Into(qf, hist, horizon, nil, ws)...)
				q50 := qf.ForecastQuantilesInto(hist, horizon, levels, nil, ws)
				for s := 0; s < horizon; s++ {
					if math.Float64bits(point[s]) != math.Float64bits(q50[s]) {
						t.Fatalf("p50 != point at step %d: %v vs %v", s, q50[s], point[s])
					}
				}
			})
		}
	}
}

// TestQuantileDoesNotPerturbPointPath interleaves quantile and point
// calls on one shared workspace: the quantile path borrows the same
// scratch pools, so it must leave the point kernels' results untouched
// (workspace-pollution check).
func TestQuantileDoesNotPerturbPointPath(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	hists := propHistories(rng, 120)
	const horizon = 3
	levels := []float64{0.5, 0.9, 0.99}
	for _, qf := range quantileSet() {
		for hn, hist := range hists {
			t.Run(qf.Name()+"/"+hn, func(t *testing.T) {
				clean := NewWorkspace()
				want := append([]float64(nil), Into(qf, hist, horizon, nil, clean)...)

				shared := NewWorkspace()
				qf.ForecastQuantilesInto(hist, horizon, levels, nil, shared)
				got := Into(qf, hist, horizon, nil, shared)
				for s := range want {
					if math.Float64bits(want[s]) != math.Float64bits(got[s]) {
						t.Fatalf("point forecast after quantile call diverged at %d: %v vs %v",
							s, got[s], want[s])
					}
				}
			})
		}
	}
}

// TestEnvelopeQuantileSemantics pins the keep-alive family's empirical
// contract: high levels reproduce the envelope (the point forecast) and
// the lowest level is the window minimum (with keep-warm rounding for
// CeilPeak).
func TestEnvelopeQuantileSemantics(t *testing.T) {
	hist := []float64{0.2, 3, 1, 0.5, 2, 0.8, 1.5, 0.4, 2.5, 0.9}
	const horizon = 2
	for _, fc := range []Forecaster{NewRecentPeak(10), NewCeilPeak(10)} {
		point := Into(fc, hist, horizon, nil, nil)
		flat := fc.ForecastQuantilesInto(hist, horizon, []float64{0.05, 0.999}, nil, nil)
		for s := 0; s < horizon; s++ {
			if flat[horizon+s] != point[s] {
				t.Fatalf("%s: p99.9[%d] = %v, want envelope %v", fc.Name(), s, flat[horizon+s], point[s])
			}
		}
		wantLow := 0.2
		if fc.Name() == "warm10" {
			wantLow = 1 // ceil of the min
		}
		if flat[0] != wantLow {
			t.Fatalf("%s: p5 = %v, want window min %v", fc.Name(), flat[0], wantLow)
		}
	}
}
