package forecast

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// allocHistory builds a noisy but non-degenerate window of the given
// length so every kernel takes its full code path (thresholds exist,
// fits succeed, the FFT runs).
func allocHistory(n int) []float64 {
	rng := rand.New(rand.NewSource(int64(n)))
	h := make([]float64, n)
	for i := range h {
		h[i] = math.Max(0, 4+3*math.Sin(2*math.Pi*float64(i)/12)+rng.NormFloat64())
	}
	return h
}

// TestForecastIntoZeroAlloc asserts the satellite guarantee: after a
// warm-up call has grown the workspace (and cached the FFT plan for the
// window length), every ForecastInto implementation performs zero heap
// allocations. Window 600 is not a power of two, so the FFT forecaster's
// Bluestein path is covered too.
func TestForecastIntoZeroAlloc(t *testing.T) {
	set := append(DefaultSet(), NewMovingAverage(60), Naive{}, Zero{})
	for _, window := range []int{10, 64, 600} {
		hist := allocHistory(window)
		for _, fc := range set {
			t.Run(fmt.Sprintf("%s/window=%d", fc.Name(), window), func(t *testing.T) {
				const horizon = 5
				ws := NewWorkspace()
				dst := make([]float64, horizon)
				// Warm up: grow buffers, build FFT plans.
				fc.ForecastInto(hist, horizon, dst, ws)
				fc.ForecastInto(hist, horizon, dst, ws)
				allocs := testing.AllocsPerRun(20, func() {
					fc.ForecastInto(hist, horizon, dst, ws)
				})
				if allocs != 0 {
					t.Fatalf("%s window=%d: %v allocs/op at steady state, want 0",
						fc.Name(), window, allocs)
				}
			})
		}
	}
}

// TestForecastIntoZeroAllocMixedLengths pins the pooled-workspace case:
// one workspace serves apps at the full window and apps whose history is
// still shorter, so the history length changes from call to call. After
// one pass over the lengths, no call allocates, including the FFT
// forecaster's, which keeps the window's Bluestein plan and rebuilds its
// other plan in place.
func TestForecastIntoZeroAllocMixedLengths(t *testing.T) {
	lens := []int{120, 100, 120, 90, 75}
	hists := make([][]float64, len(lens))
	for i, n := range lens {
		hists[i] = allocHistory(n)
	}
	for _, fc := range DefaultSet() {
		t.Run(fc.Name(), func(t *testing.T) {
			const horizon = 5
			ws := NewWorkspace()
			dst := make([]float64, horizon)
			for _, h := range hists {
				fc.ForecastInto(h, horizon, dst, ws)
			}
			i := 0
			allocs := testing.AllocsPerRun(20, func() {
				fc.ForecastInto(hists[i%len(hists)], horizon, dst, ws)
				i++
			})
			if allocs != 0 {
				t.Fatalf("%s: %v allocs/op over lengths %v, want 0", fc.Name(), allocs, lens)
			}
		})
	}
}

// TestForecastIntoZeroAllocDegenerate covers the fallback paths (short
// history, constant history) — they must be allocation-free too, since
// real fleets are full of idle apps that hit exactly these branches.
func TestForecastIntoZeroAllocDegenerate(t *testing.T) {
	short := []float64{1, 2}
	constant := make([]float64, 60)
	for i := range constant {
		constant[i] = 3
	}
	for _, fc := range DefaultSet() {
		for name, hist := range map[string][]float64{"short": short, "constant": constant} {
			t.Run(fc.Name()+"/"+name, func(t *testing.T) {
				const horizon = 3
				ws := NewWorkspace()
				dst := make([]float64, horizon)
				fc.ForecastInto(hist, horizon, dst, ws)
				fc.ForecastInto(hist, horizon, dst, ws)
				allocs := testing.AllocsPerRun(20, func() {
					fc.ForecastInto(hist, horizon, dst, ws)
				})
				if allocs != 0 {
					t.Fatalf("%s/%s: %v allocs/op at steady state, want 0", fc.Name(), name, allocs)
				}
			})
		}
	}
}

// TestForecastQuantilesIntoZeroAlloc extends the zero-allocation pin to
// the quantile path: after warm-up, every ForecastQuantilesInto runs
// without touching the heap, across the same window regimes as the
// point-path test (600 covers the FFT Bluestein plan) and a five-level
// request like the /v1/forecast serving path issues.
func TestForecastQuantilesIntoZeroAlloc(t *testing.T) {
	levels := []float64{0.25, 0.5, 0.9, 0.95, 0.99}
	set := append(DefaultSet(), NewMovingAverage(60), Naive{}, Zero{})
	for _, window := range []int{10, 64, 600} {
		hist := allocHistory(window)
		for _, fc := range set {
			t.Run(fmt.Sprintf("%s/window=%d", fc.Name(), window), func(t *testing.T) {
				const horizon = 5
				ws := NewWorkspace()
				dst := make([]float64, len(levels)*horizon)
				fc.ForecastQuantilesInto(hist, horizon, levels, dst, ws)
				fc.ForecastQuantilesInto(hist, horizon, levels, dst, ws)
				allocs := testing.AllocsPerRun(20, func() {
					fc.ForecastQuantilesInto(hist, horizon, levels, dst, ws)
				})
				if allocs != 0 {
					t.Fatalf("%s window=%d: %v allocs/op at steady state, want 0",
						fc.Name(), window, allocs)
				}
			})
		}
	}
}

// TestForecastQuantilesIntoZeroAllocDegenerate pins the quantile
// fallback paths (short and constant histories) to zero allocations —
// sparse fleets spend most of their calls exactly there.
func TestForecastQuantilesIntoZeroAllocDegenerate(t *testing.T) {
	levels := []float64{0.5, 0.95}
	short := []float64{1, 2}
	constant := make([]float64, 60)
	for i := range constant {
		constant[i] = 3
	}
	for _, fc := range DefaultSet() {
		for name, hist := range map[string][]float64{"short": short, "constant": constant} {
			t.Run(fc.Name()+"/"+name, func(t *testing.T) {
				const horizon = 3
				ws := NewWorkspace()
				dst := make([]float64, len(levels)*horizon)
				fc.ForecastQuantilesInto(hist, horizon, levels, dst, ws)
				fc.ForecastQuantilesInto(hist, horizon, levels, dst, ws)
				allocs := testing.AllocsPerRun(20, func() {
					fc.ForecastQuantilesInto(hist, horizon, levels, dst, ws)
				})
				if allocs != 0 {
					t.Fatalf("%s/%s: %v allocs/op at steady state, want 0", fc.Name(), name, allocs)
				}
			})
		}
	}
}
