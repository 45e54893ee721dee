package forecast

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchWindow is one history the kernel benchmarks run over.
type benchWindow struct {
	name string
	hist []float64
}

// benchWindows are window lengths 10, 60, 120 and 600 (the floor window,
// the paper's block window, femuxd's and the training sweep's default
// window, and a long history that also forces the FFT Bluestein path),
// plus a 120-sample window of an idle app, ~90% exact zeros, so a kernel
// that wins only on dense windows shows.
func benchWindows() []benchWindow {
	var ws []benchWindow
	for _, n := range []int{10, 60, 120, 600} {
		ws = append(ws, benchWindow{fmt.Sprintf("window=%d", n), allocHistory(n)})
	}
	rng := rand.New(rand.NewSource(120))
	sparse := make([]float64, 120)
	for i := range sparse {
		if rng.Intn(10) == 0 {
			sparse[i] = 0.5 + 3*rng.Float64()
		}
	}
	return append(ws, benchWindow{"sparse=120", sparse})
}

// BenchmarkForecastKernels measures ForecastInto with a warmed workspace
// for every forecaster in the default set over benchWindows. CI's
// bench-smoke step runs this at -benchtime=1x; the EXPERIMENTS.md delta
// table compares it against BenchmarkForecasters (no dst, no workspace)
// on the reference box.
func BenchmarkForecastKernels(b *testing.B) {
	for _, w := range benchWindows() {
		hist := w.hist
		for _, fc := range DefaultSet() {
			b.Run(fc.Name()+"/"+w.name, func(b *testing.B) {
				const horizon = 1
				ws := NewWorkspace()
				dst := make([]float64, horizon)
				fc.ForecastInto(hist, horizon, dst, ws)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fc.ForecastInto(hist, horizon, dst, ws)
				}
			})
		}
	}
}

// BenchmarkForecastQuantiles measures the quantile fast path over the
// same windows as BenchmarkForecastKernels, with the five-level
// request the serving path issues. Runs under CI's bench-smoke at
// -benchtime=1x; the in-loop AllocsPerRun assertion turns any steady-
// state allocation regression into a hard failure there, not just a
// number drift on the reference box.
func BenchmarkForecastQuantiles(b *testing.B) {
	levels := []float64{0.25, 0.5, 0.9, 0.95, 0.99}
	for _, w := range benchWindows() {
		hist := w.hist
		for _, fc := range DefaultSet() {
			b.Run(fc.Name()+"/"+w.name, func(b *testing.B) {
				const horizon = 1
				ws := NewWorkspace()
				dst := make([]float64, len(levels)*horizon)
				fc.ForecastQuantilesInto(hist, horizon, levels, dst, ws)
				fc.ForecastQuantilesInto(hist, horizon, levels, dst, ws)
				if allocs := testing.AllocsPerRun(10, func() {
					fc.ForecastQuantilesInto(hist, horizon, levels, dst, ws)
				}); allocs != 0 {
					b.Fatalf("%s %s: %v allocs/op at steady state, want 0",
						fc.Name(), w.name, allocs)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fc.ForecastQuantilesInto(hist, horizon, levels, dst, ws)
				}
			})
		}
	}
}
