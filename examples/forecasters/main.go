// Forecasters: compare every forecaster in FeMux's set on three canonical
// traffic patterns — periodic, trending, and bursty — showing why no single
// forecaster wins everywhere (§4.2.2), which is the premise of multiplexing.
//
//	go run ./examples/forecasters
package main

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
)

func main() {
	rng := rand.New(rand.NewSource(5))
	n := 240 // four hours of minutes
	patterns := map[string][]float64{
		"periodic": func() []float64 {
			v := make([]float64, n)
			for i := range v {
				if i%20 < 4 {
					v[i] = 8
				}
			}
			return v
		}(),
		"trending": func() []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = 0.05*float64(i) + 0.3*math.Abs(rng.NormFloat64())
			}
			return v
		}(),
		"bursty": func() []float64 {
			v := make([]float64, n)
			on := false
			for i := range v {
				if rng.Float64() < 0.08 {
					on = !on
				}
				if on {
					v[i] = 4 + 2*rng.Float64()
				}
			}
			return v
		}(),
	}

	set := forecast.DefaultSet()
	fmt.Printf("%-12s", "forecaster")
	order := []string{"periodic", "trending", "bursty"}
	for _, p := range order {
		fmt.Printf("%12s", p)
	}
	fmt.Println("   (one-step-ahead MAE over the last 2 hours; lower is better)")

	type score struct {
		name string
		mae  map[string]float64
	}
	best := map[string]string{}
	bestVal := map[string]float64{}
	var rows []score
	// Every forecaster is a forecast.Forecaster: ForecastInto predicts the
	// point trajectory (ForecastQuantilesInto, its bands), writing into
	// dst with all scratch state in one workspace shared by the whole set.
	ws := forecast.NewWorkspace()
	for _, fc := range set {
		row := score{name: fc.Name(), mae: map[string]float64{}}
		for _, p := range order {
			series := patterns[p]
			var sum float64
			var cnt int
			for t := 120; t < len(series); t++ {
				pred := fc.ForecastInto(series[t-120:t], 1, ws.Out(1), ws)[0]
				sum += math.Abs(pred - series[t])
				cnt++
			}
			m := sum / float64(cnt)
			row.mae[p] = m
			if v, ok := bestVal[p]; !ok || m < v {
				bestVal[p] = m
				best[p] = fc.Name()
			}
		}
		rows = append(rows, row)
	}
	for _, row := range rows {
		fmt.Printf("%-12s", row.name)
		for _, p := range order {
			fmt.Printf("%12.3f", row.mae[p])
		}
		fmt.Println()
	}
	fmt.Println()
	for _, p := range order {
		fmt.Printf("best on %-9s %s\n", p+":", best[p])
	}
	fmt.Println("\nDifferent patterns have different winners — the case for multiplexing.")
}
