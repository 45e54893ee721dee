package baselines

import (
	"testing"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/rum"
	"github.com/ubc-cirrus-lab/femux-go/internal/sim"
	"github.com/ubc-cirrus-lab/femux-go/internal/timeseries"
)

// periodicHistory builds a history with bursts of the given concurrency
// every period intervals, ending right after a burst.
func periodicHistory(cycles, period int, conc float64) []float64 {
	h := make([]float64, 0, cycles*period)
	for c := 0; c < cycles; c++ {
		h = append(h, conc)
		for i := 1; i < period; i++ {
			h = append(h, 0)
		}
	}
	return append(h, conc) // end active
}

func TestHistogramKeepsCapacityWhileActive(t *testing.T) {
	p := DefaultHybridHistogram()
	h := periodicHistory(6, 10, 2)
	if got := p.Target(h, 1, nil); got != 2 {
		t.Errorf("active target = %d, want 2", got)
	}
}

func TestHistogramReleasesAndPreWarms(t *testing.T) {
	p := DefaultHybridHistogram()
	// Bursts every 10 intervals: gaps are all 9. Pre-warm percentile of
	// constant gaps = 9, keep-alive = 9. After a burst the policy should
	// release capacity early in the gap and re-warm near interval 8-9.
	base := periodicHistory(8, 10, 1)
	// elapsed 3: mid-gap, released.
	h := append(append([]float64{}, base...), 0, 0, 0)
	if got := p.Target(h, 1, nil); got != 0 {
		t.Errorf("mid-gap target = %d, want 0 (released)", got)
	}
	// elapsed 8: within pre-warm window (pre-1 = 8), warm.
	h = append(append([]float64{}, base...), 0, 0, 0, 0, 0, 0, 0, 0)
	if got := p.Target(h, 1, nil); got != 1 {
		t.Errorf("pre-warm target = %d, want 1", got)
	}
	// elapsed 15: past the keep-alive percentile, released again.
	h = base
	for i := 0; i < 15; i++ {
		h = append(h, 0)
	}
	if got := p.Target(h, 1, nil); got != 0 {
		t.Errorf("overdue target = %d, want 0", got)
	}
}

func TestHistogramFallbackKeepAlive(t *testing.T) {
	p := DefaultHybridHistogram()
	// Only two gaps observed: below MinSamples, fallback applies.
	h := []float64{1, 0, 0, 1, 0, 0, 1, 0, 0}
	if got := p.Target(h, 1, nil); got != 1 {
		t.Errorf("fallback target = %d, want 1 (within fallback KA)", got)
	}
	// Long idle beyond the fallback window: release.
	for i := 0; i < 12; i++ {
		h = append(h, 0)
	}
	if got := p.Target(h, 1, nil); got != 0 {
		t.Errorf("fallback overdue target = %d, want 0", got)
	}
}

func TestHistogramShortGapsDegenerateToKeepAlive(t *testing.T) {
	p := DefaultHybridHistogram()
	// Gaps of 1: pre-warm bound < 2 -> continuous keep-alive up to p99.
	h := []float64{1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0}
	if got := p.Target(h, 1, nil); got != 1 {
		t.Errorf("short-gap target = %d, want 1", got)
	}
}

func TestHistogramEmptyAndIdle(t *testing.T) {
	p := DefaultHybridHistogram()
	if got := p.Target(nil, 1, nil); got != 0 {
		t.Errorf("empty history target = %d", got)
	}
	if got := p.Target(make([]float64, 50), 1, nil); got != 0 {
		t.Errorf("never-active target = %d", got)
	}
}

func TestHistogramBeatsFixedKAOnPredictableGaps(t *testing.T) {
	// Periodic app with 30-minute gaps: a 10-min KA pays a cold start per
	// cycle AND wastes 10 minutes; the histogram pre-warms just in time.
	vals := make([]float64, 600)
	for i := 0; i < len(vals); i += 30 {
		vals[i] = 1
	}
	app := sim.AppTrace{Demand: timeseries.New(time.Minute, vals)}
	cfg := sim.DefaultConcConfig()
	metric := rum.Default()

	hist := sim.SimulateApp(app, DefaultHybridHistogram(), cfg, false).Sample
	ka := sim.SimulateApp(app, sim.KeepAlivePolicy{IdleIntervals: 10}, cfg, false).Sample
	if metric.Eval(hist) >= metric.Eval(ka) {
		t.Errorf("histogram RUM %v should beat 10-min KA %v on periodic gaps",
			metric.Eval(hist), metric.Eval(ka))
	}
	// And it should incur fewer cold starts than scale-to-zero.
	if hist.ColdStarts >= len(vals)/30 {
		t.Errorf("histogram cold starts = %d, pre-warming absent", hist.ColdStarts)
	}
}
