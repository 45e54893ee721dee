package sim

import (
	"math"
	"testing"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
	"github.com/ubc-cirrus-lab/femux-go/internal/timeseries"
	"github.com/ubc-cirrus-lab/femux-go/internal/trace"
)

func demandSeries(vals []float64) timeseries.Series {
	return timeseries.New(time.Minute, vals)
}

func TestPolicyTargets(t *testing.T) {
	hist := []float64{0, 2, 4, 0, 1}
	cases := []struct {
		name  string
		p     Policy
		unitC int
		want  int
	}{
		{"keepalive window 2 peaks last two", KeepAlivePolicy{IdleIntervals: 2}, 1, 1},
		{"keepalive window 3 catches the 4", KeepAlivePolicy{IdleIntervals: 3}, 1, 4},
		{"keepalive divides by concurrency", KeepAlivePolicy{IdleIntervals: 3}, 2, 2},
		{"knative default averages", KnativeDefaultPolicy{WindowIntervals: 5}, 1, 2}, // mean 1.4 -> ceil 2
		{"fixed", FixedPolicy{Units: 7}, 1, 7},
	}
	for _, c := range cases {
		if got := c.p.Target(hist, c.unitC, nil); got != c.want {
			t.Errorf("%s: Target = %d, want %d", c.name, got, c.want)
		}
	}
	// Empty history never panics.
	for _, p := range []Policy{KeepAlivePolicy{IdleIntervals: 5}, KnativeDefaultPolicy{WindowIntervals: 5},
		ForecastPolicy{Forecaster: forecast.Naive{}, Horizon: 1}} {
		if got := p.Target(nil, 1, nil); got != 0 {
			t.Errorf("%s: empty history Target = %d, want 0", p.Name(), got)
		}
	}
}

func TestForecastPolicyUsesPeak(t *testing.T) {
	// Naive forecaster predicts last value; headroom raises target.
	p := ForecastPolicy{Forecaster: forecast.Naive{}, Horizon: 3}
	if got := p.Target([]float64{1, 5}, 1, nil); got != 5 {
		t.Errorf("Target = %d, want 5", got)
	}
	p.Headroom = 0.5
	if got := p.Target([]float64{1, 5}, 1, nil); got != 8 {
		t.Errorf("headroom Target = %d, want 8", got)
	}
}

func TestUnitsFor(t *testing.T) {
	cases := []struct {
		conc  float64
		unitC int
		want  int
	}{
		{0, 1, 0}, {-1, 1, 0}, {0.3, 1, 1}, {1, 1, 1}, {1.2, 1, 2},
		{100, 100, 1}, {101, 100, 2}, {5, 0, 5},
	}
	for _, c := range cases {
		if got := unitsFor(c.conc, c.unitC); got != c.want {
			t.Errorf("unitsFor(%v,%d) = %d, want %d", c.conc, c.unitC, got, c.want)
		}
	}
}

func TestSimulateAppPerfectForecasterNoColdStartsNoWaste(t *testing.T) {
	// Demand exactly matches an oracle: integer demand, naive forecaster
	// one step behind a constant series => no cold starts, no waste.
	vals := []float64{2, 2, 2, 2, 2}
	app := AppTrace{Demand: demandSeries(vals)}
	cfg := DefaultConcConfig()
	cfg.MinScale = 2 // covers the first interval before history exists
	res := SimulateApp(app, ForecastPolicy{Forecaster: forecast.Naive{}, Horizon: 1}, cfg, false)
	if res.Sample.ColdStarts != 0 {
		t.Errorf("cold starts = %d, want 0", res.Sample.ColdStarts)
	}
	if res.Sample.WastedGBSec > 1e-9 {
		t.Errorf("wasted = %v, want 0", res.Sample.WastedGBSec)
	}
	wantAlloc := 2 * cfg.MemoryGB * 60 * 5
	if math.Abs(res.Sample.AllocatedGBSec-wantAlloc) > 1e-9 {
		t.Errorf("allocated = %v, want %v", res.Sample.AllocatedGBSec, wantAlloc)
	}
}

func TestSimulateAppZeroPolicyAllCold(t *testing.T) {
	vals := []float64{1, 1, 1}
	app := AppTrace{Demand: demandSeries(vals)}
	cfg := DefaultConcConfig()
	res := SimulateApp(app, ForecastPolicy{Forecaster: forecast.Zero{}, Horizon: 1}, cfg, false)
	if res.Sample.ColdStarts != 3 {
		t.Errorf("cold starts = %d, want 3", res.Sample.ColdStarts)
	}
	if math.Abs(res.Sample.ColdStartSec-3*cfg.ColdStartSec) > 1e-9 {
		t.Errorf("cold start sec = %v", res.Sample.ColdStartSec)
	}
}

func TestSimulateAppOverProvisionWastes(t *testing.T) {
	vals := []float64{0, 0, 0, 0}
	app := AppTrace{Demand: demandSeries(vals)}
	cfg := DefaultConcConfig()
	res := SimulateApp(app, FixedPolicy{Units: 3}, cfg, false)
	wantWaste := 3 * cfg.MemoryGB * 60 * 4
	if math.Abs(res.Sample.WastedGBSec-wantWaste) > 1e-9 {
		t.Errorf("wasted = %v, want %v", res.Sample.WastedGBSec, wantWaste)
	}
	if res.Sample.ColdStarts != 0 {
		t.Errorf("cold starts = %d", res.Sample.ColdStarts)
	}
}

func TestSimulateAppMinScaleFloor(t *testing.T) {
	vals := []float64{0, 0, 1, 0}
	app := AppTrace{Demand: demandSeries(vals)}
	cfg := DefaultConcConfig()
	cfg.MinScale = 1
	res := SimulateApp(app, ForecastPolicy{Forecaster: forecast.Zero{}, Horizon: 1}, cfg, true)
	// MinScale keeps one unit warm: the demand spike is served warm.
	if res.Sample.ColdStarts != 0 {
		t.Errorf("cold starts = %d, want 0 (min scale)", res.Sample.ColdStarts)
	}
	for i, iv := range res.Intervals {
		if iv.WarmUnits < 1 {
			t.Errorf("interval %d warm units = %d, below min scale", i, iv.WarmUnits)
		}
	}
}

func TestSimulateAppPartialUtilizationWaste(t *testing.T) {
	// Demand 0.5 with concurrency 1: one unit allocated, half wasted.
	vals := []float64{0.5}
	app := AppTrace{Demand: demandSeries(vals)}
	cfg := DefaultConcConfig()
	res := SimulateApp(app, FixedPolicy{Units: 1}, cfg, false)
	wantWaste := 0.5 * cfg.MemoryGB * 60
	if math.Abs(res.Sample.WastedGBSec-wantWaste) > 1e-9 {
		t.Errorf("wasted = %v, want %v", res.Sample.WastedGBSec, wantWaste)
	}
}

func TestSimulateAppInvocationAccounting(t *testing.T) {
	vals := []float64{1, 1}
	app := AppTrace{
		Demand:      demandSeries(vals),
		Invocations: []float64{10, 20},
		ExecSec:     0.5,
	}
	res := SimulateApp(app, FixedPolicy{Units: 1}, DefaultConcConfig(), false)
	if res.Sample.Invocations != 30 {
		t.Errorf("invocations = %d, want 30", res.Sample.Invocations)
	}
	if math.Abs(res.Sample.ExecSec-15) > 1e-9 {
		t.Errorf("exec sec = %v, want 15", res.Sample.ExecSec)
	}
}

func TestScaleLimit(t *testing.T) {
	cfg := DefaultConcConfig()
	// Below threshold: unconstrained.
	if got := applyScaleLimit(5000, 1000, cfg, 60); got != 5000 {
		t.Errorf("below threshold: %d", got)
	}
	// Above threshold: clamp to prev + 500/min.
	if got := applyScaleLimit(5000, 4000, cfg, 60); got != 4500 {
		t.Errorf("clamped = %d, want 4500", got)
	}
	// 10-second steps scale the budget.
	if got := applyScaleLimit(5000, 4000, cfg, 10); got != 4084 {
		t.Errorf("10s clamp = %d, want 4084", got)
	}
	// Scale-down never limited.
	if got := applyScaleLimit(100, 4000, cfg, 60); got != 100 {
		t.Errorf("scale down = %d", got)
	}
	// Disabled.
	cfg.ScaleLimitThreshold = 0
	if got := applyScaleLimit(99999, 4000, cfg, 60); got != 99999 {
		t.Errorf("disabled = %d", got)
	}
}

// BenchmarkEmulate replays 5,000 requests of 150 ms, one every 200 ms,
// on the Knative emulator over 20 minutes.
func BenchmarkEmulate(b *testing.B) {
	var invs []trace.Invocation
	for i := 0; i < 5000; i++ {
		invs = append(invs, trace.Invocation{
			Arrival:  time.Duration(i) * 200 * time.Millisecond,
			Duration: 150 * time.Millisecond,
		})
	}
	cfg := trace.DefaultConfig()
	cfg.Concurrency = 100
	cfg.MemoryGB = 0.15
	cfg.ColdStart = 800 * time.Millisecond
	app := AppSpec{Name: "bench", Config: cfg, Invocations: invs}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Emulate(app, nil, 20*time.Minute)
	}
}

func BenchmarkConcSim(b *testing.B) {
	vals := make([]float64, 1440)
	for i := range vals {
		vals[i] = math.Abs(math.Sin(float64(i)/60)) * 5
	}
	app := AppTrace{Demand: demandSeries(vals)}
	p := ForecastPolicy{Forecaster: forecast.NewMovingAverage(1), Horizon: 1}
	cfg := DefaultConcConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SimulateApp(app, p, cfg, false)
	}
}
