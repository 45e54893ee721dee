package forecast

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// allForecasters returns every forecaster plus the simple baselines.
func allForecasters() []Forecaster {
	return append(DefaultSet(), NewMovingAverage(1), Naive{}, Zero{})
}

func sine(n int, period float64, amp, offset float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = offset + amp*math.Sin(2*math.Pi*float64(i)/period)
	}
	return out
}

func TestForecastContracts(t *testing.T) {
	// Contract for every forecaster: correct horizon length, non-negative,
	// finite, and graceful on degenerate inputs.
	histories := [][]float64{
		nil,
		{},
		{5},
		{1, 2},
		{0, 0, 0, 0, 0, 0, 0, 0},
		sine(120, 24, 3, 5),
		make([]float64, 200), // zeros
	}
	rng := rand.New(rand.NewSource(1))
	noisy := make([]float64, 150)
	for i := range noisy {
		noisy[i] = math.Abs(rng.NormFloat64() * 10)
	}
	histories = append(histories, noisy)

	for _, f := range allForecasters() {
		for hi, h := range histories {
			for _, horizon := range []int{0, 1, 5, 30} {
				got := f.ForecastInto(h, horizon, nil, nil)
				if horizon <= 0 {
					if got != nil {
						t.Errorf("%s: horizon 0 returned %v", f.Name(), got)
					}
					continue
				}
				if len(got) != horizon {
					t.Fatalf("%s history %d: len = %d, want %d", f.Name(), hi, len(got), horizon)
				}
				for j, v := range got {
					if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("%s history %d: forecast[%d] = %v", f.Name(), hi, j, v)
					}
				}
			}
		}
	}
}

func TestForecastDeterminism(t *testing.T) {
	h := sine(120, 30, 2, 4)
	for _, f := range allForecasters() {
		a := f.ForecastInto(h, 10, nil, nil)
		b := f.ForecastInto(h, 10, nil, nil)
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: non-deterministic forecast", f.Name())
				break
			}
		}
	}
}

func TestARRecoverFromARProcess(t *testing.T) {
	// Generate a stable AR(2) process; AR(10) should forecast much better
	// than the mean on one-step-ahead.
	rng := rand.New(rand.NewSource(2))
	n := 400
	x := make([]float64, n)
	x[0], x[1] = 5, 5
	for i := 2; i < n; i++ {
		x[i] = 2 + 0.6*x[i-1] + 0.25*x[i-2] + 0.2*rng.NormFloat64()
	}
	ar := NewAR(10)
	var arErr, meanErr float64
	for i := 200; i < n-1; i++ {
		pred := ar.ForecastInto(x[:i], 1, nil, nil)[0]
		arErr += math.Abs(pred - x[i])
		meanErr += math.Abs(mean(x[:i]) - x[i])
	}
	if arErr >= meanErr*0.6 {
		t.Errorf("AR error %v should be well below mean-forecast error %v", arErr, meanErr)
	}
}

func TestARShortHistoryFallsBackToMean(t *testing.T) {
	h := []float64{2, 4}
	got := NewAR(10).ForecastInto(h, 3, nil, nil)
	for _, v := range got {
		if math.Abs(v-3) > 1e-12 {
			t.Errorf("short-history AR = %v, want mean 3", got)
		}
	}
}

func TestFFTTracksPeriodicSignal(t *testing.T) {
	// A clean sinusoid must be extrapolated accurately.
	period := 24.0
	h := sine(120, period, 3, 5)
	f := NewFFT(10)
	got := f.ForecastInto(h, 24, nil, nil)
	for i := range got {
		want := 5 + 3*math.Sin(2*math.Pi*float64(120+i)/period)
		if want < 0 {
			want = 0
		}
		if math.Abs(got[i]-want) > 0.5 {
			t.Fatalf("FFT forecast[%d] = %v, want ~%v", i, got[i], want)
		}
	}
}

func TestFFTBeatsARonPeriodic(t *testing.T) {
	// Periodic bursty pattern: FFT should dominate AR over a long horizon,
	// the behaviour underlying §4.2's forecaster-diversity argument.
	n := 240
	h := make([]float64, n)
	for i := range h {
		if i%30 < 3 {
			h[i] = 10
		}
	}
	future := make([]float64, 60)
	for i := range future {
		if (n+i)%30 < 3 {
			future[i] = 10
		}
	}
	fftErr := sumAbsErr(NewFFT(10).ForecastInto(h, 60, nil, nil), future)
	arErr := sumAbsErr(NewAR(10).ForecastInto(h, 60, nil, nil), future)
	if fftErr >= arErr {
		t.Errorf("FFT error %v should beat AR error %v on periodic traffic", fftErr, arErr)
	}
}

func sumAbsErr(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

func TestSETARHandlesRegimeSwitching(t *testing.T) {
	// Two-regime series: low regime decays, high regime persists. SETAR
	// should not blow up and should produce regime-plausible forecasts.
	rng := rand.New(rand.NewSource(3))
	n := 300
	x := make([]float64, n)
	x[0] = 1
	for i := 1; i < n; i++ {
		if x[i-1] < 5 {
			x[i] = 0.9*x[i-1] + 1 + 0.1*rng.NormFloat64()
			if rng.Float64() < 0.05 {
				x[i] += 10
			}
		} else {
			x[i] = 0.7*x[i-1] + 0.2*rng.NormFloat64()
		}
		if x[i] < 0 {
			x[i] = 0
		}
	}
	got := NewSETAR(10, 2).ForecastInto(x, 10, nil, nil)
	for i, v := range got {
		if v > 50 {
			t.Fatalf("SETAR forecast[%d] = %v diverged", i, v)
		}
	}
}

func TestSETARConstantSeriesFallback(t *testing.T) {
	h := make([]float64, 100)
	for i := range h {
		h[i] = 7
	}
	got := NewSETAR(10, 2).ForecastInto(h, 5, nil, nil)
	for _, v := range got {
		if math.Abs(v-7) > 0.5 {
			t.Errorf("constant series forecast = %v, want ~7", got)
			break
		}
	}
}

func TestExpSmoothingConvergesToLevel(t *testing.T) {
	// Step series settling at 8: smoothed level should be close to 8.
	h := make([]float64, 100)
	for i := range h {
		if i < 20 {
			h[i] = 2
		} else {
			h[i] = 8
		}
	}
	got := NewExpSmoothing().ForecastInto(h, 5, nil, nil)
	for _, v := range got {
		if math.Abs(v-8) > 1 {
			t.Errorf("ES forecast = %v, want ~8", v)
		}
	}
	// Flat forecast: all horizon values identical.
	for i := 1; i < len(got); i++ {
		if got[i] != got[0] {
			t.Error("ES forecast should be flat")
		}
	}
}

func TestHoltFollowsTrend(t *testing.T) {
	// Linear ramp: Holt should continue the ramp, ES should lag.
	h := make([]float64, 100)
	for i := range h {
		h[i] = float64(i) * 0.5
	}
	holt := NewHolt().ForecastInto(h, 10, nil, nil)
	for i, v := range holt {
		want := float64(100+i) * 0.5
		if math.Abs(v-want) > 2 {
			t.Fatalf("Holt forecast[%d] = %v, want ~%v", i, v, want)
		}
	}
	es := NewExpSmoothing().ForecastInto(h, 10, nil, nil)
	if es[9] >= holt[9] {
		t.Errorf("ES %v should lag Holt %v on a ramp", es[9], holt[9])
	}
}

func TestMarkovChainLearnsAlternation(t *testing.T) {
	// Deterministic alternation between 0 and 10: the chain must predict
	// the opposite state next.
	h := make([]float64, 100)
	for i := range h {
		if i%2 == 0 {
			h[i] = 10
		}
	}
	// history ends with h[99] = 0 (odd index), so next is 10.
	got := NewMarkovChain(4).ForecastInto(h, 2, nil, nil)
	if got[0] < 7 {
		t.Errorf("Markov forecast[0] = %v, want ~10 (alternation)", got[0])
	}
	if got[1] > 3 {
		t.Errorf("Markov forecast[1] = %v, want ~0 (alternation)", got[1])
	}
}

func TestMarkovChainConstantSeries(t *testing.T) {
	h := make([]float64, 50)
	for i := range h {
		h[i] = 3
	}
	got := NewMarkovChain(4).ForecastInto(h, 3, nil, nil)
	for _, v := range got {
		if math.Abs(v-3) > 1e-9 {
			t.Errorf("constant Markov forecast = %v, want 3", got)
		}
	}
}

func TestMovingAverageWindow(t *testing.T) {
	h := []float64{10, 10, 10, 2, 4}
	got := NewMovingAverage(2).ForecastInto(h, 3, nil, nil)
	for _, v := range got {
		if v != 3 {
			t.Errorf("MA(2) = %v, want 3", got)
			break
		}
	}
	// Window larger than history uses everything.
	got = NewMovingAverage(100).ForecastInto([]float64{2, 4}, 1, nil, nil)
	if got[0] != 3 {
		t.Errorf("oversized window = %v, want 3", got[0])
	}
}

func TestNaiveAndZero(t *testing.T) {
	h := []float64{1, 2, 9}
	if got := (Naive{}).ForecastInto(h, 2, nil, nil); got[0] != 9 || got[1] != 9 {
		t.Errorf("Naive = %v", got)
	}
	if got := (Zero{}).ForecastInto(h, 2, nil, nil); got[0] != 0 || got[1] != 0 {
		t.Errorf("Zero = %v", got)
	}
}

func TestByName(t *testing.T) {
	set := DefaultSet()
	f, err := ByName(set, "fft10")
	if err != nil || f.Name() != "fft10" {
		t.Errorf("ByName(fft10) = %v, %v", f, err)
	}
	if _, err := ByName(set, "nope"); err == nil {
		t.Error("expected error for unknown name")
	}
}

func TestNamesAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range allForecasters() {
		if seen[f.Name()] {
			t.Errorf("duplicate forecaster name %q", f.Name())
		}
		seen[f.Name()] = true
	}
}

func TestForecastNonNegativityProperty(t *testing.T) {
	// Property: whatever the history (including negative inputs from a
	// buggy upstream), forecasts are non-negative and finite.
	fs := allForecasters()
	f := func(raw []float64, horizon uint8) bool {
		h := int(horizon%20) + 1
		hist := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			// Scale into a plausible concurrency range.
			hist = append(hist, math.Mod(math.Abs(v), 1000))
		}
		for _, fc := range fs {
			out := fc.ForecastInto(hist, h, nil, nil)
			if len(out) != h {
				return false
			}
			for _, v := range out {
				if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkForecasters(b *testing.B) {
	h := sine(120, 24, 3, 5)
	for _, f := range DefaultSet() {
		b.Run(f.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f.ForecastInto(h, 1, nil, nil)
			}
		})
	}
}
