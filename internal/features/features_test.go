package features

import (
	"math"
	"math/rand"
	"testing"
)

func arStationary(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := 1; i < n; i++ {
		x[i] = 0.5*x[i-1] + rng.NormFloat64()
	}
	return x
}

func randomWalk(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := 1; i < n; i++ {
		x[i] = x[i-1] + rng.NormFloat64()
	}
	return x
}

func TestADFStationaryVsUnitRoot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Stationary AR(1) should be detected as stationary in most trials;
	// random walks should rarely be.
	var statHits, walkHits int
	trials := 20
	for i := 0; i < trials; i++ {
		if ADF(arStationary(rng, 500), -1).Stationary {
			statHits++
		}
		if ADF(randomWalk(rng, 500), -1).Stationary {
			walkHits++
		}
	}
	if statHits < trials*3/4 {
		t.Errorf("stationary series detected %d/%d times", statHits, trials)
	}
	if walkHits > trials/4 {
		t.Errorf("random walks marked stationary %d/%d times", walkHits, trials)
	}
}

func TestADFConstantSeries(t *testing.T) {
	x := make([]float64, 500)
	for i := range x {
		x[i] = 5
	}
	r := ADF(x, -1)
	if !r.Stationary {
		t.Error("constant series should be stationary")
	}
}

func TestADFShortSeries(t *testing.T) {
	r := ADF([]float64{1, 2, 3}, -1)
	if r.Stationary {
		t.Error("too-short series should not claim stationarity")
	}
}

func TestADFStatSignConvention(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// A strongly mean-reverting series must have a very negative statistic.
	x := make([]float64, 500)
	for i := 1; i < len(x); i++ {
		x[i] = 0.1*x[i-1] + rng.NormFloat64()
	}
	r := ADF(x, -1)
	if r.Stat >= ADFCritical5 {
		t.Errorf("strong mean reversion stat = %v, want < %v", r.Stat, ADFCritical5)
	}
}

func TestBDSIIDIsLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// iid Gaussian noise: the BDS statistic should usually be
	// insignificant.
	hits := 0
	trials := 20
	for i := 0; i < trials; i++ {
		x := make([]float64, 504)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		if BDS(x, 2, 0).Linear {
			hits++
		}
	}
	if hits < trials*3/5 {
		t.Errorf("iid noise flagged nonlinear too often: linear %d/%d", hits, trials)
	}
}

func TestBDSDetectsNonlinearStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// A tent-map-like deterministic nonlinear series must be flagged.
	x := make([]float64, 504)
	x[0] = 0.37
	for i := 1; i < len(x); i++ {
		v := x[i-1]
		if v < 0.5 {
			x[i] = 1.99 * v
		} else {
			x[i] = 1.99 * (1 - v)
		}
		x[i] += 0.001 * rng.NormFloat64()
	}
	r := BDS(x, 2, 0)
	if r.Linear {
		t.Errorf("tent map should be nonlinear; stat = %v", r.Stat)
	}
}

func TestLinearityTestOnLinearProcess(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// AR(1) with Gaussian noise is linear: residuals after prewhitening
	// should pass the BDS test most of the time.
	hits := 0
	trials := 15
	for i := 0; i < trials; i++ {
		r := LinearityTest(arStationary(rng, 504), 10, 2)
		if r.Linear {
			hits++
		}
	}
	if hits < trials*3/5 {
		t.Errorf("linear AR flagged nonlinear too often: %d/%d linear", hits, trials)
	}
}

func TestLinearityTestOnThresholdProcess(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// A strongly nonlinear SETAR-style process should usually be flagged.
	hits := 0
	trials := 15
	for trial := 0; trial < trials; trial++ {
		x := make([]float64, 504)
		for i := 1; i < len(x); i++ {
			if x[i-1] < 0 {
				x[i] = 0.9*x[i-1] + 1 + 0.1*rng.NormFloat64()
			} else {
				x[i] = -0.9*x[i-1] - 1 + 0.1*rng.NormFloat64()
			}
		}
		if !LinearityTest(x, 10, 2).Linear {
			hits++
		}
	}
	if hits < trials/2 {
		t.Errorf("threshold process flagged nonlinear only %d/%d times", hits, trials)
	}
}

func TestBDSConstantAndShort(t *testing.T) {
	if r := BDS([]float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 2, 0); !r.Linear {
		t.Error("constant series should be linear")
	}
	if r := BDS([]float64{1, 2}, 2, 0); !r.Linear {
		t.Error("short series should default to linear")
	}
}

func TestHarmonicConcentration(t *testing.T) {
	n := 504
	// Pure sinusoid: energy concentrated, near 1.
	pure := make([]float64, n)
	for i := range pure {
		pure[i] = 5 + 3*math.Sin(2*math.Pi*7*float64(i)/float64(n))
	}
	if c := HarmonicConcentration(pure, 10); c < 0.95 {
		t.Errorf("pure sinusoid concentration = %v, want ~1", c)
	}
	// White noise: energy spread, far below 1.
	rng := rand.New(rand.NewSource(7))
	noise := make([]float64, n)
	for i := range noise {
		noise[i] = rng.NormFloat64()
	}
	if c := HarmonicConcentration(noise, 10); c > 0.5 {
		t.Errorf("noise concentration = %v, want well below periodic", c)
	}
	// Constant: zero.
	flat := make([]float64, n)
	if c := HarmonicConcentration(flat, 10); c != 0 {
		t.Errorf("constant concentration = %v, want 0", c)
	}
}

func TestExtractorVector(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	e := NewExtractor()
	block := make([]float64, 504)
	for i := range block {
		block[i] = math.Abs(2 + math.Sin(2*math.Pi*float64(i)/60) + 0.2*rng.NormFloat64())
	}
	v := e.Extract(block, 0)
	for _, name := range AllFeatureNames {
		if _, ok := v[name]; !ok {
			t.Errorf("missing feature %q", name)
		}
	}
	if _, ok := v[FeatExecTime]; ok {
		t.Error("exec feature should be absent when execSec <= 0")
	}
	// Density equals the block sum.
	var sum float64
	for _, x := range block {
		sum += x
	}
	if math.Abs(v[FeatDensity]-sum) > 1e-9 {
		t.Errorf("density = %v, want %v", v[FeatDensity], sum)
	}
	// With exec time.
	v2 := e.Extract(block, 1.5)
	if v2[FeatExecTime] != 1.5 {
		t.Errorf("exec feature = %v, want 1.5", v2[FeatExecTime])
	}
}

func TestVectorSelect(t *testing.T) {
	v := Vector{FeatDensity: 3, FeatHarmonics: 0.8}
	got := v.Select([]string{FeatHarmonics, FeatStationarity, FeatDensity})
	want := []float64{0.8, 0, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Select[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestExtractFeatureSeparation(t *testing.T) {
	// The whole point of the features: different pattern classes must land
	// in different regions of feature space.
	e := NewExtractor()
	rng := rand.New(rand.NewSource(9))
	n := 504

	periodic := make([]float64, n)
	for i := range periodic {
		periodic[i] = 5 + 4*math.Sin(2*math.Pi*float64(i)/36)
	}
	noise := make([]float64, n)
	for i := range noise {
		noise[i] = math.Abs(rng.NormFloat64() * 3)
	}
	vp := e.Extract(periodic, 0)
	vn := e.Extract(noise, 0)
	if vp[FeatHarmonics] <= vn[FeatHarmonics] {
		t.Errorf("periodic harmonic feature %v should exceed noise %v",
			vp[FeatHarmonics], vn[FeatHarmonics])
	}

	sparse := make([]float64, n)
	sparse[100] = 1
	vs := e.Extract(sparse, 0)
	if vs[FeatDensity] >= vn[FeatDensity] {
		t.Errorf("sparse density %v should be below noisy density %v",
			vs[FeatDensity], vn[FeatDensity])
	}
}
