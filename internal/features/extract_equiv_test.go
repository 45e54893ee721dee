package features

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// The contract of ISSUE 23: the column-view kernels return, bit for bit,
// what HEAD's kernels (reference_test.go) return, for every block of
// finite values whose first differences are finite.

// blockShapes are the generators of the differential corpus; each returns
// an n-sample block drawn from rng.
var blockShapes = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []float64
}{
	// bench/femux-bench/gen.go's hot fleets: a diurnal curve with Poisson
	// noise, in quarters.
	{"diurnal-poisson", func(rng *rand.Rand, n int) []float64 {
		scale := 0.5 * math.Pow(16, rng.Float64())
		phase := 1440 * rng.Float64()
		start := rng.Intn(1440)
		xs := make([]float64, n)
		for t := range xs {
			lambda := 4 * scale * (1 + 0.8*math.Sin(2*math.Pi*(float64(start+t)+phase)/1440))
			limit, p, k := math.Exp(-lambda), 1.0, -1
			for ; p > limit; k++ {
				p *= rng.Float64()
			}
			xs[t] = float64(k) / 4
		}
		return xs
	}},
	// ...and its sparse fleet: a per-app level with ±25% wobble, in
	// thousandths.
	{"level-wobble", func(rng *rand.Rand, n int) []float64 {
		level := 0.2 + 2*rng.Float64()
		xs := make([]float64, n)
		for t := range xs {
			xs[t] = math.Round(level*(0.75+0.5*rng.Float64())*1000) / 1000
		}
		return xs
	}},
	{"mostly-zero", func(rng *rand.Rand, n int) []float64 {
		xs := make([]float64, n)
		for i := 0; i < 1+rng.Intn(4); i++ {
			xs[rng.Intn(n)] = float64(1 + rng.Intn(40))
		}
		return xs
	}},
	{"constant", func(rng *rand.Rand, n int) []float64 {
		xs := make([]float64, n)
		v := float64(rng.Intn(3))
		for t := range xs {
			xs[t] = v
		}
		return xs
	}},
	{"all-but-one-constant", func(rng *rand.Rand, n int) []float64 {
		xs := make([]float64, n)
		v := float64(rng.Intn(3))
		for t := range xs {
			xs[t] = v
		}
		xs[rng.Intn(n)] = v + 1 + rng.Float64()
		return xs
	}},
	// Ramps make every lagged difference the same constant — collinear
	// with the intercept — and steep ones swamp the ridge: the singular
	// normal equations of the early returns.
	{"ramp", func(rng *rand.Rand, n int) []float64 {
		xs := make([]float64, n)
		slope := math.Pow(10, float64(rng.Intn(12)-2))
		for t := range xs {
			xs[t] = slope * float64(t)
		}
		return xs
	}},
	{"sinusoid-noise", func(rng *rand.Rand, n int) []float64 {
		xs := make([]float64, n)
		period := float64(4 + rng.Intn(140))
		for t := range xs {
			xs[t] = math.Abs(2 + math.Sin(2*math.Pi*float64(t)/period) + 0.3*rng.NormFloat64())
		}
		return xs
	}},
	{"negative-zeros", func(rng *rand.Rand, n int) []float64 {
		xs := make([]float64, n)
		for t := range xs {
			switch rng.Intn(3) {
			case 0:
				xs[t] = math.Copysign(0, -1)
			case 1:
				xs[t] = float64(rng.Intn(3))
			}
		}
		return xs
	}},
	{"huge", func(rng *rand.Rand, n int) []float64 {
		xs := make([]float64, n)
		for t := range xs {
			xs[t] = 1e300 * (0.5 + rng.Float64())
			if rng.Intn(4) == 0 {
				xs[t] = 0
			}
		}
		return xs
	}},
}

// equivLengths straddles every length-dependent branch: n < 8 (ADF),
// rows < lags+2 at AR(10) (n < 22), BDS's minimum, femuxd's 144, the
// paper's 504, powers of two (radix-2) and everything else (Bluestein).
var equivLengths = []int{3, 4, 7, 8, 9, 12, 21, 22, 23, 60, 64, 144, 200, 504}

func sameVector(t testing.TB, what string, block []float64, got, want Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d features, reference has %d", what, len(got), len(want))
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: %s = %v (%#x), reference %v (%#x)\nblock %v",
				what, name, g, math.Float64bits(g), w, math.Float64bits(w), block)
		}
	}
}

func TestExtractMatchesHead(t *testing.T) {
	e := NewExtractor()
	perCell := 48
	if testing.Short() {
		perCell = 12
	}
	blocks, singular, shortAR := 0, 0, 0
	for si, shape := range blockShapes {
		for _, n := range equivLengths {
			rng := rand.New(rand.NewSource(int64(1000*si + n)))
			for i := 0; i < perCell; i++ {
				block := shape.gen(rng, n)
				what := fmt.Sprintf("%s/%d#%d", shape.name, n, i)
				sameVector(t, what, block, e.Extract(block, 0), refExtract(block, 0))
				blocks++

				// The early returns, counted from the reference's side so
				// the corpus is known to reach them.
				constant := isConstant(block)
				if n >= 8 && !constant && refADFTest(block, -1, constant).Stat == 0 {
					singular++
				}
				if !constant && refARResiduals(block, ARLags, constant) == nil {
					shortAR++
				}
			}
		}
	}
	if !testing.Short() && blocks < 5000 {
		t.Errorf("corpus has %d blocks, want at least 5000", blocks)
	}
	if singular == 0 || shortAR == 0 {
		t.Errorf("corpus misses an early return: %d failed ADF regressions, %d failed AR fits", singular, shortAR)
	}
}

// TestKernelsMatchHead compares the kernels one by one, over explicit lag
// counts — including the ones ADF's own cap never lets Extract reach
// (rows <= cols needs lags > (n-4)/2) and the exec-time feature.
func TestKernelsMatchHead(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sc := &scratch{}
	for _, shape := range blockShapes {
		for _, n := range []int{8, 9, 12, 30, 144} {
			block := shape.gen(rng, n)
			constant := isConstant(block)
			for lags := -1; lags <= n; lags++ {
				got, want := sc.adfTest(block, lags, constant), refADFTest(block, lags, constant)
				if math.Float64bits(got.Stat) != math.Float64bits(want.Stat) || got.Lags != want.Lags || got.Stationary != want.Stationary {
					t.Fatalf("%s/%d ADF lags %d: %+v, reference %+v", shape.name, n, lags, got, want)
				}
				gr, wr := sc.arResiduals(block, lags, constant), refARResiduals(block, lags, constant)
				if (gr == nil) != (wr == nil) || len(gr) != len(wr) {
					t.Fatalf("%s/%d AR(%d): %d residuals, reference %d", shape.name, n, lags, len(gr), len(wr))
				}
				for i := range wr {
					if math.Float64bits(gr[i]) != math.Float64bits(wr[i]) {
						t.Fatalf("%s/%d AR(%d) residual %d: %v, reference %v", shape.name, n, lags, i, gr[i], wr[i])
					}
				}
			}
			for _, k := range []int{0, 1, 10, n} {
				got, want := sc.harmonicConcentration(block, k, constant), refHarmonicConcentration(block, k, constant)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s/%d harmonics k=%d: %v, reference %v", shape.name, n, k, got, want)
				}
			}
		}
	}
	e := NewExtractor()
	block := blockShapes[0].gen(rng, 144)
	sameVector(t, "exec-time", block, e.Extract(block, 1.5), refExtract(block, 1.5))
}

// fuzzBlock decodes 8 bytes per sample. Non-finite samples are skipped,
// and ok is false when the block's first differences overflow: the
// contract covers finite columns only (see regress.go).
func fuzzBlock(data []byte) (block []float64, ok bool) {
	for ; len(data) >= 8 && len(block) < 600; data = data[8:] {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data))
		if math.IsInf(v, 0) || math.IsNaN(v) {
			continue
		}
		if len(block) > 0 && math.IsInf(v-block[len(block)-1], 0) {
			return nil, false
		}
		block = append(block, v)
	}
	return block, true
}

func FuzzExtractMatchesHead(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for _, shape := range blockShapes {
		for _, n := range []int{9, 30} {
			var data []byte
			for _, v := range shape.gen(rng, n) {
				data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
			}
			f.Add(data)
		}
	}
	e := NewExtractor()
	f.Fuzz(func(t *testing.T, data []byte) {
		block, ok := fuzzBlock(data)
		if !ok {
			t.Skip()
		}
		sameVector(t, "fuzz", block, e.Extract(block, 0), refExtract(block, 0))
	})
}

func TestExtractAllocs(t *testing.T) {
	e := NewExtractor()
	for _, n := range []int{144, 504} {
		block := benchBlock(n)
		e.Extract(block, 0) // size the scratch and build the plans
		if avg := testing.AllocsPerRun(50, func() { e.Extract(block, 0) }); avg > 2 {
			t.Errorf("Extract of %d samples: %.1f allocations per call, want at most 2 (the returned Vector)", n, avg)
		}
	}
}

// TestExtractAllocsAfterGC checks that an Extractor's scratch is its own:
// collections in between take none of it, so a warmed Extractor still
// allocates only the returned Vector. mallocs are read from MemStats, not
// AllocsPerRun, whose warm-up call would rebuild whatever a collection
// took. The counter is process-wide and a runtime goroutine may allocate
// meanwhile, so the fewest of five rounds counts.
func TestExtractAllocsAfterGC(t *testing.T) {
	e := NewExtractor()
	block := benchBlock(144)
	e.Extract(block, 0)
	e.Extract(block, 0)
	fewest := ^uint64(0)
	for round := 0; round < 5; round++ {
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e.Extract(block, 0)
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	if fewest > 2 {
		t.Errorf("Extract after two collections: %d allocations, want at most 2 (the returned Vector)", fewest)
	}
}

// TestExtractConcurrent runs Extract from 8 goroutines at once, each on an
// Extractor of its own, on equal lengths and on distinct ones: each builds
// its own plans concurrently over the process-wide radix-2 tables, and
// every result must equal the serial one. Meaningful under -race.
func TestExtractConcurrent(t *testing.T) {
	lengths := []int{100, 101, 102, 103, 104, 105, 106, 107}
	for _, distinct := range []bool{true, false} {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			n := lengths[0] + 10
			if distinct {
				n = lengths[g]
			}
			wg.Add(1)
			go func(g, n int) {
				defer wg.Done()
				e := NewExtractor()
				rng := rand.New(rand.NewSource(int64(g)))
				for i := 0; i < 20; i++ {
					block := blockShapes[i%len(blockShapes)].gen(rng, n)
					sameVector(t, fmt.Sprintf("goroutine %d/%d#%d", g, n, i), block, e.Extract(block, 0), refExtract(block, 0))
				}
			}(g, n)
		}
		wg.Wait()
	}
}

// benchBlock is a quarter-quantised diurnal Poisson block, the shape
// femux-bench's hot fleets serve.
func benchBlock(n int) []float64 {
	return blockShapes[0].gen(rand.New(rand.NewSource(7)), n)
}

var benchSink float64

// BenchmarkExtract measures one block's feature extraction at femuxd's
// default block (144) and the paper's (504), beside HEAD's kernels on the
// same blocks.
func BenchmarkExtract(b *testing.B) {
	e := NewExtractor()
	for _, n := range []int{144, 504} {
		block := benchBlock(n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = e.Extract(block, 0)[FeatStationarity]
			}
		})
		b.Run(fmt.Sprintf("head%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = refExtract(block, 0)[FeatStationarity]
			}
		})
	}
}

// BenchmarkADF measures the stationarity test alone (Schwert-rule lags)
// in a warmed scratch, likewise beside HEAD's.
func BenchmarkADF(b *testing.B) {
	sc := &scratch{}
	for _, n := range []int{144, 504} {
		block := benchBlock(n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = sc.adfTest(block, -1, false).Stat
			}
		})
		b.Run(fmt.Sprintf("head%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = refADFTest(block, -1, false).Stat
			}
		})
	}
}
