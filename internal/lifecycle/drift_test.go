package lifecycle

import (
	"math"
	"math/rand"
	"testing"
)

// detectorsEqual compares every accumulator field of two detectors at the
// bit level; any divergence between the incremental and batch paths shows
// up here, including ones invisible at comparison tolerances.
func detectorsEqual(a, b Detector) bool {
	return a.blockSize == b.blockSize && a.blocks == b.blocks &&
		statsEqual(a.ref, b.ref) && statsEqual(a.last, b.last) && statsEqual(a.cur, b.cur)
}

func statsEqual(a, b BlockStats) bool {
	return a.Count == b.Count && a.NonZero == b.NonZero &&
		math.Float64bits(a.Sum) == math.Float64bits(b.Sum) &&
		math.Float64bits(a.SumSq) == math.Float64bits(b.SumSq) &&
		math.Float64bits(a.Max) == math.Float64bits(b.Max)
}

// TestDetectorIncrementalMatchesBatch is the core drift property: moments
// maintained one Observe at a time are Float64bits-identical to the batch
// recomputation from the same window, for every prefix length and several
// block geometries.
func TestDetectorIncrementalMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, blockSize := range []int{1, 2, 7, 30, 144} {
		window := make([]float64, 0, 400)
		d := DetectorOf(nil, blockSize)
		for i := 0; i < 400; i++ {
			v := 0.0
			switch rng.Intn(4) {
			case 0:
				v = rng.Float64() * 100
			case 1:
				v = rng.ExpFloat64()
			case 2: // leave zero (idle minute)
			case 3:
				v = float64(rng.Intn(5))
			}
			window = append(window, v)
			d.Observe(v)
			batch := DetectorOf(window, blockSize)
			if !detectorsEqual(d, batch) {
				t.Fatalf("blockSize %d: incremental and batch detectors diverge after %d observations\nincremental: %+v\nbatch: %+v",
					blockSize, len(window), d, batch)
			}
			if is, bs := d.Score(), batch.Score(); math.Float64bits(is) != math.Float64bits(bs) {
				t.Fatalf("blockSize %d: score diverges after %d observations: % x vs % x",
					blockSize, len(window), is, bs)
			}
		}
	}
}

// TestDetectorScoreSafety drives the detector with adversarial values;
// the score must stay finite, non-negative, and bounded — never NaN.
func TestDetectorScoreSafety(t *testing.T) {
	hostile := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), -1, -math.MaxFloat64,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 0, 1e308, -1e308,
	}
	for _, blockSize := range []int{0, -1, 1, 3, 8} {
		d := DetectorOf(nil, blockSize)
		for i := 0; i < 64; i++ {
			d.Observe(hostile[i%len(hostile)])
			s := d.Score()
			if math.IsNaN(s) || s < 0 || s > MaxDriftScore {
				t.Fatalf("blockSize %d obs %d: score %v out of [0, %v]", blockSize, i, s, MaxDriftScore)
			}
		}
	}
}

// TestDetectorScoreSemantics checks the signal itself: a stationary
// stream scores near zero, a regime change scores high, and fewer than
// two completed blocks score exactly zero.
func TestDetectorScoreSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	steady := DetectorOf(nil, 60)
	for i := 0; i < 600; i++ {
		steady.Observe(5 + 0.1*rng.Float64())
	}
	if s := steady.Score(); s > 0.05 {
		t.Errorf("stationary stream scored %v, want near 0", s)
	}

	shifted := DetectorOf(nil, 60)
	for i := 0; i < 300; i++ {
		shifted.Observe(5 + 0.1*rng.Float64())
	}
	for i := 0; i < 300; i++ { // regime change: 8x the level, bursty
		v := 0.0
		if i%3 == 0 {
			v = 40 + 10*rng.Float64()
		}
		shifted.Observe(v)
	}
	if s := shifted.Score(); s < 1 {
		t.Errorf("regime change scored %v, want >= 1", s)
	}

	fresh := DetectorOf(nil, 60)
	for i := 0; i < 119; i++ { // one completed block plus a partial
		fresh.Observe(float64(i))
		if s := fresh.Score(); s != 0 {
			t.Fatalf("score %v before two completed blocks, want 0", s)
		}
	}
}

// TestDetectorZeroAlloc pins the incremental reference's contract:
// feeding the detector and reading its score allocate nothing.
func TestDetectorZeroAlloc(t *testing.T) {
	d := DetectorOf(nil, 30)
	for i := 0; i < 100; i++ {
		d.Observe(float64(i % 7))
	}
	allocs := testing.AllocsPerRun(100, func() {
		d.Observe(1.5)
		_ = d.Score()
	})
	if allocs != 0 {
		t.Fatalf("drift observe+score: %v allocs/op, want 0", allocs)
	}
}
