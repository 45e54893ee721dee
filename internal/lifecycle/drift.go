// Package lifecycle closes the loop from drift signals to automatic,
// safely-evaluated model promotion: once per cycle, per-app feature drift
// is scored from the fleet's stored windows, a retrainer re-clusters on
// recent windows, candidates are shadow-evaluated against the live model on
// the same windows, and winners are promoted through the service's
// atomic model swap.
//
// Everything is deterministic by construction: the retrainer exposes a
// synchronous RunCycle (tests drive retrain -> shadow -> promote with no
// sleeps or clocks), training is seeded, and a drift score is a pure
// function of an app's window, so promotion decisions are bit-repeatable
// for a fixed seed.
package lifecycle

import "math"

// MaxDriftScore is the ceiling a drift score is clamped to. Non-finite
// intermediate values (a NaN or Inf observation poisoning the moment
// accumulators) clamp here too, so Score never returns NaN — drifting
// "infinitely" and drifting "off the scale" are the same signal to the
// retrainer.
const MaxDriftScore = 1e6

// BlockStats are streaming moments over one block of observations,
// accumulated in arrival order. They deliberately use the single-pass
// Sum/SumSq form rather than the two-pass stddev in internal/features:
// single-pass accumulators can be maintained per observe AND recomputed
// from a stored window by replaying the same additions, which is what
// makes the incremental and batch paths Float64bits-identical
// (FuzzDriftDetector's invariant). They summarize the same axes the
// offline feature extractor clusters on — level, dispersion, burst peak,
// and activity density.
type BlockStats struct {
	Count   int     // observations in the block
	NonZero int     // observations with traffic (density)
	Sum     float64 // running sum (mean = Sum/Count)
	SumSq   float64 // running sum of squares (variance via SumSq/Count - mean^2)
	Max     float64 // largest observation (burst peak)
}

// Add folds one observation into the block, in arrival order.
func (b *BlockStats) Add(v float64) {
	b.Count++
	b.Sum += v
	b.SumSq += v * v
	if v != 0 { // NaN compares non-equal: counted as activity, deterministically
		b.NonZero++
	}
	if v > b.Max {
		b.Max = v
	}
}

// Mean returns the block's mean concurrency (0 for an empty block).
func (b BlockStats) Mean() float64 {
	if b.Count == 0 {
		return 0
	}
	return b.Sum / float64(b.Count)
}

// Std returns the block's population standard deviation. Negative
// variance from floating-point cancellation — and NaN from poisoned
// accumulators — both collapse to 0; the NaN still reaches Score through
// Mean, so a poisoned block clamps rather than hides.
func (b BlockStats) Std() float64 {
	if b.Count == 0 {
		return 0
	}
	m := b.Sum / float64(b.Count)
	v := b.SumSq/float64(b.Count) - m*m
	if !(v > 0) {
		return 0
	}
	return math.Sqrt(v)
}

// Activity returns the fraction of the block's minutes with any traffic.
func (b BlockStats) Activity() float64 {
	if b.Count == 0 {
		return 0
	}
	return float64(b.NonZero) / float64(b.Count)
}

// Detector tracks one app's feature drift as a pure function of its
// observation stream: the reference block is the first completed block
// the stream produced, the comparison block is the latest completed one,
// and cur accumulates the partial block in between. Build one from a
// window with DetectorOf (DetectorOf(nil, blockSize) is empty). Methods
// are not goroutine-safe.
type Detector struct {
	blockSize int
	blocks    int // completed blocks seen
	ref       BlockStats
	last      BlockStats
	cur       BlockStats
}

// Observe folds one observation into the detector: the incremental
// reference DetectorOf is checked against. It performs zero heap
// allocations (pinned by TestDetectorZeroAlloc) and never panics,
// whatever bit pattern v holds.
func (d *Detector) Observe(v float64) {
	d.cur.Add(v)
	if d.blockSize > 0 && d.cur.Count >= d.blockSize {
		if d.blocks == 0 {
			d.ref = d.cur
		}
		d.last = d.cur
		d.blocks++
		d.cur = BlockStats{}
	}
}

// DetectorOf is the batch computation: it derives the same state as
// incremental Observe calls, but by slicing the window into blocks and
// summing each directly. blockSize <= 0 disables block completion (Score
// stays 0). FuzzDriftDetector asserts this path is Float64bits-identical
// to the incremental one.
func DetectorOf(window []float64, blockSize int) Detector {
	d := Detector{blockSize: blockSize}
	if blockSize <= 0 {
		for _, v := range window {
			d.cur.Add(v)
		}
		return d
	}
	n := len(window) / blockSize
	sum := func(blk []float64) BlockStats {
		var s BlockStats
		for _, v := range blk {
			s.Add(v)
		}
		return s
	}
	if n > 0 {
		d.ref = sum(window[:blockSize])
		d.last = sum(window[(n-1)*blockSize : n*blockSize])
		d.blocks = n
	}
	d.cur = sum(window[n*blockSize:])
	return d
}

// Score returns the app's drift score: 0 until two blocks have
// completed, then the distance between the latest completed block's
// moments and the reference block's, normalized by the reference scale.
// The score is always finite, non-negative, and at most MaxDriftScore —
// NaN/Inf observations clamp to the ceiling instead of poisoning the
// comparison (pinned by FuzzDriftDetector).
func (d *Detector) Score() float64 {
	if d.blocks < 2 {
		return 0
	}
	a, b := d.ref, d.last
	am, bm := a.Mean(), b.Mean()
	scale := a.Std() + math.Abs(am)
	if !(scale > 0) { // reference block was all zeros (or poisoned): absolute scale
		scale = 1
	}
	s := math.Abs(bm-am)/scale +
		math.Abs(b.Std()-a.Std())/scale +
		math.Abs(b.Activity()-a.Activity())
	if !(s <= MaxDriftScore) { // catches NaN and +Inf in one comparison
		return MaxDriftScore
	}
	return s
}
