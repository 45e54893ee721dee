package mathx

import (
	"math"
	"math/bits"
	"math/cmplx"
	"sync/atomic"
)

// This file is the zero-allocation counterpart of fft.go: the same
// transforms, but with twiddle factors precomputed once per length for
// the whole process, the Bluestein chirp and filter spectrum precomputed
// by each FFTScratch for the lengths it transforms, and every scratch
// buffer owned by an FFTScratch that callers reuse across calls.
//
// Bit-identity contract: every table is generated by the exact recurrence
// the table-free path in fft.go evaluates inline (w starting at 1 and
// repeatedly multiplied by cmplx.Exp of the stage step), so a transform
// computed against a cached table performs the same floating-point
// operations in the same order and produces bit-for-bit identical output.
// The radix-2 kernel runs two stages per pass over the data (see
// fftRadix2Table). That changes when each butterfly runs, never what it
// computes: every butterfly still reads the same two values, multiplies
// by the same twiddle and adds and subtracts in the same order, and the
// butterflies of one stage touch disjoint elements. fftplan_equiv_test.go
// asserts all of this with Float64bits comparisons.

// twiddleTable holds the per-stage twiddle factors of an iterative
// radix-2 FFT of one power-of-two length, stages concatenated
// (size 2, 4, ..., n; size/2 entries per stage).
type twiddleTable struct {
	fwd, inv []complex128
	rev      []int32 // bit-reversal permutation, rev[i] = reverse of i
}

func newTwiddleTable(n int) *twiddleTable {
	gen := func(sign float64) []complex128 {
		tbl := make([]complex128, 0, n)
		for size := 2; size <= n; size <<= 1 {
			half := size >> 1
			step := sign * 2 * math.Pi / float64(size)
			// The bits of fft.go's cmplx.Exp(complex(0, step)), which
			// scales this same Sincos by math.Exp(0) = 1.
			s, c := math.Sincos(step)
			wStep := complex(c, s)
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				tbl = append(tbl, w)
				w *= wStep
			}
		}
		return tbl
	}
	rev := make([]int32, n)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := range rev {
		rev[i] = int32(bits.Reverse64(uint64(i)) >> shift)
	}
	return &twiddleTable{fwd: gen(-1), inv: gen(1), rev: rev}
}

// bluesteinPlan holds everything about an arbitrary-length DFT that
// depends only on the length: the chirp terms and the pre-transformed
// filter spectrum (the FFT of b is input-independent, so it is computed
// once instead of once per call).
type bluesteinPlan struct {
	n, m  int
	tw    *twiddleTable // of the length-m convolution
	chirp []complex128  // w[k] = exp(sign*i*pi*k^2/n), forward sign
	bhat  []complex128  // FFT of the chirp filter, length m
}

// build makes p the plan of length n, in p's own buffers where they fit.
func (p *bluesteinPlan) build(n int) {
	const sign = -1.0 // forward transform; the hot paths never invert
	w := growC(p.chirp, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		s, c := math.Sincos(sign * math.Pi * float64(kk) / float64(n)) // as in newTwiddleTable
		w[k] = complex(c, s)
	}
	m := 1 << bits.Len(uint(2*n-2)) // the least power of two >= 2n-1
	tw := sharedTwiddle(m)
	b := growC(p.bhat, m)
	clear(b)
	for k := 0; k < n; k++ {
		b[k] = cmplx.Conj(w[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(w[k])
	}
	fftRadix2Table(b, tw, tw.fwd)
	*p = bluesteinPlan{n: n, m: m, tw: tw, chirp: w, bhat: b}
}

// A twiddle table depends only on its power-of-two length, so the process
// shares one per length, kept for good. Bluestein plans belong to the
// FFTScratch that built them (see plan), so a length nothing transforms
// any more holds no memory once its scratch is gone.
var twiddles [64]atomic.Pointer[twiddleTable] // by log2 of the length

func sharedTwiddle(n int) *twiddleTable {
	slot := &twiddles[bits.TrailingZeros(uint(n))]
	if slot.Load() == nil {
		slot.CompareAndSwap(nil, newTwiddleTable(n))
	}
	return slot.Load()
}

// FFTScratch owns the complex scratch buffers of the transform, so
// repeated transforms of the same window length allocate nothing. It is
// not safe for concurrent use; forecast.Workspace embeds one per goroutine.
type FFTScratch struct {
	blue *[2]bluesteinPlan // of the longest and the latest other non-power-of-two length (see plan)
	buf  []complex128      // transform output / working vector
	conv []complex128      // Bluestein convolution input
	hs   []Harmonic
}

func growC(buf []complex128, n int) []complex128 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]complex128, n)
}

// fftRadix2Table is fftRadix2 against a precomputed twiddle table (one
// stage after another, exactly the factors the inline recurrence yields)
// and a precomputed bit-reversal permutation (the same swap sequence the
// inline reversal performs). Stages run two per pass over the data: a
// size-s stage and the size-2s stage after it touch the same four
// elements a[k], a[k+s/2], a[k+s], a[k+3s/2] of each 2s-block, so each
// quad is loaded once, put through its two size-s butterflies and then
// its two size-2s butterflies in registers, and stored once. Each
// butterfly keeps its twiddle, its operands and its operation order, so
// every output is bit-identical to running the stages one at a time. An
// odd stage count leaves the last stage to run alone.
func fftRadix2Table(a []complex128, tw *twiddleTable, tbl []complex128) {
	n := len(a)
	if n <= 1 {
		return
	}
	for i, r := range tw.rev[:n] {
		j := int(r)
		if j > i {
			a[i], a[j] = a[j], a[i]
		}
	}
	pos, size := 0, 2
	for ; 2*size <= n; size <<= 2 {
		half := size >> 1
		w1 := tbl[pos : pos+half]
		w2 := tbl[pos+half : pos+half+size]
		w2lo, w2hi := w2[:half], w2[half:]
		for start := 0; start < n; start += 2 * size {
			// Equal-length views over the quad's four quarters let the
			// compiler drop the per-element bounds checks.
			b := a[start : start+2*size]
			q0, q1 := b[:half:half], b[half:size:size]
			q2, q3 := b[size:size+half:size+half], b[size+half:]
			_, _, _, _, _, _ = q0[len(w1)-1], q1[len(w1)-1], q2[len(w1)-1], q3[len(w1)-1], w2lo[len(w1)-1], w2hi[len(w1)-1]
			for k, w := range w1 {
				x0, x1, x2, x3 := q0[k], q1[k], q2[k], q3[k]
				v := x1 * w
				y0, y1 := x0+v, x0-v
				v = x3 * w
				y2, y3 := x2+v, x2-v
				v = y2 * w2lo[k]
				q0[k], q2[k] = y0+v, y0-v
				v = y3 * w2hi[k]
				q1[k], q3[k] = y1+v, y1-v
			}
		}
		pos += half + size
	}
	if size <= n {
		half := size >> 1
		stage := tbl[pos : pos+half]
		for start := 0; start < n; start += size {
			lo := a[start : start+half : start+half]
			hi := a[start+half : start+size : start+size]
			_ = lo[len(stage)-1]
			_ = hi[len(stage)-1]
			for k, w := range stage {
				u := lo[k]
				v := hi[k] * w
				lo[k] = u + v
				hi[k] = u - v
			}
		}
	}
}

// FFTReal transforms a real-valued series into the scratch's reused
// output buffer. The returned slice is owned by the scratch and
// invalidated by the next call. Output is bit-identical to the package
// function FFTReal.
func (s *FFTScratch) FFTReal(x []float64) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) == 0 {
		s.buf = growC(s.buf, n)
		for i, v := range x {
			s.buf[i] = complex(v, 0)
		}
		tw := sharedTwiddle(n)
		fftRadix2Table(s.buf, tw, tw.fwd)
		return s.buf
	}
	return s.bluesteinForward(x)
}

// bluesteinForward computes the forward DFT of an arbitrary-length real
// series using the scratch's plan of that length (chirp and filter
// spectrum): one forward FFT, a pointwise product, and one inverse FFT.
func (s *FFTScratch) bluesteinForward(x []float64) []complex128 {
	n := len(x)
	p := s.plan(n)
	tw := p.tw
	a := growC(s.conv, p.m)
	for k := 0; k < n; k++ {
		a[k] = complex(x[k], 0) * p.chirp[k]
	}
	for k := n; k < p.m; k++ {
		a[k] = 0
	}
	s.conv = a
	fftRadix2Table(a, tw, tw.fwd)
	for i := range a {
		a[i] *= p.bhat[i]
	}
	fftRadix2Table(a, tw, tw.inv)
	invM := complex(1/float64(p.m), 0)
	out := growC(s.buf, n)
	for k := 0; k < n; k++ {
		out[k] = a[k] * invM * p.chirp[k]
	}
	s.buf = out
	return out
}

// plan returns the scratch's Bluestein plan of length n. It keeps two: the
// longest length it has seen, which for a forecast workspace is the window
// every mature app transforms, and the latest other one (an app still
// filling its window), built over the buffers of the one before.
func (s *FFTScratch) plan(n int) *bluesteinPlan {
	if s.blue == nil {
		s.blue = new([2]bluesteinPlan)
	}
	b := s.blue
	for i := range b {
		if b[i].n == n {
			return &b[i]
		}
	}
	p := &b[1]
	if n > b[0].n {
		b[0], b[1] = b[1], b[0]
		p = &b[0]
	}
	p.build(n)
	return p
}

// TopHarmonics is the scratch-backed TopHarmonics: same selection, same
// values, but the spectrum and the candidate list live in reused buffers.
// The returned slice is owned by the scratch and invalidated by the next
// call.
func (s *FFTScratch) TopHarmonics(x []float64, k int) []Harmonic {
	n := len(x)
	if n < 2 || k <= 0 {
		return nil
	}
	spec := s.FFTReal(x)
	half := n / 2
	if cap(s.hs) < half {
		s.hs = make([]Harmonic, 0, half)
	}
	hs := s.hs[:0]
	for i := 1; i <= half; i++ {
		amp := cmplx.Abs(spec[i]) * 2 / float64(n)
		hs = append(hs, Harmonic{Index: i, Amplitude: amp})
	}
	s.hs = hs
	if k > len(hs) {
		k = len(hs)
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(hs); j++ {
			if hs[j].Amplitude > hs[best].Amplitude {
				best = j
			}
		}
		hs[i], hs[best] = hs[best], hs[i]
	}
	// Phases are only read for the selected harmonics, so they are filled
	// in after selection — selection compares amplitudes alone, and
	// cmplx.Phase of the untouched spectrum bin yields the same value
	// whether computed before or after the ranking.
	top := hs[:k]
	for i := range top {
		top[i].Phase = cmplx.Phase(spec[top[i].Index])
	}
	return top
}

// SynthesizeHarmonicsInto is SynthesizeHarmonics writing into dst
// (len(dst) == n required), with the non-negativity clamp folded into the
// final write loop when clamp is set — the same values the separate
// clamp pass produces, one pass earlier.
func SynthesizeHarmonicsInto(mean float64, hs []Harmonic, period, start, n int, dst []float64, clamp bool) {
	for t := 0; t < n; t++ {
		v := mean
		for _, h := range hs {
			angle := 2*math.Pi*float64(h.Index)*float64(start+t)/float64(period) + h.Phase
			v += h.Amplitude * math.Cos(angle)
		}
		if clamp && (v < 0 || v != v) {
			v = 0
		}
		dst[t] = v
	}
}
