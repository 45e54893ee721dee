// Package mathx provides the numeric kernels shared by the forecasting,
// feature-extraction, and clustering packages: fast Fourier transforms,
// dense linear algebra, and small numeric helpers.
//
// Everything here is deterministic and allocation-conscious: these kernels
// sit on the hot path of the forecasting simulations, which evaluate every
// forecaster over every block of every application trace.
package mathx

import (
	"math"
	"math/bits"
	"math/cmplx"
)

// Reference implementation — no serving or training caller. Apart from
// the Harmonic type, this file is the plain, allocating formulation that
// fftplan.go's plan-cached transforms are asserted bit-identical to; its
// callers are the equivalence tests here, in internal/forecast and in
// internal/features (the complex-input FFT and IFFT, which only this
// package's tests called, live in fft_test.go).

// FFTReal transforms a real-valued series. It is the form used by the FFT
// forecaster and the periodicity feature.
func FFTReal(x []float64) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	if len(c) == 0 {
		return nil
	}
	if len(c)&(len(c)-1) == 0 {
		fftRadix2(c, false)
		return c
	}
	return bluestein(c, false)
}

// fftRadix2 performs an in-place iterative radix-2 FFT.
// inverse selects the conjugate transform (without normalization).
func fftRadix2(a []complex128, inverse bool) {
	n := len(a)
	if n <= 1 {
		return
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			a[i], a[j] = a[j], a[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		wStep := cmplx.Exp(complex(0, step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				u := a[start+k]
				v := a[start+k+half] * w
				a[start+k] = u + v
				a[start+k+half] = u - v
				w *= wStep
			}
		}
	}
}

// bluestein computes an arbitrary-length DFT as a convolution, enabling FFT
// of non-power-of-two series (block sizes like 504 minutes).
func bluestein(x []complex128, inverse bool) []complex128 {
	n := len(x)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	// Chirp terms: w[k] = exp(sign * i*pi*k^2/n).
	w := make([]complex128, n)
	for k := 0; k < n; k++ {
		// k*k may overflow for huge n; keep it modular in 2n.
		kk := (int64(k) * int64(k)) % int64(2*n)
		w[k] = cmplx.Exp(complex(0, sign*math.Pi*float64(kk)/float64(n)))
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * w[k]
		b[k] = cmplx.Conj(w[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(w[k])
	}
	fftRadix2(a, false)
	fftRadix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	fftRadix2(a, true)
	invM := complex(1/float64(m), 0)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		out[k] = a[k] * invM * w[k]
	}
	return out
}

// Harmonic describes one frequency component of a real series: its bin index
// in the DFT, amplitude, and phase. Frequency in cycles-per-sample is
// Index/N for a series of length N.
type Harmonic struct {
	Index     int
	Amplitude float64
	Phase     float64
}

// TopHarmonics returns the k largest-amplitude harmonics of x, excluding the
// DC component, ordered by descending amplitude. It is the basis of both the
// FFT forecaster (top-10 harmonics, §4.3.3) and the periodicity feature.
func TopHarmonics(x []float64, k int) []Harmonic {
	n := len(x)
	if n < 2 || k <= 0 {
		return nil
	}
	spec := FFTReal(x)
	half := n / 2
	hs := make([]Harmonic, 0, half)
	for i := 1; i <= half; i++ {
		amp := cmplx.Abs(spec[i]) * 2 / float64(n)
		hs = append(hs, Harmonic{Index: i, Amplitude: amp, Phase: cmplx.Phase(spec[i])})
	}
	// Partial selection sort: k is small (typically 10).
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
	return hs[:k]
}

// SynthesizeHarmonics reconstructs a length-n series from a mean value and a
// set of harmonics taken from a length-period series, evaluated at sample
// offsets start..start+n-1. This extrapolates the periodic structure beyond
// the analysis window, which is how the FFT forecaster predicts.
func SynthesizeHarmonics(mean float64, hs []Harmonic, period, start, n int) []float64 {
	out := make([]float64, n)
	for t := 0; t < n; t++ {
		v := mean
		for _, h := range hs {
			angle := 2*math.Pi*float64(h.Index)*float64(start+t)/float64(period) + h.Phase
			v += h.Amplitude * math.Cos(angle)
		}
		out[t] = v
	}
	return out
}
