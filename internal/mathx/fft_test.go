package mathx

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// FFT computes the discrete Fourier transform of x.
// For power-of-two lengths it uses an iterative radix-2 Cooley-Tukey
// transform; other lengths go through Bluestein's algorithm so callers never
// need to pad. The input slice is not modified.
func FFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := make([]complex128, n)
	copy(out, x)
	if n&(n-1) == 0 {
		fftRadix2(out, false)
		return out
	}
	return bluestein(out, false)
}

// IFFT computes the inverse discrete Fourier transform of x, including the
// 1/n normalization, so IFFT(FFT(x)) == x up to floating-point error.
func IFFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := make([]complex128, n)
	copy(out, x)
	if n&(n-1) == 0 {
		fftRadix2(out, true)
	} else {
		out = bluestein(out, true)
	}
	scale := complex(1/float64(n), 0)
	for i := range out {
		out[i] *= scale
	}
	return out
}

// naiveDFT is the O(n^2) reference transform used to validate both FFT paths.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for t := 0; t < n; t++ {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			s += x[t] * cmplx.Exp(complex(0, angle))
		}
		out[k] = s
	}
	return out
}

func complexClose(a, b []complex128, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func randomComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func TestFFTMatchesNaiveDFTPowerOfTwo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 64, 256} {
		x := randomComplex(rng, n)
		got := FFT(x)
		want := naiveDFT(x)
		if !complexClose(got, want, 1e-8*float64(n)) {
			t.Errorf("n=%d: FFT does not match naive DFT", n)
		}
	}
}

func TestFFTMatchesNaiveDFTArbitraryLength(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{3, 5, 7, 12, 100, 504} {
		x := randomComplex(rng, n)
		got := FFT(x)
		want := naiveDFT(x)
		if !complexClose(got, want, 1e-7*float64(n)) {
			t.Errorf("n=%d: Bluestein FFT does not match naive DFT", n)
		}
	}
}

func TestFFTDoesNotModifyInput(t *testing.T) {
	x := []complex128{1, 2, 3, 4, 5}
	orig := append([]complex128(nil), x...)
	FFT(x)
	for i := range x {
		if x[i] != orig[i] {
			t.Fatalf("FFT modified input at %d", i)
		}
	}
}

func TestIFFTInvertsFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 4, 17, 60, 128, 504} {
		x := randomComplex(rng, n)
		back := IFFT(FFT(x))
		if !complexClose(back, x, 1e-8*float64(n)) {
			t.Errorf("n=%d: IFFT(FFT(x)) != x", n)
		}
	}
}

func TestFFTRoundTripProperty(t *testing.T) {
	// Property: for any real series, round-tripping through FFT/IFFT
	// recovers the series.
	f := func(vals []float64) bool {
		if len(vals) == 0 || len(vals) > 512 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e9 {
				return true
			}
		}
		x := make([]complex128, len(vals))
		for i, v := range vals {
			x[i] = complex(v, 0)
		}
		back := IFFT(FFT(x))
		for i := range back {
			if cmplx.Abs(back[i]-x[i]) > 1e-6*(1+math.Abs(vals[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	// Property: FFT(a*x + y) == a*FFT(x) + FFT(y).
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(200)
		x := randomComplex(rng, n)
		y := randomComplex(rng, n)
		a := complex(rng.NormFloat64(), 0)
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a*x[i] + y[i]
		}
		left := FFT(sum)
		fx, fy := FFT(x), FFT(y)
		right := make([]complex128, n)
		for i := range right {
			right[i] = a*fx[i] + fy[i]
		}
		if !complexClose(left, right, 1e-7*float64(n)) {
			t.Fatalf("n=%d: FFT is not linear", n)
		}
	}
}

func TestFFTEmptyInput(t *testing.T) {
	if got := FFT(nil); got != nil {
		t.Errorf("FFT(nil) = %v, want nil", got)
	}
	if got := IFFT(nil); got != nil {
		t.Errorf("IFFT(nil) = %v, want nil", got)
	}
	if got := FFTReal(nil); got != nil {
		t.Errorf("FFTReal(nil) = %v, want nil", got)
	}
}

func TestTopHarmonicsPureSinusoid(t *testing.T) {
	// A pure cosine at bin 5 of a length-100 series must dominate.
	n := 100
	x := make([]float64, n)
	for i := range x {
		x[i] = 3 * math.Cos(2*math.Pi*5*float64(i)/float64(n))
	}
	hs := TopHarmonics(x, 3)
	if len(hs) != 3 {
		t.Fatalf("got %d harmonics, want 3", len(hs))
	}
	if hs[0].Index != 5 {
		t.Errorf("dominant harmonic index = %d, want 5", hs[0].Index)
	}
	if math.Abs(hs[0].Amplitude-3) > 1e-9 {
		t.Errorf("dominant amplitude = %v, want 3", hs[0].Amplitude)
	}
	if hs[1].Amplitude > 1e-9 {
		t.Errorf("second harmonic amplitude = %v, want ~0", hs[1].Amplitude)
	}
}

func TestTopHarmonicsExcludesDC(t *testing.T) {
	x := make([]float64, 64)
	for i := range x {
		x[i] = 42 // pure DC
	}
	hs := TopHarmonics(x, 5)
	for _, h := range hs {
		if h.Index == 0 {
			t.Fatal("TopHarmonics included the DC component")
		}
		if h.Amplitude > 1e-9 {
			t.Errorf("constant series should have zero harmonics, got %v", h.Amplitude)
		}
	}
}

func TestTopHarmonicsEdgeCases(t *testing.T) {
	if hs := TopHarmonics([]float64{1}, 3); hs != nil {
		t.Errorf("too-short series: got %v, want nil", hs)
	}
	if hs := TopHarmonics([]float64{1, 2, 3, 4}, 0); hs != nil {
		t.Errorf("k=0: got %v, want nil", hs)
	}
	// k larger than available bins is truncated, not an error.
	hs := TopHarmonics([]float64{1, 2, 3, 4}, 100)
	if len(hs) != 2 {
		t.Errorf("k clamp: got %d harmonics, want 2", len(hs))
	}
}

func TestSynthesizeHarmonicsReconstruction(t *testing.T) {
	// Synthesize from the full harmonic set: must reproduce the original
	// periodic series, including at extrapolated offsets.
	n := 64
	x := make([]float64, n)
	for i := range x {
		x[i] = 2 + math.Sin(2*math.Pi*4*float64(i)/float64(n)) + 0.5*math.Cos(2*math.Pi*9*float64(i)/float64(n))
	}
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	hs := TopHarmonics(x, n/2)
	rec := SynthesizeHarmonics(mean, hs, n, 0, 2*n)
	for i := 0; i < 2*n; i++ {
		if math.Abs(rec[i]-x[i%n]) > 1e-6 {
			t.Fatalf("reconstruction mismatch at %d: got %v want %v", i, rec[i], x[i%n])
		}
	}
}

func BenchmarkFFT512(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x := randomComplex(rng, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkFFT504Bluestein(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	x := randomComplex(rng, 504)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}
