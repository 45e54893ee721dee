package forecast

import (
	"fmt"
	"math"

	"github.com/ubc-cirrus-lab/femux-go/internal/mathx"
)

// FFT extrapolates the dominant harmonics of the history window, the
// approach used by IceBreaker and by the Huawei characterization's best
// statistical model (§4.3.2). It excels on periodic traffic (timers, cron
// workloads, diurnal patterns) and is the forecaster the characterization
// study evaluates at 10-second and 60-second timesteps (Fig 5).
type FFT struct {
	harmonics int
}

// NewFFT returns an FFT forecaster keeping the top-k harmonics (the paper
// uses 10).
func NewFFT(harmonics int) *FFT {
	if harmonics < 1 {
		harmonics = 1
	}
	return &FFT{harmonics: harmonics}
}

// Name implements Forecaster.
func (f *FFT) Name() string { return fmt.Sprintf("fft%d", f.harmonics) }

// ForecastInto implements Forecaster. The workspace owns the transform
// buffers and Bluestein plans (see mathx.FFTScratch; twiddle tables
// are process-wide), so repeated forecasts over the same window size skip
// all plan setup and allocate nothing.
func (f *FFT) ForecastInto(history []float64, horizon int, dst []float64, ws *Workspace) []float64 {
	if horizon <= 0 {
		return nil
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	dst = ensureDst(dst, horizon)
	n := len(history)
	if n < 4 {
		constantInto(dst, mean(history))
		return dst
	}
	m := mean(history)
	hs := ws.fft.TopHarmonics(history, f.harmonics)
	// Extrapolate the harmonic model past the end of the window: sample
	// offsets n..n+horizon-1 of the length-n periodic reconstruction,
	// with the non-negativity clamp folded into the write loop.
	mathx.SynthesizeHarmonicsInto(m, hs, n, n, horizon, dst, true)
	return dst
}

// ForecastQuantilesInto implements Forecaster. The scale is the
// in-sample residual of the truncated harmonic model: the top-k
// reconstruction is synthesized back over the window (offsets 0..n-1,
// unclamped — the model's raw output) and compared to the history. The
// band is flat in t: a periodic model's error does not compound with
// the horizon the way a rolled-forward AR's does.
func (f *FFT) ForecastQuantilesInto(history []float64, horizon int, levels, dst []float64, ws *Workspace) []float64 {
	if horizon <= 0 || len(levels) == 0 {
		return nil
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	dst = ensureDst(dst, len(levels)*horizon)
	n := len(history)
	if n < 4 {
		fillConstQuantilesWS(dst, mean(history), histStd(history), levels, horizon, ws)
		return dst
	}
	m := mean(history)
	hs := ws.fft.TopHarmonics(history, f.harmonics)
	qpt := ws.qPoint(horizon)
	mathx.SynthesizeHarmonicsInto(m, hs, n, n, horizon, qpt, true)
	recon := growF(ws.qres, n)
	ws.qres = recon
	mathx.SynthesizeHarmonicsInto(m, hs, n, 0, n, recon, false)
	var sse float64
	for i, v := range history {
		e := v - recon[i]
		sse += e * e
	}
	sigma := guardSigma(math.Sqrt(sse / float64(n)))
	sig := ws.qSig(horizon)
	for t := range sig {
		sig[t] = sigma
	}
	fillQuantilesWS(dst, qpt, sig, levels, horizon, ws)
	return dst
}
