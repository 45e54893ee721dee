package forecast

import (
	"fmt"
	"math"
)

// Fits are lazy. A forecast at horizon 1 reads the coefficients of one
// regime, the last value's; it falls back to the global fit only if that
// regime's fit fails, and to the window mean only if that fails too. So
// each regime, and the global model, is fit on its first use within a
// call (setarFits). A longer horizon rolls forward through whatever
// regimes its predictions visit, and the quantile path's pooled residual
// visits every regime. A fit is a pure function of its rows, so fitting
// lazily returns the coefficients fitting everything up front would.

// SETAR is a Self-Excitation Threshold AutoRegressive forecaster: the series
// is partitioned into regimes by thresholds on the most recent value, and a
// separate AR model is fit per regime. SETAR handles piece-wise linear,
// non-stationary patterns that defeat a single AR fit (§4.3.2) — e.g. an
// application that alternates between an idle regime and a busy regime with
// different dynamics.
type SETAR struct {
	lags       int
	thresholds int // number of thresholds => thresholds+1 regimes
}

// NewSETAR returns a SETAR forecaster with the given lags and up to the
// given number of thresholds (the paper uses 10 lags, up to 2 thresholds).
func NewSETAR(lags, thresholds int) *SETAR {
	if lags < 1 {
		lags = 1
	}
	if thresholds < 1 {
		thresholds = 1
	}
	return &SETAR{lags: lags, thresholds: thresholds}
}

// Name implements Forecaster.
func (s *SETAR) Name() string { return fmt.Sprintf("setar%d-%d", s.lags, s.thresholds) }

// ForecastInto implements Forecaster.
func (s *SETAR) ForecastInto(history []float64, horizon int, dst []float64, ws *Workspace) []float64 {
	if horizon <= 0 {
		return nil
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	thr := regimeThresholdsWS(history, s.thresholds, ws)
	if len(thr) == 0 || len(history)-s.lags < s.lags+2 {
		// Degenerate (constant or tiny) history: plain AR fallback.
		return arForecastInto(history, horizon, s.lags, dst, ws)
	}
	dst = ensureDst(dst, horizon)
	f := newSETARFits(history, s.lags, thr, ws)
	f.roll(dst)
	return dst
}

// ForecastQuantilesInto implements Forecaster. The band scale is
// the pooled in-sample one-step residual of the per-row forecasts under
// the same regime → global → mean fallback chain the forecast loop uses,
// widened by sqrt(t+1) for the compounding rolled-forward horizon. The
// pooled residual reads every regime, so every regime is fit.
func (s *SETAR) ForecastQuantilesInto(history []float64, horizon int, levels, dst []float64, ws *Workspace) []float64 {
	if horizon <= 0 || len(levels) == 0 {
		return nil
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	thr := regimeThresholdsWS(history, s.thresholds, ws)
	rows := len(history) - s.lags
	if len(thr) == 0 || rows < s.lags+2 {
		return arQuantilesInto(history, horizon, s.lags, levels, dst, ws)
	}
	dst = ensureDst(dst, len(levels)*horizon)
	f := newSETARFits(history, s.lags, thr, ws)

	// Pooled one-step residuals over the training rows.
	var sse float64
	for r := 0; r < rows; r++ {
		pred := f.histMean
		if coef := f.coefFor(regimeOf(history[r+s.lags-1], thr)); coef != nil {
			pred = arFitted(history, coef, r, s.lags)
		}
		e := history[r+s.lags] - pred
		sse += e * e
	}
	denom := rows - (s.lags + 1)
	if denom < 1 {
		denom = 1
	}
	sigma := guardSigma(math.Sqrt(sse / float64(denom)))

	qpt := ws.qPoint(horizon)
	f.roll(qpt)
	sig := ws.qSig(horizon)
	for t := range sig {
		sig[t] = sigma * math.Sqrt(float64(t+1))
	}
	fillQuantilesWS(dst, qpt, sig, levels, horizon, ws)
	return dst
}

// setarFits holds one call's fits, each made on first use (see the head
// of this file). Coefficients are copied out of solver scratch into
// ws.coef: slot k holds regime k's, slot len(thr)+1 the global fit's.
type setarFits struct {
	h        []float64
	lags     int
	thr      []float64
	nz       []int
	coef     []float64
	state    []int8 // per slot: 0 not yet fit, 1 fit, -1 failed
	histMean float64
	ws       *Workspace
}

func newSETARFits(h []float64, lags int, thr []float64, ws *Workspace) setarFits {
	slots := len(thr) + 2
	ws.coef = growF(ws.coef, slots*(lags+1))
	if cap(ws.fitState) < slots {
		ws.fitState = make([]int8, slots)
	}
	ws.fitState = ws.fitState[:slots]
	clear(ws.fitState)
	return setarFits{h: h, lags: lags, thr: thr, nz: nonzeroPositions(h, ws),
		coef: ws.coef, state: ws.fitState, histMean: mean(h), ws: ws}
}

// coefFor returns the coefficients the forecast uses in regime reg: the
// regime's own fit, else the global fit, else nil (the window mean).
func (f *setarFits) coefFor(reg int) []float64 {
	if c := f.fit(reg, f.thr); c != nil {
		return c
	}
	return f.fit(len(f.thr)+1, nil)
}

// fit returns slot k's coefficients, fitting them over the rows of regime
// k under thr (every row when thr is nil) on first use; nil if the fit
// failed.
func (f *setarFits) fit(k int, thr []float64) []float64 {
	cols := f.lags + 1
	c := f.coef[k*cols : (k+1)*cols]
	if f.state[k] == 0 {
		f.state[k] = -1
		if coef, ok := fitRegimeWS(f.h, f.lags, f.nz, thr, k, f.ws); ok {
			copy(c, coef)
			f.state[k] = 1
		}
	}
	if f.state[k] < 0 {
		return nil
	}
	return c
}

// roll rolls the fitted models forward into dst, feeding predictions back
// in as lagged inputs; each step uses the regime of the latest value.
func (f *setarFits) roll(dst []float64) {
	buf := growBuf(f.ws.buf, f.h, len(dst))
	for t := range dst {
		coef := f.coefFor(regimeOf(buf[len(buf)-1], f.thr))
		if coef == nil {
			dst[t] = f.histMean
			buf = append(buf, dst[t])
			continue
		}
		v := coef[0]
		for l := 1; l <= f.lags; l++ {
			idx := len(buf) - l
			if idx >= 0 {
				v += coef[l] * buf[idx]
			}
		}
		if v < 0 || v != v {
			v = 0
		}
		dst[t] = v
		buf = append(buf, v)
	}
	f.ws.buf = buf[:0]
}

// regimeThresholdsWS picks up to k thresholds at evenly spaced quantiles
// of the history, like the reference regimeThresholds, selecting each
// rank in the workspace quantile buffer instead of sorting it (rank.go).
// It returns an empty slice when the history has no spread (all regimes
// would coincide).
func regimeThresholdsWS(history []float64, k int, ws *Workspace) []float64 {
	if len(history) < 4 {
		return nil
	}
	a := minMaxWS(history, ws)
	if a[0] == a[len(a)-1] {
		return nil
	}
	if cap(ws.thr) < k {
		ws.thr = make([]float64, 0, k)
	}
	out := ws.thr[:0]
	for i := 1; i <= k; i++ {
		q := float64(i) / float64(k+1)
		v := selectRank(a, int(q*float64(len(a)-1)))
		if len(out) == 0 || v > out[len(out)-1] {
			out = append(out, v)
		}
	}
	ws.thr = out
	return out
}

// regimeOf returns the regime index of value v given ascending thresholds.
func regimeOf(v float64, thr []float64) int {
	for i, t := range thr {
		if v <= t {
			return i
		}
	}
	return len(thr)
}
