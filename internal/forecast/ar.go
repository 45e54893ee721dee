package forecast

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"github.com/ubc-cirrus-lab/femux-go/internal/mathx"
)

// The least-squares fit. mathx.LeastSquares, the reference, builds the
// design matrix (rows r = 1, h[r+lags-1], …, h[r] against y = h[r+lags])
// and sums X'X and X'y row by row: for each row, each column i with a
// nonzero value vi, and each j >= i, it adds vi·x_j to cell (i,j) and
// vi·y to X'y[i]. fitRegimeWS sums the same cells in column order.
//
//   - Column order. Each cell is its own sum, so the cells can be summed
//     in any order as long as each one adds its terms in ascending row
//     order with its operands in the reference's order (vi·x_j). Cell
//     (i,j), i >= 1, is a dot product of two shifted views of the window,
//     h[r+lags-i]·h[r+lags-j]; X'y[i] is h[r+lags-i]·h[r+lags]; cell
//     (0,j) is the sum of h[r+lags-j] (the intercept's 1·x is x); cell
//     (0,0) is the row count. One pass over a column's rows sums four of
//     its cells in registers, sharing one index load.
//   - Nonzero rows. A column's pass visits only the rows whose value in
//     that column is nonzero, read off one list of the window's nonzero
//     positions built per call. For cells (i,j), i >= 1, those are exactly
//     the rows the reference's vi == 0 skip keeps. For the intercept's
//     cells it also drops the rows where x_j or y is zero, whose terms are
//     an exact ±0: adding ±0 cannot change a sum that starts at +0,
//     because such a sum is never −0. That argument is for finite inputs,
//     which is all the system feeds a forecaster (the wire and the trace
//     reader reject NaN and ±Inf). One path serves dense and idle (mostly
//     zero) windows alike; the skip is what keeps the idle ones cheap.
//   - Regimes. A SETAR regime's fit sums the same cells over the rows of
//     its regime: each column's nonzero rows are filtered through a
//     membership bitmask built once per fit.
//
// fit_equiv_test.go holds all of it to the row-major oracles, bit for bit.

// AR is an autoregressive forecaster: y_t = c + sum_i phi_i * y_{t-i}.
// AR assumes a stationary, linear series (§4.3.2); the FeMux classifier
// routes such blocks here. Coefficients are refit on every call from the
// supplied history window by least squares, which doubles as a simple form
// of online adaptation.
type AR struct {
	lags int
}

// NewAR returns an AR forecaster with the given number of lags. The paper
// settles on 10 lags after an empirical sweep (§4.3.3).
func NewAR(lags int) *AR {
	if lags < 1 {
		lags = 1
	}
	return &AR{lags: lags}
}

// Name implements Forecaster.
func (a *AR) Name() string { return fmt.Sprintf("ar%d", a.lags) }

// ForecastInto implements Forecaster.
func (a *AR) ForecastInto(history []float64, horizon int, dst []float64, ws *Workspace) []float64 {
	return arForecastInto(history, horizon, a.lags, dst, ws)
}

// ForecastQuantilesInto implements Forecaster: a Gaussian band
// around the point trajectory, scaled by the in-sample one-step residual
// standard deviation of the fitted model (a byproduct of the normal
// equations already in the workspace) and widened by sqrt(t+1) as the
// rolled-forward forecast compounds its own errors.
func (a *AR) ForecastQuantilesInto(history []float64, horizon int, levels, dst []float64, ws *Workspace) []float64 {
	return arQuantilesInto(history, horizon, a.lags, levels, dst, ws)
}

// arQuantilesInto is the AR quantile fast path, shared with SETAR's
// degenerate-history fallback.
func arQuantilesInto(history []float64, horizon, lags int, levels, dst []float64, ws *Workspace) []float64 {
	if horizon <= 0 || len(levels) == 0 {
		return nil
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	dst = ensureDst(dst, len(levels)*horizon)
	coef, ok := fitARWS(history, lags, ws)
	if !ok {
		// Same fallback as the point path (constant mean), spread by the
		// window's own standard deviation.
		fillConstQuantilesWS(dst, mean(history), histStd(history), levels, horizon, ws)
		return dst
	}
	sigma := arResidualStd(history, coef, lags)
	qpt := ws.qPoint(horizon)
	predictARInto(history, coef, lags, qpt, ws)
	sig := ws.qSig(horizon)
	for t := range sig {
		sig[t] = sigma * math.Sqrt(float64(t+1))
	}
	fillQuantilesWS(dst, qpt, sig, levels, horizon, ws)
	return dst
}

// arResidualStd is the in-sample one-step residual standard deviation of
// a fitted AR model over its training rows, with a degrees-of-freedom
// correction for the fitted coefficients. coef aliases solver scratch,
// which this only reads.
func arResidualStd(history, coef []float64, lags int) float64 {
	rows := len(history) - lags
	if rows <= 0 {
		return 0
	}
	var sse float64
	for r := 0; r < rows; r++ {
		e := history[r+lags] - arFitted(history, coef, r, lags)
		sse += e * e
	}
	denom := rows - (lags + 1)
	if denom < 1 {
		denom = 1
	}
	return guardSigma(math.Sqrt(sse / float64(denom)))
}

// arFitted is the model's fitted value for training row r: the design row
// (1, h[r+lags-1], …, h[r]) dotted with coef, summed from +0 in column
// order. The intercept's term is coef[0] itself (c·1 == c exactly).
func arFitted(h, coef []float64, r, lags int) float64 {
	var pred float64
	pred += coef[0]
	for l := 1; l < len(coef); l++ {
		pred += coef[l] * h[r+lags-l]
	}
	return pred
}

// arForecastInto is the AR fast path, shared with SETAR's fallback.
func arForecastInto(history []float64, horizon, lags int, dst []float64, ws *Workspace) []float64 {
	if horizon <= 0 {
		return nil
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	dst = ensureDst(dst, horizon)
	coef, ok := fitARWS(history, lags, ws)
	if !ok {
		constantInto(dst, mean(history))
		return dst
	}
	predictARInto(history, coef, lags, dst, ws)
	return dst
}

// fitARWS fits intercept + lag coefficients over every training row of
// history (row r predicts history[r+lags] from the lags values before
// it). The returned slice is workspace scratch, invalidated by the next
// fit.
func fitARWS(history []float64, lags int, ws *Workspace) ([]float64, bool) {
	if len(history)-lags < lags+2 {
		return nil, false
	}
	return fitRegimeWS(history, lags, nonzeroPositions(history, ws), nil, 0, ws)
}

// nonzeroPositions lists the indices of history's nonzero values in
// ascending order, in workspace scratch. One list serves every fit of a
// call: each design column takes its own slice of it.
func nonzeroPositions(history []float64, ws *Workspace) []int {
	nz := growI(ws.nz, len(history))[:0]
	for p, v := range history {
		if v != 0 {
			nz = append(nz, p)
		}
	}
	ws.nz = nz
	return nz
}

// fitRegimeWS fits AR(lags) by least squares over the training rows whose
// regime under thr (the regime of the row's last lag, h[r+lags-1]) is
// reg; with no thresholds every row takes part. nz is h's
// nonzeroPositions. The upper triangle of X'X and all of X'y are summed
// column by column, each cell in its own register, and the system is
// solved in place. It fails, like the reference, when fewer than lags+2
// rows take part or the system is singular. The returned slice is
// workspace scratch, invalidated by the next fit.
func fitRegimeWS(h []float64, lags int, nz []int, thr []float64, reg int, ws *Workspace) ([]float64, bool) {
	n := len(h)
	rows := n - lags
	// sub holds one column's rows, then the regime's membership bits, one
	// int word of bits.UintSize each: bit q is set when the row whose last
	// lag is h[q] lies in regime reg.
	sub := growI(ws.sub, rows+(n+bits.UintSize-1)/bits.UintSize)
	ws.sub = sub
	sub, member := sub[:rows], sub[rows:]
	members := rows
	if len(thr) > 0 {
		clear(member)
		members = 0
		for q := lags - 1; q < n-1; q++ {
			if regimeOf(h[q], thr) == reg {
				member[q/bits.UintSize] |= 1 << (q % bits.UintSize)
				members++
			}
		}
	}
	if members < lags+2 {
		return nil, false
	}
	cols := lags + 1
	xtx := growF(ws.xtx, cols*cols)
	ws.xtx = xtx
	xty := growF(ws.xty, cols)
	ws.xty = xty
	// Lag i's column holds h[r+lags-i] at row r: the window h[lo:lo+rows]
	// with lo = lags-i, so its nonzero rows are a slice of nz. Lag 0 is y.
	column := func(i int) (ps []int, lo int) {
		lo = lags - i
		ps = nz[sort.SearchInts(nz, lo):sort.SearchInts(nz, lo+rows)]
		if len(thr) > 0 {
			ps = keepMembers(ps, i-1, member, sub)
		}
		return ps, lo
	}
	lag := func(j int) []float64 {
		j = min(j, lags) // past the last lag: a pad whose sums are dropped
		return h[lags-j : lags-j+rows]
	}
	xtx[0] = float64(members)
	ps, _ := column(0)
	var sy float64
	for _, p := range ps {
		sy += h[p]
	}
	xty[0] = sy
	for i := 1; i < cols; i++ {
		ps, lo := column(i)
		w, row := lag(i), xtx[i*cols:(i+1)*cols]
		s0, s1, s2, s3 := dot4(ps, lo, w, nil, lag(0), w, lag(i+1))
		xtx[i], xty[i], row[i] = s0, s1, s2
		if i+1 < cols {
			row[i+1] = s3
		}
		for j := i + 2; j < cols; j += 4 {
			var s [4]float64
			s[0], s[1], s[2], s[3] = dot4(ps, lo, w, lag(j), lag(j+1), lag(j+2), lag(j+3))
			copy(row[j:], s[:])
		}
	}
	return solveNormalEquations(xtx, xty, cols)
}

// dot4 sums four cells of the normal equations in one pass over the rows
// r = p-lo of ps, ascending, with v = w[r] the row's value in the pass's
// own column: Σ v·a[r], …, Σ v·d[r]. A nil a stands for the intercept
// column, whose term 1·v is v. Each sum starts at +0 and adds the terms
// of the rows with v != 0: the reference's terms, less the intercept
// cell's exact ±0 ones (see the head of this file).
func dot4(ps []int, lo int, w, a, b, c, d []float64) (sa, sb, sc, sd float64) {
	// Views as long as w: past w's own check, theirs are proven.
	b, c, d = b[:len(w)], c[:len(w)], d[:len(w)]
	if a == nil {
		for _, p := range ps {
			r := p - lo
			v := w[r]
			sa += v
			sb += v * b[r]
			sc += v * c[r]
			sd += v * d[r]
		}
		return
	}
	a = a[:len(w)]
	for _, p := range ps {
		r := p - lo
		v := w[r]
		sa += v * a[r]
		sb += v * b[r]
		sc += v * c[r]
		sd += v * d[r]
	}
	return
}

// keepMembers keeps, in dst, the positions p of ps whose training row is
// a member: bit p+shift of member, shift being the offset from p to the
// row's last lag. It writes every p and advances past the members only,
// so the regime's unpredictable pattern costs no branch.
func keepMembers(ps []int, shift int, member, dst []int) []int {
	k := 0
	for _, p := range ps {
		q := uint(p + shift)
		dst[k] = p
		k += int(uint(member[q/bits.UintSize])>>(q%bits.UintSize)) & 1
	}
	return dst[:k]
}

// solveNormalEquations applies the ridge + mirror step of
// mathx.LeastSquares to the accumulated upper triangle and solves the
// system in place: the solution is left in xty.
func solveNormalEquations(xtx, xty []float64, cols int) ([]float64, bool) {
	// Mirror the upper triangle and add ridge.
	const ridge = 1e-9
	for i := 0; i < cols; i++ {
		xtx[i*cols+i] += ridge
		for j := i + 1; j < cols; j++ {
			xtx[j*cols+i] = xtx[i*cols+j]
		}
	}
	if err := mathx.SolveLinearFlat(xtx, xty, cols); err != nil {
		return nil, false
	}
	return xty, true
}

// predictARInto rolls the fitted model forward, feeding predictions back
// in as lagged inputs, using the workspace rolling buffer.
func predictARInto(history, coef []float64, lags int, dst []float64, ws *Workspace) {
	buf := growBuf(ws.buf, history, len(dst))
	for t := range dst {
		v := coef[0]
		for l := 1; l <= lags; l++ {
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
	ws.buf = buf[:0]
}
