package forecast

import (
	"sync"

	"github.com/ubc-cirrus-lab/femux-go/internal/mathx"
)

// Workspace holds every scratch buffer the ForecastInto kernels need:
// the FFT plans of its longest and latest window lengths, pooled
// least-squares matrices for AR/SETAR, the smoothing grid-search state,
// and the Markov chain buffers. One workspace serves every forecaster; buffers are grown
// lazily and reused across calls, so a warmed workspace makes every
// forecast allocation-free (alloc_test.go asserts this).
//
// A Workspace is NOT safe for concurrent use. Callers that forecast from
// multiple goroutines must use one workspace per goroutine — the
// simulators take one per simulation, and femuxd takes one per request
// for as long as it computes. The zero value is ready to use.
type Workspace struct {
	fft mathx.FFTScratch

	// Rolling prediction-feedback buffer (AR/SETAR roll forecasts back in
	// as lagged inputs).
	buf []float64

	// Least-squares state: the normal equations, solved in place; the
	// window's nonzero positions and one column's regime rows (ar.go); and
	// SETAR's per-regime coefficient store and fit states.
	xtx, xty []float64
	nz, sub  []int
	coef     []float64
	fitState []int8

	// Quantile state shared by SETAR thresholds and Markov discretization.
	sorted []float64
	thr    []float64

	// Markov chain state.
	trans, dist, next       []float64
	sums, counts, centroids []float64
	bounds                  []float64

	// Smoothing grid-search chains (one entry per grid point, so the
	// per-alpha recurrences run interleaved with unchanged per-chain
	// arithmetic).
	levels, trends, sses []float64
	ga, gab              []float64

	// Quantile scratch: point trajectory, per-step scale, per-level
	// z-scores, level/centroid order, and the in-sample reconstruction
	// buffer used for residual estimates (quantile.go).
	qpt, qsig, qz, qres []float64
	qord                []int

	// Caller-facing buffers, handed out by Out, Levels and History.
	out     []float64
	qlevels []float64
	hist    []float64
}

// NewWorkspace returns an empty workspace; buffers are grown on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// wsPool recycles workspaces process-wide, so grown scratch amortizes
// across users: the simulators' sweeps, and femuxd's requests, each of
// which takes one for as long as it computes. Results are unaffected:
// workspaces carry no cross-call state, only scratch capacity and the
// last FFT plan used (reuse equivalence is pinned by the workspace-reuse
// tests).
var wsPool = sync.Pool{New: func() any { return NewWorkspace() }}

// GetWorkspace takes a (possibly warmed) workspace from the shared pool.
func GetWorkspace() *Workspace { return wsPool.Get().(*Workspace) }

// PutWorkspace returns a workspace to the shared pool. The caller must
// not use it afterwards.
func PutWorkspace(ws *Workspace) {
	if ws != nil {
		wsPool.Put(ws)
	}
}

// Out returns a length-n destination slice backed by the workspace, for
// callers that would otherwise allocate a fresh forecast slice per call.
// The returned slice is overwritten by the next Out call; copy it if it
// must outlive the next forecast. A nil receiver allocates.
func (ws *Workspace) Out(n int) []float64 {
	if ws == nil {
		return make([]float64, n)
	}
	if cap(ws.out) < n {
		ws.out = make([]float64, n)
	}
	ws.out = ws.out[:n]
	return ws.out
}

// Levels returns a length-n levels slice backed by the workspace, for
// callers assembling per-call quantile-level lists without allocating
// (the single-level pod-conversion path builds []float64{level} here).
// Overwritten by the next Levels call; a nil receiver allocates.
func (ws *Workspace) Levels(n int) []float64 {
	if ws == nil {
		return make([]float64, n)
	}
	if cap(ws.qlevels) < n {
		ws.qlevels = make([]float64, n)
	}
	ws.qlevels = ws.qlevels[:n]
	return ws.qlevels
}

// History returns a length-n slice backed by the workspace for a
// caller's history view, which no forecaster writes: it is overwritten
// by the next History call only.
func (ws *Workspace) History(n int) []float64 {
	if cap(ws.hist) < n {
		ws.hist = make([]float64, n)
	}
	ws.hist = ws.hist[:n]
	return ws.hist
}

// Into is fc.ForecastInto. It stays for the bench/ module, which calls it.
func Into(fc Forecaster, history []float64, horizon int, dst []float64, ws *Workspace) []float64 {
	return fc.ForecastInto(history, horizon, dst, ws)
}

// ensureDst returns dst resized to n, reusing its backing array when it
// has capacity. Kernels overwrite every element, so stale content is fine.
func ensureDst(dst []float64, n int) []float64 {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]float64, n)
}

// growF resizes a float scratch slice without zeroing (callers overwrite).
func growF(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

// growZeroF resizes a float scratch slice and zeroes it.
func growZeroF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// growI resizes an int scratch slice without zeroing.
func growI(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}

// growBuf returns a rolling buffer primed with history and capacity for
// extra appended predictions, reusing the workspace backing array.
func growBuf(buf, history []float64, extra int) []float64 {
	need := len(history) + extra
	if cap(buf) < need {
		buf = make([]float64, 0, need)
	}
	buf = buf[:len(history)]
	copy(buf, history)
	return buf
}

// constantInto fills dst with v clamped at 0, the in-place form of the
// old constant helper (the clamp is folded into the single write pass).
func constantInto(dst []float64, v float64) {
	if v < 0 || v != v {
		v = 0
	}
	for i := range dst {
		dst[i] = v
	}
}

// zeroInto fills dst with zeros.
func zeroInto(dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
}
