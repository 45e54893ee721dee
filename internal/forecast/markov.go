package forecast

import "fmt"

// MarkovChain discretizes the history into quantile states, estimates the
// state-transition matrix, and forecasts the expected value of the state
// distribution rolled forward. It captures repetitive invocation patterns —
// the paper's Fig 9 shows it learning a periodic trace "perfectly" in its
// second hour — using four states (§4.3.3).
type MarkovChain struct {
	states int
}

// NewMarkovChain returns a Markov chain forecaster with the given number of
// states (the paper uses 4).
func NewMarkovChain(states int) *MarkovChain {
	if states < 2 {
		states = 2
	}
	return &MarkovChain{states: states}
}

// Name implements Forecaster.
func (m *MarkovChain) Name() string { return fmt.Sprintf("markov%d", m.states) }

// ForecastInto implements Forecaster. The transition matrix is a flat
// row-major workspace buffer and the state distributions live in reused
// slices; the non-negativity clamp is folded into the expected-value
// write.
func (m *MarkovChain) ForecastInto(history []float64, horizon int, dst []float64, ws *Workspace) []float64 {
	if horizon <= 0 {
		return nil
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	dst = ensureDst(dst, horizon)
	if len(history) < m.states*2 {
		constantInto(dst, mean(history))
		return dst
	}
	bounds, centroids := discretizeWS(history, m.states, ws)
	if bounds == nil {
		constantInto(dst, history[len(history)-1])
		return dst
	}
	k := len(centroids)
	// Transition counts with add-one smoothing to keep the chain ergodic.
	trans := growF(ws.trans, k*k)
	ws.trans = trans
	for i := range trans {
		trans[i] = 0.1
	}
	prev := stateOf(history[0], bounds)
	for i := 1; i < len(history); i++ {
		cur := stateOf(history[i], bounds)
		trans[prev*k+cur]++
		prev = cur
	}
	for i := 0; i < k; i++ {
		tRow := trans[i*k : i*k+k]
		var row float64
		for _, v := range tRow {
			row += v
		}
		for j := range tRow {
			tRow[j] /= row
		}
	}
	// Roll the state distribution forward from the last observation.
	dist := growZeroF(ws.dist, k)
	ws.dist = dist
	dist[stateOf(history[len(history)-1], bounds)] = 1
	next := growF(ws.next, k)
	ws.next = next
	for t := 0; t < horizon; t++ {
		for j := range next {
			next[j] = 0
		}
		for i := range dist {
			if dist[i] == 0 {
				continue
			}
			tRow := trans[i*k : i*k+k]
			for j := range next {
				next[j] += dist[i] * tRow[j]
			}
		}
		copy(dist, next)
		var ev float64
		for j := range dist {
			ev += dist[j] * centroids[j]
		}
		if ev < 0 || ev != ev {
			ev = 0
		}
		dst[t] = ev
	}
	return dst
}

// ForecastQuantilesInto implements Forecaster. Unlike the
// Gaussian-band forecasters, the Markov chain carries a full predictive
// distribution — the state distribution it rolls forward — so each
// requested level reads an exact discrete quantile off the cumulative
// state probabilities in ascending-centroid order. No normal
// approximation is involved, and a NaN level falls back to the expected
// value (the point forecast).
func (m *MarkovChain) ForecastQuantilesInto(history []float64, horizon int, levels, dst []float64, ws *Workspace) []float64 {
	if horizon <= 0 || len(levels) == 0 {
		return nil
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	dst = ensureDst(dst, len(levels)*horizon)
	if len(history) < m.states*2 {
		fillConstQuantilesWS(dst, mean(history), histStd(history), levels, horizon, ws)
		return dst
	}
	bounds, centroids := discretizeWS(history, m.states, ws)
	if bounds == nil {
		fillConstQuantilesWS(dst, history[len(history)-1], 0, levels, horizon, ws)
		return dst
	}
	k := len(centroids)
	// Pre-apply the output clamp to the centroids: the point path clamps
	// per emitted value, and clamping before the sort keeps the
	// ascending-centroid order consistent with the clamped outputs (a
	// NaN centroid from a NaN-gapped history would otherwise sort
	// arbitrarily and break monotonicity after clamping).
	for i, c := range centroids {
		if c < 0 || c != c {
			centroids[i] = 0
		}
	}
	trans := growF(ws.trans, k*k)
	ws.trans = trans
	for i := range trans {
		trans[i] = 0.1
	}
	prev := stateOf(history[0], bounds)
	for i := 1; i < len(history); i++ {
		cur := stateOf(history[i], bounds)
		trans[prev*k+cur]++
		prev = cur
	}
	for i := 0; i < k; i++ {
		tRow := trans[i*k : i*k+k]
		var row float64
		for _, v := range tRow {
			row += v
		}
		for j := range tRow {
			tRow[j] /= row
		}
	}
	dist := growZeroF(ws.dist, k)
	ws.dist = dist
	dist[stateOf(history[len(history)-1], bounds)] = 1
	next := growF(ws.next, k)
	ws.next = next
	// States in ascending-centroid order (insertion sort; k is tiny).
	// Empty buckets carry centroid 0, so index order is not value order.
	ord := growI(ws.qord, k)
	ws.qord = ord
	for i := range ord {
		ord[i] = i
	}
	for i := 1; i < k; i++ {
		for j := i; j > 0 && centroids[ord[j]] < centroids[ord[j-1]]; j-- {
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
	for t := 0; t < horizon; t++ {
		for j := range next {
			next[j] = 0
		}
		for i := range dist {
			if dist[i] == 0 {
				continue
			}
			tRow := trans[i*k : i*k+k]
			for j := range next {
				next[j] += dist[i] * tRow[j]
			}
		}
		copy(dist, next)
		var ev float64
		for j := range dist {
			ev += dist[j] * centroids[j]
		}
		if ev < 0 || ev != ev {
			ev = 0
		}
		for q, level := range levels {
			var v float64
			if level != level {
				v = ev
			} else {
				// Walk the cumulative distribution in centroid order; the
				// epsilon absorbs cumulative-sum rounding so level 1.0
				// still lands on the last state.
				idx := ord[k-1]
				var cum float64
				for _, s := range ord {
					cum += dist[s]
					if cum+1e-12 >= level {
						idx = s
						break
					}
				}
				v = centroids[idx]
			}
			if v < 0 || v != v {
				v = 0
			}
			dst[q*horizon+t] = v
		}
	}
	return dst
}

// discretizeWS splits the value range into up to k quantile states like
// the reference discretize, selecting each rank in the workspace quantile
// buffer instead of sorting it (rank.go), and accumulating into the
// workspace moment buffers. It returns nil bounds for a constant series.
func discretizeWS(history []float64, k int, ws *Workspace) (bounds, centroids []float64) {
	a := minMaxWS(history, ws)
	if a[0] == a[len(a)-1] {
		return nil, nil
	}
	if ws.bounds == nil || cap(ws.bounds) < k-1 {
		ws.bounds = make([]float64, 0, k)
	}
	bounds = ws.bounds[:0]
	for i := 1; i < k; i++ {
		q := float64(i) / float64(k)
		v := selectRank(a, int(q*float64(len(a)-1)))
		if len(bounds) == 0 || v > bounds[len(bounds)-1] {
			bounds = append(bounds, v)
		}
	}
	ws.bounds = bounds
	n := len(bounds) + 1
	sums := growZeroF(ws.sums, n)
	ws.sums = sums
	counts := growZeroF(ws.counts, n)
	ws.counts = counts
	for _, v := range history {
		s := stateOf(v, bounds)
		sums[s] += v
		counts[s]++
	}
	centroids = growF(ws.centroids, n)
	ws.centroids = centroids
	for i := range centroids {
		if counts[i] > 0 {
			centroids[i] = sums[i] / counts[i]
		} else {
			centroids[i] = 0
		}
	}
	return bounds, centroids
}

// stateOf maps a value to its state index given ascending upper bounds.
func stateOf(v float64, bounds []float64) int {
	for i, b := range bounds {
		if v <= b {
			return i
		}
	}
	return len(bounds)
}
