package forecast

// Order statistics by selection. The SETAR thresholds and the Markov
// bounds read a window's minimum, its maximum and two or three ranks in
// between; sorting the whole window to read them is most of their cost.
// These helpers place exactly those ranks, in sort.Float64s's order (NaN
// before every number), so each value read is the value the sorted window
// holds at that index. Values that the order ties — −0 and +0, or NaNs
// with different payloads — may land in either order, as they may under
// sort.Float64s itself; every reader only compares them.

// fless is sort.Float64s's order: NaN first, then ascending.
func fless(x, y float64) bool { return x < y || (x != x && y == y) }

// minMaxWS copies history into the workspace quantile buffer with its
// minimum first and its maximum last. history must not be empty.
func minMaxWS(history []float64, ws *Workspace) []float64 {
	a := growF(ws.sorted, len(history))
	ws.sorted = a
	copy(a, history)
	lo := 0
	for i, v := range a {
		if fless(v, a[lo]) {
			lo = i
		}
	}
	a[0], a[lo] = a[lo], a[0]
	last := len(a) - 1
	hi := last
	for i := 1; i < last; i++ {
		if fless(a[hi], a[i]) {
			hi = i
		}
	}
	a[hi], a[last] = a[last], a[hi]
	return a
}

// selectRank returns the value the sorted window holds at index r. a is
// a minMaxWS buffer: its ends are already in place, and a rank between
// them is selected from the elements between them.
func selectRank(a []float64, r int) float64 {
	if r > 0 && r < len(a)-1 {
		quickselect(a[1:len(a)-1], r-1)
	}
	return a[r]
}

// quickselect permutes a so that a[k] holds its sorted-order value. The
// partition is three-way, so a long run of equal values (an idle app's
// window is mostly exact zeros) costs one pass rather than quadratic time.
func quickselect(a []float64, k int) {
	for len(a) > 1 {
		x, y, z := a[0], a[len(a)/2], a[len(a)-1]
		if fless(y, x) {
			x, y = y, x
		}
		if fless(z, y) {
			y = z
			if fless(y, x) {
				y = x
			}
		}
		lt, i, gt := 0, 0, len(a)
		for i < gt {
			switch v := a[i]; {
			case fless(v, y):
				a[lt], a[i] = v, a[lt]
				lt++
				i++
			case fless(y, v):
				gt--
				a[i], a[gt] = a[gt], v
			default:
				i++
			}
		}
		switch {
		case k < lt:
			a = a[:lt]
		case k >= gt:
			a, k = a[gt:], k-gt
		default:
			return
		}
	}
}
