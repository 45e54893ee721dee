package features

import (
	"math"
	"math/bits"
	"slices"
)

// BDSResult reports a Broock-Dechert-Scheinkman independence test.
type BDSResult struct {
	Stat   float64 // asymptotically N(0,1) under the iid null
	Linear bool    // |Stat| <= 1.96: no evidence of nonlinear structure
}

// BDSCritical5 is the two-sided 5% critical value of the standard normal.
const BDSCritical5 = 1.96

// BDS runs the Broock-Dechert-Scheinkman test at embedding dimension m with
// proximity radius eps (pass eps <= 0 for the conventional 0.7·σ). The test
// compares the m-dimensional correlation integral C_m(ε) against C_1(ε)^m;
// under an iid series they coincide, so a large |statistic| flags remaining
// (nonlinear) dependence.
//
// FeMux applies BDS to the residuals of a linear AR prewhitening (see
// LinearityTest) so that rejecting the null indicates *nonlinearity* rather
// than any serial dependence: linear structure has already been removed.
// The test needs ≥ ~400 points for its asymptotics, which is what sets the
// 504-minute block size (§4.3.2).
//
// The pairwise-closeness relation is held as packed bitset rows (one
// []uint64 per base point) rather than an n×n [][]bool: a 504-point block
// needs ~64 KB of words instead of ~254 KB of bools, and the
// m-dimensional correlation integral reduces to word-wide
// shift-AND-popcount operations instead of a per-pair inner loop. The
// rows themselves are built without any pairwise comparison: closeness
// |x_i − x_j| ≤ ε is an interval in value order (IEEE subtraction is
// monotone, so the exact float predicate still delimits a contiguous
// range), located by a two-pointer sweep over the sorted values, and each
// row materializes as the difference of two prefix bitsets. Total work is
// O(n log n + n²/64) versus the boolean formulation's O(n²·m). The counts
// produced are identical — only the representation changed — so the
// statistic is bit-for-bit unchanged (asserted against a reference
// implementation in the tests).
func BDS(series []float64, m int, eps float64) BDSResult {
	return new(scratch).bds(series, m, eps, computeMoments(series))
}

// bds is BDS with the series moments precomputed, in sc's buffers.
func (sc *scratch) bds(series []float64, m int, eps float64, mom moments) BDSResult {
	n := len(series)
	if m < 2 {
		m = 2
	}
	if n < m+10 || mom.constant {
		return BDSResult{Stat: 0, Linear: true}
	}
	if eps <= 0 {
		eps = 0.7 * mom.stddev
		if eps == 0 {
			return BDSResult{Stat: 0, Linear: true}
		}
	}

	if math.IsNaN(eps) || math.IsNaN(mom.sum) {
		// Degenerate input (the boolean formulation degenerates to an
		// all-false matrix and a zero statistic here).
		return BDSResult{Stat: 0, Linear: true}
	}

	nm := n - m + 1 // points usable at dimension m
	stride := (n + 63) / 64
	// The sweep below writes every word of rows and every degree once.
	rows := resize(&sc.words, n*stride)
	deg := resize(&sc.deg, nm)

	// Sort the points by value (ties in any order: closeness depends only
	// on the value). idx maps sorted position -> original index.
	idx, vals := sc.sorted(series)

	// Prefix bitsets over sorted order: P_k holds the original indices of
	// the k smallest values, so any sorted interval [a, b) converts to an
	// original-index bitset as P_b &^ P_a in stride word ops. Only the
	// empty prefix P_0 needs zeroing; each later one is copy-then-set.
	prefixes := resize(&sc.prefixes, (n+1)*stride)
	clear(prefixes[:stride])
	for k := 0; k < n; k++ {
		src := prefixes[k*stride : (k+1)*stride]
		dst := prefixes[(k+1)*stride : (k+2)*stride]
		copy(dst, src)
		j := idx[k]
		dst[j>>6] |= 1 << uint(j&63)
	}

	// Two-pointer sweep: for each point (in ascending value order) the
	// close set {j : |x_i − x_j| ≤ ε} is the sorted interval [a, b) — the
	// exact float predicate delimits a contiguous range because IEEE
	// subtraction is monotone — and both endpoints only move rightward as
	// the value grows. Degrees over the C_1 index range [0, nm) fall out
	// as popcounts (minus the self bit, which is always set).
	a, b := 0, 0
	for p := 0; p < n; p++ {
		si := vals[p]
		for math.Abs(si-vals[a]) > eps {
			a++
		}
		for b < n && math.Abs(si-vals[b]) <= eps {
			b++
		}
		i := idx[p]
		row := rows[i*stride : (i+1)*stride]
		pa := prefixes[a*stride : (a+1)*stride]
		pb := prefixes[b*stride : (b+1)*stride]
		for w := range row {
			row[w] = pb[w] &^ pa[w]
		}
		if i < nm {
			deg[i] = popcountRange(row, 0, nm) - 1
		}
	}

	// C_1 pair count: each close pair within [0, nm) appears in both
	// endpoints' degrees.
	sumDeg := 0
	for _, d := range deg {
		sumDeg += d
	}
	c1Count := sumDeg / 2
	pairCount := nm * (nm - 1) / 2
	if pairCount == 0 {
		return BDSResult{Stat: 0, Linear: true}
	}

	// C_m pair count: pair (i,j) is m-close iff all m coordinate pairs
	// (i+d, j+d) are close. Bit j of (row[i+d] >> d) is exactly
	// close(i+d, j+d), so AND-ing the shifted rows and popcounting bits
	// (i, nm) counts a whole row of pairs per word op.
	acc := resize(&sc.acc, stride)
	cmCount := 0
	for i := 0; i < nm; i++ {
		copy(acc, rows[i*stride:(i+1)*stride])
		for d := 1; d < m; d++ {
			andShiftRight(acc, rows[(i+d)*stride:(i+d+1)*stride], d)
		}
		cmCount += popcountRange(acc, i+1, nm)
	}

	// From here on the arithmetic matches the boolean-matrix formulation
	// term for term; all counts are exact integers well under 2^53, so
	// the float conversions introduce no rounding.
	c1Pairs := float64(c1Count)
	c := c1Pairs / float64(pairCount)
	cm := float64(cmCount) / float64(pairCount)
	// k: probability two random points are both close to a common third.
	// Using degrees: sum_i deg_i^2 counts ordered triples (j,i,l), j≠i≠l
	// plus the diagonal j==l, which we remove.
	var kNum float64
	for _, d := range deg {
		kNum += float64(d) * float64(d)
	}
	kNum -= 2 * c1Pairs // remove j==l ordered duplicates
	totTriples := float64(nm) * float64(nm-1) * float64(nm-2)
	if totTriples <= 0 {
		return BDSResult{Stat: 0, Linear: true}
	}
	k := kNum / totTriples
	if k < c*c {
		k = c * c // numerical floor: k >= c^2 by Cauchy-Schwarz
	}

	// Asymptotic variance (Brock et al. 1996).
	var sum float64
	for j := 1; j <= m-1; j++ {
		sum += math.Pow(k, float64(m-j)) * math.Pow(c, float64(2*j))
	}
	v := 4 * (math.Pow(k, float64(m)) + 2*sum +
		float64((m-1)*(m-1))*math.Pow(c, float64(2*m)) -
		float64(m*m)*k*math.Pow(c, float64(2*m-2)))
	if v <= 1e-15 {
		return BDSResult{Stat: 0, Linear: true}
	}
	stat := math.Sqrt(float64(nm)) * (cm - math.Pow(c, float64(m))) / math.Sqrt(v)
	return BDSResult{Stat: stat, Linear: math.Abs(stat) <= BDSCritical5}
}

// andShiftRight computes acc &= (src >> shift) over packed bit rows, where
// shift is in bits. Bits shifted in from beyond src are zero.
func andShiftRight(acc, src []uint64, shift int) {
	q, r := shift>>6, uint(shift&63)
	n := len(acc)
	if r == 0 {
		for w := 0; w < n; w++ {
			var v uint64
			if w+q < n {
				v = src[w+q]
			}
			acc[w] &= v
		}
		return
	}
	for w := 0; w < n; w++ {
		var v uint64
		if w+q < n {
			v = src[w+q] >> r
			if w+q+1 < n {
				v |= src[w+q+1] << (64 - r)
			}
		}
		acc[w] &= v
	}
}

// popcountRange counts the set bits with positions in [lo, hi).
func popcountRange(words []uint64, lo, hi int) int {
	if lo >= hi {
		return 0
	}
	loW, hiW := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << uint(lo&63)
	hiMask := ^uint64(0) >> uint(63-(hi-1)&63)
	if loW == hiW {
		return bits.OnesCount64(words[loW] & loMask & hiMask)
	}
	count := bits.OnesCount64(words[loW] & loMask)
	for w := loW + 1; w < hiW; w++ {
		count += bits.OnesCount64(words[w])
	}
	count += bits.OnesCount64(words[hiW] & hiMask)
	return count
}

// sorted returns the series' indices in ascending value order alongside the
// values in that order. Tie order is irrelevant: closeness depends only on
// the value, never the index, so any permutation of equal values yields the
// same close sets.
func (sc *scratch) sorted(series []float64) (idx []int, vals []float64) {
	idx = resize(&sc.idx, len(series))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		switch {
		case series[a] < series[b]:
			return -1
		case series[a] > series[b]:
			return 1
		}
		return 0
	})
	vals = resize(&sc.vals, len(series))
	for k, id := range idx {
		vals[k] = series[id]
	}
	return idx, vals
}

// LinearityTest prewhitens the series with an AR fit and applies BDS to the
// residuals: a significant statistic then indicates nonlinear structure
// that no linear model can capture, steering the classifier toward SETAR or
// the Markov chain.
func LinearityTest(series []float64, arLags, bdsDim int) BDSResult {
	return new(scratch).linearityTest(series, arLags, bdsDim, isConstant(series))
}

// linearityTest is LinearityTest with the series' constancy precomputed.
func (sc *scratch) linearityTest(series []float64, arLags, bdsDim int, constant bool) BDSResult {
	res := sc.arResiduals(series, arLags, constant)
	if res == nil {
		return BDSResult{Stat: 0, Linear: true}
	}
	return sc.bds(res, bdsDim, 0, computeMoments(res))
}

// arResiduals fits AR(lags) by least squares and returns the residuals
// (scratch-owned), or nil when the series is too short or degenerate.
func (sc *scratch) arResiduals(series []float64, lags int, constant bool) []float64 {
	n := len(series)
	if lags < 1 {
		lags = 1
	}
	rows := n - lags
	if rows < lags+2 || constant {
		return nil
	}
	// Row r predicts series[r+lags] from an intercept and series[r+lags-l].
	cols := sc.design(rows, lags+1)
	for l := 1; l <= lags; l++ {
		cols = append(cols, series[lags-l:lags-l+rows])
	}
	y := series[lags:]
	coef, ok := sc.solveOLS(cols, y)
	if !ok {
		return nil
	}
	res := sc.fitted(cols, coef, rows)
	for r, pred := range res {
		res[r] = y[r] - pred
	}
	return res
}

// stddev returns the population standard deviation (kept for tests and
// callers outside the extractor's moments-threading path).
func stddev(xs []float64) float64 {
	return computeMoments(xs).stddev
}
