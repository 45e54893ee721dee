package features

import (
	"math"
	"math/rand"
	"testing"
)

// bdsBoolMatrix is the pre-optimization reference implementation of BDS:
// a full n×n [][]bool closeness matrix with per-pair inner loops. It is
// kept verbatim (modulo the moments helper) as the ground truth the packed
// bitset kernel is asserted against, and as the baseline BenchmarkBDS
// measures the kernel's speedup over.
func bdsBoolMatrix(series []float64, m int, eps float64) BDSResult {
	n := len(series)
	if m < 2 {
		m = 2
	}
	if n < m+10 || isConstant(series) {
		return BDSResult{Stat: 0, Linear: true}
	}
	if eps <= 0 {
		eps = 0.7 * stddev(series)
		if eps == 0 {
			return BDSResult{Stat: 0, Linear: true}
		}
	}

	nm := n - m + 1
	cl := make([][]bool, n)
	for i := range cl {
		cl[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c := math.Abs(series[i]-series[j]) <= eps
			cl[i][j] = c
			cl[j][i] = c
		}
	}

	var c1Pairs, cmPairs float64
	var pairCount float64
	degree := make([]float64, nm)
	for i := 0; i < nm; i++ {
		for j := i + 1; j < nm; j++ {
			pairCount++
			if cl[i][j] {
				c1Pairs++
				degree[i]++
				degree[j]++
			}
			all := true
			for d := 0; d < m; d++ {
				if !cl[i+d][j+d] {
					all = false
					break
				}
			}
			if all {
				cmPairs++
			}
		}
	}
	if pairCount == 0 {
		return BDSResult{Stat: 0, Linear: true}
	}
	c := c1Pairs / pairCount
	cm := cmPairs / pairCount
	var kNum float64
	for i := 0; i < nm; i++ {
		kNum += degree[i] * degree[i]
	}
	kNum -= 2 * c1Pairs
	totTriples := float64(nm) * float64(nm-1) * float64(nm-2)
	if totTriples <= 0 {
		return BDSResult{Stat: 0, Linear: true}
	}
	k := kNum / totTriples
	if k < c*c {
		k = c * c
	}

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

// bdsTestSeries builds a mix of iid, AR-dependent, periodic, sparse, and
// near-degenerate series across the sizes the extractor actually sees.
func bdsTestSeries() map[string][]float64 {
	out := map[string][]float64{}
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{16, 65, 128, 504} {
		iid := make([]float64, n)
		ar := make([]float64, n)
		periodic := make([]float64, n)
		sparse := make([]float64, n)
		for t := 0; t < n; t++ {
			iid[t] = rng.NormFloat64()
			if t > 0 {
				ar[t] = 0.8*ar[t-1] + rng.NormFloat64()
			} else {
				ar[t] = rng.NormFloat64()
			}
			periodic[t] = math.Sin(2*math.Pi*float64(t)/24) + 0.1*rng.NormFloat64()
			if rng.Float64() < 0.1 {
				sparse[t] = math.Ceil(5 * rng.Float64())
			}
		}
		out[seriesName("iid", n)] = iid
		out[seriesName("ar", n)] = ar
		out[seriesName("periodic", n)] = periodic
		out[seriesName("sparse", n)] = sparse
	}
	out["constant"] = make([]float64, 64)
	out["tiny"] = []float64{1, 2, 3}
	out["empty"] = nil
	return out
}

func seriesName(kind string, n int) string {
	return kind + "-" + string(rune('0'+n/100)) + string(rune('0'+n/10%10)) + string(rune('0'+n%10))
}

// TestBDSBitsetMatchesBoolMatrix is the kernel's correctness anchor: the
// packed-bitset BDS must be bit-for-bit identical to the boolean-matrix
// reference on every series shape and embedding dimension — identical
// representation of the same counts, not an approximation.
func TestBDSBitsetMatchesBoolMatrix(t *testing.T) {
	for name, series := range bdsTestSeries() {
		for _, m := range []int{2, 3, 5} {
			got := BDS(series, m, 0)
			want := bdsBoolMatrix(series, m, 0)
			if got.Stat != want.Stat || got.Linear != want.Linear {
				t.Errorf("%s m=%d: bitset {%v %v} != reference {%v %v}",
					name, m, got.Stat, got.Linear, want.Stat, want.Linear)
			}
			// Explicit eps exercises the non-σ path.
			got = BDS(series, m, 0.5)
			want = bdsBoolMatrix(series, m, 0.5)
			if got.Stat != want.Stat || got.Linear != want.Linear {
				t.Errorf("%s m=%d eps=0.5: bitset {%v %v} != reference {%v %v}",
					name, m, got.Stat, got.Linear, want.Stat, want.Linear)
			}
		}
	}
}

// TestBDSScratchReuse runs interleaved sizes back-to-back through one
// scratch, so buffers sized by a large series are reused for a small one
// and vice versa — stale bits or degrees would corrupt the counts.
func TestBDSScratchReuse(t *testing.T) {
	series := bdsTestSeries()
	sc := &scratch{}
	order := []string{
		seriesName("iid", 504), seriesName("ar", 16), seriesName("periodic", 504),
		seriesName("sparse", 65), seriesName("iid", 504), seriesName("ar", 128),
	}
	for round := 0; round < 3; round++ {
		for _, name := range order {
			got := sc.bds(series[name], 2, 0, computeMoments(series[name]))
			want := bdsBoolMatrix(series[name], 2, 0)
			if got.Stat != want.Stat {
				t.Fatalf("round %d %s: stat %v != %v (scratch reuse corrupted state)",
					round, name, got.Stat, want.Stat)
			}
		}
	}
}

func TestComputeMomentsMatchesOpenCoded(t *testing.T) {
	for name, series := range bdsTestSeries() {
		mom := computeMoments(series)
		var sum float64
		for _, v := range series {
			sum += v
		}
		if mom.sum != sum {
			t.Errorf("%s: sum %v != %v", name, mom.sum, sum)
		}
		if mom.constant != isConstant(series) {
			t.Errorf("%s: constant %v != %v", name, mom.constant, isConstant(series))
		}
		// Reference two-pass stddev, accumulation order preserved.
		var want float64
		if len(series) >= 2 {
			mean := sum / float64(len(series))
			var s float64
			for _, v := range series {
				d := v - mean
				s += d * d
			}
			want = math.Sqrt(s / float64(len(series)))
		}
		if mom.stddev != want {
			t.Errorf("%s: stddev %v != %v (must be bit-identical)", name, mom.stddev, want)
		}
	}
}

func benchSeries(n int) []float64 {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, n)
	for t := range xs {
		xs[t] = 0.6*math.Sin(2*math.Pi*float64(t)/144) + rng.NormFloat64()
	}
	return xs
}

// BenchmarkBDS compares the packed-bitset kernel against the
// boolean-matrix baseline on the paper's 504-point block at the default
// embedding dimension. The acceptance bar for this PR: bitset ≥ 3× faster
// with ≥ 8× lower bytes/op.
func BenchmarkBDS(b *testing.B) {
	series := benchSeries(504)
	b.Run("bitset", func(b *testing.B) {
		sc, mom := &scratch{}, computeMoments(series)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sc.bds(series, 2, 0, mom)
		}
	})
	b.Run("boolmatrix", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bdsBoolMatrix(series, 2, 0)
		}
	})
}
