package forecast

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// These tests hold the column-order fits and the selection-based quantile
// readers to the reference implementations in ref_equiv_test.go (the
// row-major mathx.LeastSquares fits and the sort-based readers), bit for
// bit.

// sameValue is equality for the quantile readers: a value read at a rank
// is only ever compared, so −0 and +0 (which sort.Float64s may leave in
// either order) match, and so do any two NaNs.
func sameValue(a, b float64) bool { return a == b || (a != a && b != b) }

// checkFits compares the global fit and every regime fit of h under thr
// with the row-major references.
func checkFits(t *testing.T, label string, h []float64, lags int, thr []float64) {
	t.Helper()
	ws := NewWorkspace()
	sameCoef := func(what string, got []float64, gotOK bool, want []float64, wantOK bool) {
		t.Helper()
		if gotOK != wantOK {
			t.Fatalf("%s %s: ok %v, want %v", label, what, gotOK, wantOK)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s %s: coef[%d] = %v (%#x), want %v (%#x)", label, what, i,
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	got, ok := fitARWS(h, lags, ws)
	want, wantOK := refFitAR(h, lags)
	sameCoef("global", got, ok, want, wantOK)
	rows := len(h) - lags
	if rows < 1 || len(thr) == 0 {
		return
	}
	nz := nonzeroPositions(h, ws)
	for reg := 0; reg <= len(thr); reg++ {
		var rowIdx []int
		for r := 0; r < rows; r++ {
			if regimeOf(h[r+lags-1], thr) == reg {
				rowIdx = append(rowIdx, r)
			}
		}
		got, ok := fitRegimeWS(h, lags, nz, thr, reg, ws)
		want, wantOK := refFitARRows(h, rowIdx, lags)
		sameCoef(fmt.Sprintf("regime %d of %v (%d rows)", reg, thr, len(rowIdx)), got, ok, want, wantOK)
	}
}

// TestFitsMatchHead covers every reference history shape at lags 1..12,
// with the regime thresholds SETAR would pick and with random ones, so
// the row subsets range from a few rows to all of them.
func TestFitsMatchHead(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for name, h := range refHistories() {
		for lags := 1; lags <= 12; lags++ {
			label := fmt.Sprintf("%s/lags=%d", name, lags)
			checkFits(t, label, h, lags, nil)
			if len(h) == 0 {
				continue
			}
			for k := 1; k <= 3; k++ {
				checkFits(t, label+"/setar", h, lags, refRegimeThresholds(h, k))
				thr := make([]float64, k)
				for i := range thr {
					thr[i] = h[rng.Intn(len(h))]
				}
				sort.Float64s(thr)
				checkFits(t, label+"/random", h, lags, thr)
			}
		}
	}
}

// TestQuantileReadersMatchHead compares the thresholds and the Markov
// discretization (bounds and centroids) with the sorting references.
func TestQuantileReadersMatchHead(t *testing.T) {
	for name, h := range refHistories() {
		if len(h) == 0 {
			continue
		}
		ws := NewWorkspace()
		for k := 1; k <= 4; k++ {
			got := regimeThresholdsWS(h, k, ws)
			want := refRegimeThresholds(h, k)
			if len(got) != len(want) {
				t.Fatalf("%s k=%d: thresholds %v, want %v", name, k, got, want)
			}
			for i := range want {
				if !sameValue(got[i], want[i]) {
					t.Fatalf("%s k=%d: thresholds %v, want %v", name, k, got, want)
				}
			}
		}
		for k := 2; k <= 5; k++ {
			gb, gc := discretizeWS(h, k, ws)
			wb, wc := refDiscretize(h, k)
			if len(gb) != len(wb) || len(gc) != len(wc) {
				t.Fatalf("%s k=%d: bounds %v centroids %v, want %v %v", name, k, gb, gc, wb, wc)
			}
			for i := range wb {
				if !sameValue(gb[i], wb[i]) {
					t.Fatalf("%s k=%d: bounds %v, want %v", name, k, gb, wb)
				}
			}
			for i := range wc {
				if math.Float64bits(gc[i]) != math.Float64bits(wc[i]) {
					t.Fatalf("%s k=%d: centroids %v, want %v", name, k, gc, wc)
				}
			}
		}
	}
}

// TestSelectMatchesSort checks selection against sort.Float64s at every
// length up to 600, over values with NaN, ±Inf, −0, +0 and many
// duplicates, since FuzzForecastQuantiles feeds the readers raw bits.
func TestSelectMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(600))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1, -1}
	ws := NewWorkspace()
	for n := 1; n <= 600; n++ {
		h := make([]float64, n)
		for i := range h {
			switch rng.Intn(4) {
			case 0:
				h[i] = special[rng.Intn(len(special))]
			case 1:
				h[i] = float64(rng.Intn(3))
			default:
				h[i] = rng.NormFloat64()
			}
		}
		sorted := append([]float64(nil), h...)
		sort.Float64s(sorted)
		for trial := 0; trial < 4; trial++ {
			ranks := []int{0}
			for i := rng.Intn(4); i > 0; i-- {
				ranks = append(ranks, rng.Intn(n))
			}
			ranks = append(ranks, n-1)
			sort.Ints(ranks)
			a := minMaxWS(h, ws)
			for _, r := range ranks {
				if got := selectRank(a, r); !sameValue(got, sorted[r]) {
					t.Fatalf("n=%d ranks %v: rank %d = %v, want %v", n, ranks, r, got, sorted[r])
				}
			}
		}
	}
}

// FuzzFitsMatchHead drives the fits with arbitrary finite windows — every
// fourth byte or so an exact zero, half the rest negative — at any lag
// count and threshold count, against the row-major references.
func FuzzFitsMatchHead(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}, uint8(3), uint8(2))
	f.Add(make([]byte, 64), uint8(10), uint8(2))
	f.Add(binary.LittleEndian.AppendUint64(nil, 0x9e3779b97f4a7c15), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, lagsB, thrB uint8) {
		lags := 1 + int(lagsB)%12
		h := make([]float64, 0, len(data))
		for _, b := range data {
			switch {
			case b%4 == 0:
				h = append(h, 0)
			case b%2 == 1:
				h = append(h, -float64(b)/16)
			default:
				h = append(h, float64(b)*1.5)
			}
		}
		var thr []float64
		if len(h) > 0 {
			thr = refRegimeThresholds(h, 1+int(thrB)%3)
		}
		checkFits(t, fmt.Sprintf("lags=%d", lags), h, lags, thr)
	})
}

// TestWorkspaceSize pins the fixed cost of a Workspace: the pool holds
// one per request computing at once, so a new retained buffer shows up
// in the serving heap. It is 776 B on 64-bit platforms (752 B before the
// History buffer a request decodes an app's due block into).
func TestWorkspaceSize(t *testing.T) {
	if got := unsafe.Sizeof(Workspace{}); got > 776 {
		t.Fatalf("unsafe.Sizeof(Workspace{}) = %d B, want at most 776", got)
	}
}
