package store

import (
	"fmt"
	"math"
	"testing"
)

// FuzzCompactWindowRecent checks the suffix read a hot app's due block
// comes from: Recent(k, skip) must equal Values()[n-skip-k : n-skip]
// (clamped to the window's start) for a window of delta, decimal and raw
// chunks, with k and skip anywhere across chunk boundaries, including
// k = 0 and k = n — and the store must answer the same for the app while
// it is warm and after it is paged out.
func FuzzCompactWindowRecent(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5}, uint16(130), uint16(7), uint16(3))
	f.Add([]byte{1 + 6*10, 1 + 6*10, 0 + 6*8, 2 + 6*20}, uint16(64), uint16(64), uint16(1))
	f.Add([]byte{2 + 6*41, 5 + 6*41, 4 + 6*41}, uint16(300), uint16(0), uint16(0))
	f.Add([]byte{3}, uint16(0), uint16(200), uint16(64))
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), 1e-310}
	f.Fuzz(func(t *testing.T, prog []byte, k, skip, dstCap uint16) {
		// Each program byte appends a run of up to 43 values of one kind:
		// zeros and dyadic values (delta chunks), thousandths (decimal
		// chunks), specials and values decimal at no exponent (raw
		// chunks), or decimals of 0 to 5 places (a growing exponent).
		var vals []float64
		for pc, op := range prog[:min(len(prog), 16)] {
			for i := 0; i <= int(op/6); i++ {
				switch op % 6 {
				case 0:
					vals = append(vals, 0)
				case 1:
					vals = append(vals, float64((i+pc)%40)/4)
				case 2:
					vals = append(vals, float64((i*7919+pc*31)%20000)/1000)
				case 3:
					vals = append(vals, specials[(i+pc)%len(specials)])
				case 4:
					vals = append(vals, float64(i+pc+1)/3)
				default:
					vals = append(vals, float64((i*7919+pc*31)%20000)/pow10[(i+pc)%6])
				}
			}
		}
		var cw CompactWindow
		for _, v := range vals {
			cw.Append(v)
		}
		all := cw.Values(nil)
		n := len(all)
		kk, ss := int(k)%(n+2), int(skip)%(n+2)
		hi := max(n-ss, 0)
		want := all[max(hi-kk, 0):hi]
		what := fmt.Sprintf("%d values, k %d, skip %d", n, kk, ss)
		assertBitIdentical(t, cw.Recent(kk, ss, make([]float64, 0, int(dstCap)%200)), want, what)

		st, err := Open(t.TempDir(), Options{Sync: SyncNever, CompactEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		obs := make([]Observation, len(all))
		for i, v := range all {
			obs[i] = Observation{App: "app", Concurrency: v}
		}
		if err := st.AppendBatch(obs); err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, st.Recent("app", kk, ss, nil), want, "warm store: "+what)
		if err := st.PageOut("app"); err != nil {
			t.Fatal(err)
		}
		if n > 0 && st.PagedApps() != 1 {
			t.Fatal("the app did not page out")
		}
		assertBitIdentical(t, st.Recent("app", kk, ss, nil), want, "cold store: "+what)
		if n > 0 && st.PagedApps() != 1 {
			t.Fatal("the read paged the app in")
		}
		if got := st.Recent("unknown", kk, ss, nil); len(got) != 0 {
			t.Fatalf("an unknown app read %d values", len(got))
		}
	})
}
