package store

import (
	"fmt"
	"math"
	"testing"
)

// FuzzCompactWindowRecent checks the suffix read a hot app's due block
// comes from: Recent(k, skip) must equal Values()[n-skip-k : n-skip]
// (clamped to the window's start) for a window of delta and raw chunks,
// trimmed from the front, with k and skip anywhere across chunk
// boundaries, including k = 0 and k = n — and the store must answer the
// same for the app while it is warm and after it is paged out.
func FuzzCompactWindowRecent(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5}, uint16(130), uint16(7), uint8(0), uint16(3))
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0}, uint16(64), uint16(64), uint8(3), uint16(1))
	f.Add([]byte{2, 0, 1}, uint16(300), uint16(0), uint8(1), uint16(0))
	f.Add([]byte{3}, uint16(0), uint16(200), uint8(2), uint16(64))
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), 1e-310}
	f.Fuzz(func(t *testing.T, prog []byte, k, skip uint16, trim uint8, dstCap uint16) {
		// Each program byte appends a run of up to 64 values of one kind:
		// dyadic values (delta chunks), thousandths (raw chunks), or
		// specials.
		var vals []float64
		for pc, op := range prog[:min(len(prog), 16)] {
			for i := 0; i <= int(op>>2); i++ {
				switch op & 3 {
				case 0:
					vals = append(vals, 0)
				case 1:
					vals = append(vals, float64((i+pc)%40)/4)
				case 2:
					vals = append(vals, float64((i*7919+pc*31)%20000)/1000)
				default:
					vals = append(vals, specials[(i+pc)%len(specials)])
				}
			}
		}
		var cw CompactWindow
		for _, v := range vals {
			cw.Append(v)
		}
		if trim > 0 {
			cw.TrimFront(int(trim))
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
