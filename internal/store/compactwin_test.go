package store

import (
	"math"
	"math/rand"
	"testing"
)

// cwTestSequences returns value streams that stress every encoder path:
// zero runs (the sparse-fleet common case), slowly-varying positives,
// sign flips, denormals, and non-finite bit patterns.
func cwTestSequences(rng *rand.Rand) [][]float64 {
	seqs := [][]float64{
		nil,
		{0},
		{1.5},
		make([]float64, 500), // all zeros
	}
	ramp := make([]float64, 300)
	for i := range ramp {
		ramp[i] = float64(i) * 0.25
	}
	seqs = append(seqs, ramp)
	specials := []float64{
		0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0x7ff8000000000001), // NaN payload
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, 1e-300, 0.1, 0.30000000000000004,
	}
	seqs = append(seqs, specials)
	for _, n := range []int{1, cwChunkLen - 1, cwChunkLen, cwChunkLen + 1, 3*cwChunkLen + 7, 1000} {
		s := make([]float64, n)
		for i := range s {
			switch rng.Intn(4) {
			case 0:
				s[i] = 0 // idle minutes dominate sparse traffic
			case 1:
				s[i] = float64(rng.Intn(20))
			case 2:
				s[i] = rng.NormFloat64() * 100
			default:
				s[i] = specials[rng.Intn(len(specials))]
			}
		}
		seqs = append(seqs, s)
	}
	return seqs
}

func assertBitIdentical(t *testing.T, got, want []float64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d not bit-identical: %x vs %x",
				what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

func TestCompactWindowRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for si, seq := range cwTestSequences(rng) {
		var cw CompactWindow
		for _, v := range seq {
			cw.Append(v)
		}
		if cw.Len() != len(seq) {
			t.Fatalf("seq %d: Len %d, want %d", si, cw.Len(), len(seq))
		}
		assertBitIdentical(t, cw.Values(nil), seq, "decode")

		// Serialization round-trip, then keep appending to the decoded
		// copy: the re-derived chunk state must continue identically.
		enc := cw.appendEncoded(nil)
		dec, vals, err := decodeCompactWindow(enc, cwWindow|cwValues)
		if err != nil {
			t.Fatalf("seq %d: decode: %v", si, err)
		}
		assertBitIdentical(t, vals, seq, "values of the decode")
		assertBitIdentical(t, dec.Values(nil), seq, "serialized decode")
		want := append(append([]float64(nil), seq...), 7.25, 0, 0, math.Pi)
		for _, v := range want[len(seq):] {
			cw.Append(v)
			dec.Append(v)
		}
		assertBitIdentical(t, cw.Values(nil), want, "append after encode")
		assertBitIdentical(t, dec.Values(nil), want, "append after decode")
	}
}

func TestCompactWindowTrimFront(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, max := range []int{1, 10, cwChunkLen, cwChunkLen + 5, 200} {
		ref := make([]float64, 0, 1000)
		var cw CompactWindow
		for i := 0; i < 1000; i++ {
			v := rng.NormFloat64()
			if rng.Intn(3) == 0 {
				v = 0
			}
			ref = append(ref, v)
			cw.Append(v)
			cw.TrimFront(max)
			if cw.Len() < min(max, len(ref)) || cw.Len() >= max+cwChunkLen {
				t.Fatalf("max %d after %d appends: Len %d out of [%d, %d)",
					max, i+1, cw.Len(), min(max, len(ref)), max+cwChunkLen)
			}
			// The trimmed window must be an exact suffix of the reference.
			got := cw.Values(nil)
			assertBitIdentical(t, got, ref[len(ref)-len(got):], "trimmed suffix")
		}
		// Serialization after trimming drops the dead prefix.
		enc := cw.appendEncoded(nil)
		dec, _, err := decodeCompactWindow(enc, cwWindow)
		if err != nil {
			t.Fatalf("max %d: decode after trim: %v", max, err)
		}
		assertBitIdentical(t, dec.Values(nil), cw.Values(nil), "decode after trim")
	}
}

func TestCompactWindowDecodeRejectsTruncation(t *testing.T) {
	var cw CompactWindow
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5*cwChunkLen; i++ {
		cw.Append(rng.NormFloat64() * float64(rng.Intn(1000)))
	}
	enc := cw.appendEncoded(nil)
	for n := 0; n < len(enc); n++ {
		// A truncation that still parses must decode fewer values
		// (shorter uvarint count prefix), never silently corrupt.
		if dec, _, err := decodeCompactWindow(enc[:n:n], cwWindow); err == nil && dec.Len() >= cw.Len() {
			t.Fatalf("truncation to %d bytes decoded %d values", n, dec.Len())
		}
	}
}
