package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// compactWindowOf encodes a value slice into a CompactWindow.
func compactWindowOf(values []float64) CompactWindow {
	var cw CompactWindow
	for _, v := range values {
		cw.Append(v)
	}
	return cw
}

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

// assertChunksBounded: no chunk of k values is larger than its raw form,
// 10 + 8·(k-1) bytes.
func assertChunksBounded(t *testing.T, cw *CompactWindow, what string) {
	t.Helper()
	for c, start := range cw.starts {
		end, k := len(cw.buf), int(cw.tail)
		if c+1 < len(cw.starts) {
			end, k = int(cw.starts[c+1]), cwChunkLen
		}
		if size := end - int(start); size > 10+8*(k-1) {
			t.Fatalf("%s: chunk %d holds %d values in %d bytes", what, c, k, size)
		}
	}
}

// chunkKinds reports each chunk's kind and, for a decimal chunk, its
// exponent, as the stream's markers say.
func chunkKinds(cw *CompactWindow) (kinds []chunkKind, exps []uint8) {
	for c, start := range cw.starts {
		end := len(cw.buf)
		if c+1 < len(cw.starts) {
			end = int(cw.starts[c+1])
		}
		body := cw.buf[start+8 : end]
		switch {
		case bytes.HasPrefix(body, []byte(cwRawMarker)):
			kinds, exps = append(kinds, chunkRaw), append(exps, 0)
		case bytes.HasPrefix(body, []byte(cwDecimalMarker)):
			kinds, exps = append(kinds, chunkDecimal), append(exps, body[2])
		default:
			kinds, exps = append(kinds, chunkDelta), append(exps, 0)
		}
	}
	return kinds, exps
}

// randomWindow is n values that fill their mantissas and are decimal at
// no exponent the codec tries.
func randomWindow(n int) []float64 {
	rng := rand.New(rand.NewSource(int64(n)))
	win := make([]float64, n)
	for i := range win {
		win[i] = rng.Float64()
	}
	return win
}

// TestRawChunksWhereDeltasDoNotPay: a quarter-valued window never
// converts and keeps the bytes the delta-only encoder wrote; a
// thousandth-valued one is stored in decimal chunks at exponent 3; and a
// window of values decimal at no exponent is stored raw, 8 bytes a value
// plus a 2-byte marker per chunk.
func TestRawChunksWhereDeltasDoNotPay(t *testing.T) {
	for _, n := range []int{5, cwChunkLen - 1, cwChunkLen, cwChunkLen + 5, 300} {
		dyadic := benchWindow(n, true)
		if got, head := compactWindowOf(dyadic), headCompactWindowOf(dyadic); !bytes.Equal(got.buf, head.buf) || got.kind != chunkDelta {
			t.Fatalf("dyadic/%d: %d bytes (kind %d), the delta-only encoder wrote %d", n, len(got.buf), got.kind, len(head.buf))
		}

		thousandths := benchWindow(n, false)
		cw := compactWindowOf(thousandths)
		kinds, exps := chunkKinds(&cw)
		for c, kind := range kinds {
			if kind != chunkDecimal || exps[c] != 3 {
				t.Fatalf("thousandths/%d: chunk %d of kind %d at exponent %d, want decimal at 3", n, c, kind, exps[c])
			}
		}
		// 11 bytes of head, marker and exponent a chunk, then at most 3
		// bytes a value: the differences of m in [0, 20000) fit 16 bits.
		if limit := 11*len(cw.starts) + 3*(n-len(cw.starts)); len(cw.buf) > limit || cw.kind != chunkDecimal || cw.exp != 3 {
			t.Fatalf("thousandths/%d: %d bytes (kind %d, exponent %d), want at most %d", n, len(cw.buf), cw.kind, cw.exp, limit)
		}
		assertChunksBounded(t, &cw, fmt.Sprintf("thousandths/%d", n))
		assertBitIdentical(t, cw.Values(nil), thousandths, fmt.Sprintf("thousandths/%d", n))

		random := randomWindow(n)
		cw = compactWindowOf(random)
		if want := 8*n + 2*len(cw.starts); len(cw.buf) != want || cw.kind != chunkRaw {
			t.Fatalf("random/%d: %d bytes (kind %d), want %d", n, len(cw.buf), cw.kind, want)
		}
		assertChunksBounded(t, &cw, fmt.Sprintf("random/%d", n))
		assertBitIdentical(t, cw.Values(nil), random, fmt.Sprintf("random/%d", n))
	}
	// The bound holds after every Append, before a chunk converts too.
	rng := rand.New(rand.NewSource(4))
	for _, seq := range append(cwTestSequences(rng), benchWindow(300, false), randomWindow(300)) {
		var cw CompactWindow
		for i, v := range seq {
			cw.Append(v)
			assertChunksBounded(t, &cw, fmt.Sprintf("after %d appends", i+1))
		}
	}
}

// TestDecimalChunks walks a decimal chunk through each step of the
// writer's policy: a delta chunk that would go raw becomes decimal at the
// smallest exponent that holds every value so far; a value that needs a
// larger exponent re-encodes the chunk at the smallest one that holds
// them all; a value decimal at no exponent, or one that would make the
// chunk cost more than raw, turns it raw; and a full chunk starts the next
// as deltas. Each step decodes bit for bit, through Values and through a
// serialization round trip.
func TestDecimalChunks(t *testing.T) {
	type step struct {
		vals []float64
		kind chunkKind
		exp  uint8
	}
	thousandths := []float64{0.137, 0.291, 0.513}
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"exponent growth", []step{
			{thousandths, chunkDecimal, 3}, // the third value would turn the chunk raw
			{[]float64{0.25}, chunkDecimal, 3},
			{[]float64{0.0001}, chunkDecimal, 4},
			{[]float64{1.5, 2, 0.3}, chunkDecimal, 4},
			{[]float64{0.00025}, chunkDecimal, 5},
			{[]float64{1e-15}, chunkDecimal, 15},
			{[]float64{math.Nextafter(0.3, 1)}, chunkRaw, 0}, // 0.30000000000000004: past cwMaxExp
			{[]float64{0.137}, chunkRaw, 0},
		}},
		{"smallest exponent of every value", []step{
			{[]float64{0.5, 0.25, 1.5}, chunkDelta, 0}, // few mantissa bits: short deltas
			{[]float64{0.1, 0.3, 0.7, 0.9, 0.3, 0.7, 0.1, 0.9}, chunkDelta, 0},
			// The deltas now cost more than raw. Every value since 0.25 is
			// decimal at 10^-1, but 0.25 is not.
			{[]float64{0.3}, chunkDecimal, 2},
		}},
		{"next chunk", []step{
			{thousandths, chunkDecimal, 3},
			{sparseBenchValues(rand.New(rand.NewSource(1)), cwChunkLen-3), chunkDecimal, 3},
			{[]float64{5}, chunkDelta, 0}, // the head of the second chunk
			{[]float64{0.137}, chunkDelta, 0},
			{[]float64{0.291}, chunkDecimal, 3},
		}},
		{"-0", []step{{thousandths, chunkDecimal, 3}, {[]float64{math.Copysign(0, -1)}, chunkRaw, 0}}},
		{"NaN", []step{{thousandths, chunkDecimal, 3}, {[]float64{math.NaN()}, chunkRaw, 0}}},
		{"-Inf", []step{{thousandths, chunkDecimal, 3}, {[]float64{math.Inf(-1)}, chunkRaw, 0}}},
		{"subnormal", []step{{thousandths, chunkDecimal, 3}, {[]float64{math.SmallestNonzeroFloat64}, chunkRaw, 0}}},
		{"2^53-1", []step{
			// An integer, but its m at 10^3 is past 2^53, and 0.137 is not
			// decimal at 10^0.
			{thousandths, chunkDecimal, 3},
			{[]float64{1<<53 - 1}, chunkRaw, 0},
		}},
		{"decimal costs more than raw", []step{
			// Decimal at 10^0, but each difference is an 8-byte uvarint:
			// with the exponent byte that is one byte past the raw form.
			{[]float64{1<<53 - 1, 3, 1<<53 - 991}, chunkRaw, 0},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var cw CompactWindow
			var want []float64
			for i, st := range tc.steps {
				for _, v := range st.vals {
					cw.Append(v)
				}
				want = append(want, st.vals...)
				what := fmt.Sprintf("step %d", i)
				if cw.kind != st.kind || cw.exp != st.exp {
					t.Fatalf("%s: chunk of kind %d at exponent %d, want kind %d at %d", what, cw.kind, cw.exp, st.kind, st.exp)
				}
				assertChunksBounded(t, &cw, what)
				assertBitIdentical(t, cw.Values(nil), want, what)
				dec, vals, err := decodeCompactWindow(cw.appendEncoded(nil), cwWindow|cwValues)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				assertBitIdentical(t, vals, want, what+": decoded")
				if dec.kind != cw.kind || dec.exp != cw.exp || dec.prev != cw.prev || dec.tail != cw.tail {
					t.Fatalf("%s: decoded window %+v, appended %+v", what, dec, cw)
				}
			}
		})
	}
}

// decimalImage is the appendEncoded image of one decimal chunk, written
// by hand: head, marker, exponent e and the differences of m given.
func decimalImage(head float64, e byte, diffs ...int64) []byte {
	stream := binary.LittleEndian.AppendUint64(nil, math.Float64bits(head))
	stream = append(append(stream, cwDecimalMarker...), e)
	for _, d := range diffs {
		stream = binary.AppendUvarint(stream, zigzag(d))
	}
	enc := binary.AppendUvarint(nil, uint64(1+len(diffs)))
	return append(binary.AppendUvarint(enc, uint64(len(stream))), stream...)
}

// TestDecimalChunkRejectsCorruption: a decimal chunk Append never writes
// fails to decode: an exponent past cwMaxExp, a head that is not decimal
// at the exponent, an m at 2^53, or a last value whose m is not the one
// its bits give.
func TestDecimalChunkRejectsCorruption(t *testing.T) {
	image := decimalImage
	if _, vals, err := decodeCompactWindow(image(0.137, 3, 154, -1), cwValues); err != nil {
		t.Fatalf("a valid decimal chunk: %v", err)
	} else {
		assertBitIdentical(t, vals, []float64{0.137, 0.291, 0.29}, "a valid decimal chunk")
	}
	for _, tc := range []struct {
		name string
		enc  []byte
	}{
		{"exponent 16", image(0.137, 16, 1)},
		{"exponent 255", image(0.137, 255, 1)},
		{"head not decimal", image(math.Pi, 3, 1)},
		{"head -0", image(math.Copysign(0, -1), 3, 1)},
		{"head NaN", image(math.NaN(), 3, 1)},
		{"m at 2^53", image(0, 0, 1<<53)},
		{"m at -2^53", image(0, 0, -1<<53)},
		{"m wraps", image(1, 0, math.MaxInt64)},
	} {
		for _, mode := range []cwMode{cwWindow, cwValues, cwWindow | cwValues} {
			if _, _, err := decodeCompactWindow(tc.enc, mode); err == nil {
				t.Errorf("%s: mode %d decoded", tc.name, mode)
			}
		}
	}
	// Near 2^53 at 10^-2 two m give one float: only the m its bits give
	// may end a chunk, since Append takes the last m from the last value.
	refused := 0
	for _, m := range []int64{1<<53 - 2, 1<<53 - 1} {
		_, _, err := decodeCompactWindow(image(0, 2, m), cwWindow)
		if again, ok := decimalAt(float64(m)/100, 2); !ok || again != m {
			refused++
			if err == nil {
				t.Errorf("m %d, whose value gives m %d, decoded", m, again)
			}
		} else if err != nil {
			t.Errorf("m %d: %v", m, err)
		}
	}
	if refused == 0 {
		t.Error("neither m is refused: the case tests nothing")
	}
}

// TestThousandthsWindowBytes bounds what a 300-value window of
// femux-load's traffic costs encoded: a per-app level with a ±25% wobble,
// rounded to thousandths, in decimal chunks instead of 8 bytes a value.
func TestThousandthsWindowBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for app := 0; app < 20; app++ {
		vals := sparseBenchValues(rng, 300)
		cw := compactWindowOf(vals)
		if got := len(cw.appendEncoded(nil)); got > 700 {
			t.Errorf("app %d: 300 thousandths encode to %d bytes, want at most 700", app, got)
		}
		assertBitIdentical(t, cw.Values(nil), vals, fmt.Sprintf("app %d", app))
	}
}

// FuzzCompactWindowRoundTrip runs a program of Append, appendEncoded and
// decode steps, one per input byte, over the values the codec must keep
// bit-exact: dyadic values, thousandths, decimals of up to 15 places,
// values decimal at none, -0, NaN payloads and ±Inf.
// After every decode and at the end the window holds exactly the values
// appended, and no chunk is larger than its raw form.
func FuzzCompactWindowRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4 | 31<<3, 4 | 31<<3, 6 | 2<<3, 1 | 5<<3, 6}) // thousandths across chunks, then decode
	f.Add([]byte{3 | 16<<3, 4 | 16<<3, 2, 2 | 1<<3, 2 | 2<<3, 6 | 1<<3, 5 | 9<<3, 4 | 20<<3, 6 | 2<<3})
	zeros := []byte{}
	for i := 0; i < 70; i++ {
		zeros = append(zeros, 0, 7|2<<3, 1|byte(i%32)<<3) // idle minutes around a thousandth
	}
	f.Add(append(zeros, 6|2<<3, 5|3<<3, 6))
	specials := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000001),
		math.Float64frombits(0xfff0000000000123), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, 1.0 / 3, // decimal at no exponent
	}
	modes := []cwMode{cwWindow, cwValues, cwWindow | cwValues}

	f.Fuzz(func(t *testing.T, prog []byte) {
		prog = prog[:min(len(prog), 256)] // each decode step checks every value: keep a run quadratic in little
		var cw CompactWindow
		var ref []float64
		check := func(what string) {
			t.Helper()
			assertBitIdentical(t, cw.Values(nil), ref, what)
			assertChunksBounded(t, &cw, what)
		}
		for pc, op := range prog {
			arg := int(op >> 3)
			var vals []float64
			switch op & 7 {
			case 0:
				vals = []float64{float64(arg) / 4}
			case 1:
				vals = []float64{float64(arg*613+pc) / 1000}
			case 2:
				vals = []float64{specials[arg%len(specials)]}
			case 3: // a run of dyadic values
				for i := 0; i < 4*arg; i++ {
					vals = append(vals, float64((i*arg+pc)%80)/4)
				}
			case 4: // a run of thousandths
				for i := 0; i < 4*arg; i++ {
					vals = append(vals, float64((i*7919+pc*31)%20000)/1000)
				}
			case 5: // arg%16 decimal places: a decimal chunk's exponent grows
				vals = []float64{-float64(arg*7919+pc) / pow10[arg%16]}
			case 6:
				mode := modes[arg%len(modes)]
				dec, got, err := decodeCompactWindow(cw.appendEncoded(nil), mode)
				if err != nil {
					t.Fatalf("step %d: decoding the window's own image in mode %d: %v", pc, mode, err)
				}
				if mode&cwValues != 0 {
					assertBitIdentical(t, got, ref, fmt.Sprintf("step %d: values decoded in mode %d", pc, mode))
				}
				if mode&cwWindow != 0 {
					cw = dec
				}
				check(fmt.Sprintf("step %d: after a decode in mode %d", pc, mode))
			case 7: // the last value again: zero deltas
				last := 0.0
				if len(ref) > 0 {
					last = ref[len(ref)-1]
				}
				for i := 0; i <= arg; i++ {
					vals = append(vals, last)
				}
			}
			for _, v := range vals {
				cw.Append(v)
			}
			ref = append(ref, vals...)
		}
		check("at the end")
	})
}

// sparseBenchValues is n observations of one app of the sparse bench
// fleet: a per-app level with a ±25% wobble, in thousandths, so every
// chunk goes decimal.
func sparseBenchValues(rng *rand.Rand, n int) []float64 {
	level := 0.2 + 2*rng.Float64()
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Round(level*(0.75+0.5*rng.Float64())*1000) / 1000
	}
	return vals
}

// BenchmarkCompactWindowAppend times bulk appends from empty windows: one
// window filled to a day of minutes, and a 5,000-app fleet seeded
// app-major with 298 values each, as the sparse bench workload seeds its
// store. Both report ns per appended value.
func BenchmarkCompactWindowAppend(b *testing.B) {
	b.Run("fill1440", func(b *testing.B) {
		vals := benchWindow(1440, true)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var cw CompactWindow
			for _, v := range vals {
				cw.Append(v)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vals)), "ns/value")
	})
	b.Run("fleet5000x298", func(b *testing.B) {
		rng := rand.New(rand.NewSource(7))
		apps := make([][]float64, 5000)
		for a := range apps {
			apps[a] = sparseBenchValues(rng, 298)
		}
		fleet := make([]CompactWindow, len(apps))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clear(fleet)
			for a, vals := range apps {
				for _, v := range vals {
					fleet[a].Append(v)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(apps)*298), "ns/value")
	})
}

// sizeClass is the capacity the allocator gives a fresh n-byte slice.
func sizeClass(n int) int { return cap(append([]byte(nil), make([]byte, n)...)) }

// assertCapBounded checks that a window retains at most one quarter step
// past its stream, rounded up to the allocator's size class — or, below
// cwStepFrom, one doubling — plus its chunk offsets.
func assertCapBounded(t *testing.T, cw *CompactWindow, what string) {
	t.Helper()
	n := len(cw.buf)
	bound := max(sizeClass(n+n/4), 2*cwStepFrom)
	if cap(cw.buf) > bound {
		t.Errorf("%s: %d-byte stream in a %d-byte buffer, want at most %d", what, n, cap(cw.buf), bound)
	}
	if got, want := cw.MemBytes(), bound+4*(2*len(cw.starts)+1); got > want {
		t.Errorf("%s: MemBytes %d for a %d-byte stream in %d chunks, want at most %d", what, got, n, len(cw.starts), want)
	}
}

// TestCompactWindowCapacityBounded pins what a window retains: within one
// quarter step of its stream, after appends from empty, after a snapshot
// reload and one append, and after a page-in and one append — on values
// that delta-encode (quarters), that go decimal (thousandths) and that go
// raw.
func TestCompactWindowCapacityBounded(t *testing.T) {
	for _, shape := range []string{"quarters", "thousandths", "raw"} {
		for _, n := range []int{1, 300, 1440, 10080} {
			vals := benchWindow(n, shape == "quarters")
			if shape == "raw" {
				vals = randomWindow(n)
			}
			what := fmt.Sprintf("%s/%d", shape, n)
			t.Run(what, func(t *testing.T) {
				cw := compactWindowOf(vals)
				assertCapBounded(t, &cw, what+" appended")

				dir := t.TempDir()
				s, err := Open(dir, Options{Sync: SyncNever, CompactEvery: -1})
				if err != nil {
					t.Fatal(err)
				}
				batch := make([]Observation, n)
				for i, v := range vals {
					batch[i] = Observation{App: "a", Concurrency: v}
				}
				if err := s.AppendBatch(batch); err != nil {
					t.Fatal(err)
				}
				if err := s.Compact(); err != nil {
					t.Fatal(err)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				if s, err = Open(dir, Options{Sync: SyncNever, CompactEvery: -1}); err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				if err := s.Append("a", 1.5); err != nil {
					t.Fatal(err)
				}
				assertCapBounded(t, &s.warm["a"].cw, what+" reloaded, one append")

				if err := s.PageOut("a"); err != nil {
					t.Fatal(err)
				}
				if err := s.Append("a", 2.5); err != nil {
					t.Fatal(err)
				}
				st := s.warm["a"]
				if st == nil || st.cw.Len() != n+2 {
					t.Fatalf("after a page-in: warm record %v, want one of %d values", st, n+2)
				}
				assertCapBounded(t, &st.cw, what+" paged in, one append")
			})
		}
	}
}

// TestCompactWindowGrowsInOneAllocation: growing a full window's buffer
// is one allocation (and one copy), not an append that allocates twice.
func TestCompactWindowGrowsInOneAllocation(t *testing.T) {
	cw := compactWindowOf(benchWindow(300, false)) // 44 values into the last chunk
	full := cw.buf[:len(cw.buf):len(cw.buf)]
	var sink []byte
	if testing.AllocsPerRun(10, func() { sink = append([]byte(nil), make([]byte, len(full))...) }) > 1 {
		t.Skipf("this build allocates the make in append(nil, make(...)...) apart, as the race detector's does (%d bytes)", cap(sink))
	}
	w := cw
	got := testing.AllocsPerRun(100, func() {
		w = cw
		w.buf = full
		w.Append(1.5)
	})
	if got != 1 {
		t.Errorf("growing a full window made %v allocations, want 1", got)
	}
	if want := sizeClass(len(full) + len(full)/4); cap(w.buf) != want {
		t.Errorf("grew a %d-byte stream to %d bytes, want %d", len(full), cap(w.buf), want)
	}
}
