package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// headAppendRecord is the framing as it was before records were encoded
// in place, kept verbatim: an oracle the new code is compared against,
// byte for byte. refDecodeCompactWindow is a second, two-pass decoder of
// all four chunk kinds, and headCompactWindowOf is the encoder as it was
// before raw chunks.

func headAppendRecord(buf, payload []byte) []byte {
	var hdr [recordHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// refChunk is one chunk refDecodeCompactWindow framed: its values and
// where its body, the bytes after its head and marker, lies.
type refChunk struct {
	start, body, end int
	kind             chunkKind
	values           int
}

// refDecodeCompactWindow decodes an appendEncoded image in two passes:
// the first frames every chunk by its marker and the uvarints it holds,
// the second decodes each chunk's values from its frame alone. It
// returns the window, its values and the bytes after the image.
func refDecodeCompactWindow(p []byte) (cw CompactWindow, vals []float64, rest []byte, err error) {
	bad := func(what string) (CompactWindow, []float64, []byte, error) {
		return CompactWindow{}, nil, nil, fmt.Errorf("ref: %s", what)
	}
	count, n := binary.Uvarint(p)
	if n <= 0 || count > math.MaxInt32 {
		return bad("count")
	}
	p = p[n:]
	nb, n := binary.Uvarint(p)
	if n <= 0 || nb > uint64(len(p)-n) {
		return bad("byte length")
	}
	stream, rest := p[n:n+int(nb)], p[n+int(nb):]

	var chunks []refChunk
	i := 0
	for left := int(count); left > 0; {
		if len(stream)-i < 8 {
			return bad("head")
		}
		c := refChunk{start: i, values: min(left, cwChunkLen)}
		i += 8
		left -= c.values
		if c.values > 1 && bytes.HasPrefix(stream[i:], []byte(cwRawMarker)) {
			c.kind, i = chunkRaw, i+2+8*(c.values-1)
			if i > len(stream) {
				return bad("raw words")
			}
		} else if c.values > 1 && bytes.HasPrefix(stream[i:], []byte(cwPackedMarker)) {
			if c.values != cwChunkLen {
				return bad("packed chunk not full")
			}
			if len(stream)-i < 4 {
				return bad("packed header")
			}
			_, m := binary.Uvarint(stream[i+4:])
			if m <= 0 {
				return bad("packed base")
			}
			// 63 offsets of w bits, in whole bytes.
			c.kind, i = chunkPacked, i+4+m+(63*int(stream[i+3])+7)/8
			if i > len(stream) {
				return bad("packed offsets")
			}
		} else {
			if c.values > 1 && bytes.HasPrefix(stream[i:], []byte(cwDecimalMarker)) {
				c.kind, i = chunkDecimal, i+3
				if i > len(stream) {
					return bad("exponent")
				}
			}
			for j := 1; j < c.values; j++ {
				_, m := binary.Uvarint(stream[i:])
				if m <= 0 {
					return bad("uvarint")
				}
				i += m
			}
		}
		c.body, c.end = c.start+8, i
		if c.kind != chunkDelta {
			c.body += len(cwRawMarker)
		}
		chunks = append(chunks, c)
	}
	if i != len(stream) {
		return bad("trailing bytes")
	}

	for _, c := range chunks {
		cw.starts = append(cw.starts, uint32(c.start))
		b := binary.LittleEndian.Uint64(stream[c.start:])
		vals = append(vals, math.Float64frombits(b))
		q := stream[c.body:c.end]
		switch c.kind {
		case chunkRaw:
			for ; len(q) > 0; q = q[8:] {
				b = binary.LittleEndian.Uint64(q)
				vals = append(vals, math.Float64frombits(b))
			}
		case chunkDecimal:
			e := q[0]
			if e > cwMaxExp {
				return bad("exponent")
			}
			pow := math.Pow10(int(e))
			// A value is decimal at e when its m, v·10^e rounded, is below
			// 2^53 and m/10^e has its bits.
			mOf := func(v float64) (int64, bool) {
				m := math.RoundToEven(v * pow)
				return int64(m), math.Abs(m) < 1<<53 && math.Float64bits(m/pow) == math.Float64bits(v)
			}
			m, ok := mOf(math.Float64frombits(b))
			if !ok {
				return bad("head not decimal")
			}
			for q = q[1:]; len(q) > 0; {
				u, k := binary.Uvarint(q)
				q = q[k:]
				d := int64(u >> 1)
				if u&1 != 0 {
					d = ^d
				}
				if m += d; m >= 1<<53 || m <= -1<<53 {
					return bad("m out of range")
				}
				vals = append(vals, float64(m)/pow)
			}
			last := vals[len(vals)-1]
			if again, ok := mOf(last); !ok || again != m {
				return bad("last value not decimal")
			}
			b, cw.exp = math.Float64bits(last), e
		case chunkPacked:
			e, w := q[0], int(q[1])
			u, k := binary.Uvarint(q[2:])
			base := int64(u >> 1)
			if u&1 != 0 {
				base = ^base
			}
			if e > cwMaxExp || w > 54 || base < -1<<53 || base > 1<<53 || base+(1<<w-1) > 1<<53 {
				return bad("packed header")
			}
			q = q[2+k:]
			pow := math.Pow10(int(e))
			for j := 0; j < 63; j++ {
				var off int64
				for bit := 0; bit < w; bit++ {
					o := j*w + bit
					off |= int64(q[o/8]>>(o%8)&1) << bit
				}
				vals = append(vals, float64(base+off)/pow)
			}
			b, cw.exp = math.Float64bits(vals[len(vals)-1]), e
		default:
			for len(q) > 0 {
				d, k := binary.Uvarint(q)
				q = q[k:]
				b ^= bits.ReverseBytes64(d)
				vals = append(vals, math.Float64frombits(b))
			}
		}
		cw.kind, cw.prev, cw.tail = c.kind, b, int32(c.values)
		if c.kind != chunkDecimal && c.kind != chunkPacked {
			cw.exp = 0
		}
	}
	cw.buf, cw.n = stream, int(count)
	if count == 0 {
		cw.buf = nil
	}
	return cw, vals, rest, nil
}

// headCompactWindowOf encodes values as every data directory written
// before raw chunks holds them: each value after a chunk's head is a
// delta uvarint, however long.
func headCompactWindowOf(values []float64) CompactWindow {
	var cw CompactWindow
	for _, v := range values {
		b := math.Float64bits(v)
		if cw.tail == cwChunkLen || cw.n == 0 {
			cw.starts = append(cw.starts, uint32(len(cw.buf)))
			cw.buf = binary.LittleEndian.AppendUint64(cw.buf, b)
			cw.tail = 1
		} else {
			cw.buf = binary.AppendUvarint(cw.buf, bits.ReverseBytes64(b^cw.prev))
			cw.tail++
		}
		cw.prev = b
		cw.n++
	}
	return cw
}

// restoreShapes are windows of each chunk kind: dyadic values (few
// mantissa bits, 1-4-byte deltas), thousandths (decimal chunks) and values
// decimal at no exponent (raw chunks), at lengths on and around the chunk
// boundaries, plus a chunk whose exponent grows until it turns raw, and
// every special bit pattern.
func restoreShapes() map[string][]float64 {
	shapes := map[string][]float64{
		"specials": {
			0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
			math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff0000000000123),
			math.SmallestNonzeroFloat64, math.MaxFloat64, 0.1,
		},
	}
	for _, n := range []int{cwChunkLen - 1, cwChunkLen, cwChunkLen + 1, 2 * cwChunkLen, 300} {
		shapes[fmt.Sprintf("dyadic/%d", n)] = benchWindow(n, true)
		shapes[fmt.Sprintf("thousandths/%d", n)] = benchWindow(n, false)
		shapes[fmt.Sprintf("random/%d", n)] = randomWindow(n)
	}
	// One chunk's exponent grows to cwMaxExp, then the chunk turns raw.
	shapes["decimal exponents"] = []float64{0.137, 0.291, 0.513, 0.25, 0.0001, 1.5, 2, 0.3, 0.00025, 1e-15, math.Nextafter(0.3, 1), 0.137}
	return shapes
}

// benchWindow is a deterministic window of n values: quarter-quantised
// (the hot bench fleets) or thousandth-valued (sparse_churn).
func benchWindow(n int, dyadic bool) []float64 {
	rng := rand.New(rand.NewSource(int64(n)))
	win := make([]float64, n)
	for i := range win {
		if dyadic {
			win[i] = float64(rng.Intn(80)) / 4
		} else {
			win[i] = float64(rng.Intn(20000)) / 1000
		}
	}
	return win
}

func encodedWindow(cw CompactWindow) []byte { return cw.appendEncoded(nil) }

// FuzzCompactWindowDecode: on arbitrary bytes the one-pass decoder never
// panics, never allocates more than a constant factor of its input (a
// packed chunk holds 64 values, 512 bytes decoded, in 13), and
// its three modes agree on whether the bytes are a window, on its values,
// and on the window they continue with an Append. They also agree with a
// two-pass decode of the four chunk kinds (refDecodeCompactWindow): on
// whether the bytes are a window at all, on every field of the window,
// and on the bits of every value.
func FuzzCompactWindowDecode(f *testing.F) {
	for _, vals := range restoreShapes() {
		for _, enc := range [][]byte{encodedWindow(headCompactWindowOf(vals)), encodedWindow(compactWindowOf(vals))} {
			f.Add(enc)
			f.Add(enc[:len(enc)-1])
			f.Add(append(enc[:len(enc):len(enc)], 0))
			flipped := append([]byte(nil), enc...)
			flipped[len(flipped)/2] ^= 0x80
			f.Add(flipped)
		}
	}
	f.Add([]byte{})
	f.Add(encodedWindow(CompactWindow{}))
	f.Add(binary.AppendUvarint(binary.AppendUvarint(nil, math.MaxInt32), 0)) // 2^31 values in no bytes
	f.Add(append(binary.AppendUvarint(binary.AppendUvarint(nil, 40), 40), make([]byte, 40)...))
	// A delta of ten continuation bytes, then an eleventh: overflow.
	f.Add(append(binary.AppendUvarint(binary.AppendUvarint(nil, 2), 19), bytes.Repeat([]byte{0xff}, 19)...))
	// Raw chunks cut short: the marker alone, and one word of two.
	f.Add(append(append(binary.AppendUvarint(binary.AppendUvarint(nil, 2), 10), make([]byte, 8)...), 0x80, 0))
	f.Add(append(append(binary.AppendUvarint(binary.AppendUvarint(nil, 3), 18), make([]byte, 8)...), 0x80, 0, 1, 2, 3, 4, 5, 6, 7, 8))
	// Decimal chunks: a thousandths chunk turned raw by each special; m
	// at and below 2^53, from a head of 0 and of -(2^53-1); corrupt
	// exponent bytes; a head that is not decimal; a chunk cut short.
	for _, v := range []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, 2.2250738585072014e-308} {
		f.Add(encodedWindow(compactWindowOf([]float64{0.137, 0.291, 0.513, v, 0.137})))
	}
	f.Add(decimalImage(0, 0, 1<<53))
	f.Add(decimalImage(0, 0, 1<<53-1))
	f.Add(decimalImage(-(1<<53 - 1), 0, 1<<54-2))
	f.Add(decimalImage(0.137, 16, 154))
	f.Add(decimalImage(0.137, 0xff, 154))
	f.Add(decimalImage(1.0/3, 3, 154))
	f.Add(decimalImage(0.137, 3)[:12])
	// Packed chunks: at the edges of the frame and past them, at widths
	// from 0 to 54 and past 54, cut short and overlong, one not full, and
	// a window of zeros in chunks of width 0.
	ramp := make([]uint64, 63)
	for j := range ramp {
		ramp[j] = uint64(j * 7)
	}
	f.Add(packedImage(0.5, 3, 9, 137, ramp, 0))
	f.Add(packedImage(0, 0, 0, 1<<53, nil, 0))
	f.Add(packedImage(0, 0, 54, -1<<53+1, []uint64{1<<54 - 1}, 0))
	f.Add(packedImage(0, 0, 54, -1<<53+2, []uint64{1<<54 - 1}, 0))
	f.Add(packedImage(0, 0, 3, 1<<53-6, nil, 0))
	f.Add(packedImage(0, 16, 9, 0, ramp, 0))
	f.Add(packedImage(0, 0, 55, 0, ramp, 0))
	f.Add(packedImage(0.5, 3, 9, 137, ramp, -1))
	f.Add(packedImage(0.5, 3, 9, 137, ramp, 1))
	f.Add(append(binary.AppendUvarint(nil, cwChunkLen-1), packedImage(0.5, 3, 9, 137, ramp, 0)[1:]...))
	f.Add(encodedWindow(compactWindowOf(make([]float64, 3*cwChunkLen))))

	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantVals, rest, err := refDecodeCompactWindow(data)
		wantOK := err == nil && len(rest) == 0
		var refOK bool
		var refVals []float64
		for _, mode := range []cwMode{cwWindow | cwValues, cwWindow, cwValues} {
			in := append([]byte(nil), data...) // a cwWindow decode owns its input
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			cw, vals, err := decodeCompactWindow(in, mode)
			runtime.ReadMemStats(&after)
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(48*len(data)+(1<<16)); got > limit {
				t.Fatalf("mode %d: decoding %d bytes allocated %d", mode, len(data), got)
			}
			if mode == cwWindow|cwValues {
				refOK, refVals = err == nil, vals
			}
			if (err == nil) != refOK {
				t.Fatalf("mode %d: err = %v, mode %d said ok=%v", mode, err, cwWindow|cwValues, refOK)
			}
			if (err == nil) != wantOK {
				t.Fatalf("mode %d: err = %v, the two-pass decode says ok=%v", mode, err, wantOK)
			}
			if err != nil {
				if vals != nil || cw.buf != nil || cw.starts != nil || cw.n != 0 {
					t.Fatalf("mode %d: a failed decode returned %d values, window %+v", mode, len(vals), cw)
				}
				continue
			}
			if mode&cwValues == 0 && vals != nil || mode&cwWindow == 0 && (cw.buf != nil || cw.starts != nil || cw.n != 0) {
				t.Fatalf("mode %d returned %d values and window %+v", mode, len(vals), cw)
			}
			want := want
			if mode&cwWindow == 0 {
				want = CompactWindow{}
			}
			if !bytes.Equal(cw.buf, want.buf) || len(cw.starts) != len(want.starts) || cw.n != want.n ||
				cw.tail != want.tail || cw.kind != want.kind || cw.exp != want.exp || cw.prev != want.prev {
				t.Fatalf("mode %d: window %+v, want %+v", mode, cw, want)
			}
			for i, s := range want.starts {
				if cw.starts[i] != s {
					t.Fatalf("mode %d: chunk %d starts at %d, want %d", mode, i, cw.starts[i], s)
				}
			}
			if mode&cwValues != 0 {
				assertBitIdentical(t, vals, wantVals, fmt.Sprintf("mode %d", mode))
				assertBitIdentical(t, vals, refVals, fmt.Sprintf("mode %d against mode %d", mode, cwWindow|cwValues))
			}
			if mode&cwWindow != 0 {
				assertBitIdentical(t, cw.Values(nil), refVals, fmt.Sprintf("mode %d: the window", mode))
				// Decimal at 10^-3, then at no exponent: a decimal chunk's
				// exponent grows, or it turns raw.
				next := append(append([]float64(nil), refVals...), 1.234, 1.234, 0.5, 1.0/3)
				for _, v := range next[len(refVals):] {
					cw.Append(v)
				}
				assertBitIdentical(t, cw.Values(nil), next, fmt.Sprintf("mode %d: the window, appended to", mode))
			}
		}
	})
}

// TestUvarintMatchesBinary: the unrolled varint returns binary.Uvarint's
// (value, n) for every input length 0-11 — every terminating position,
// truncation, the tenth-byte overflow and the eleventh-byte one.
func TestUvarintMatchesBinary(t *testing.T) {
	check := func(p []byte) {
		t.Helper()
		wantV, wantN := binary.Uvarint(p)
		if v, n := uvarint(p); v != wantV || n != wantN {
			t.Fatalf("uvarint(%x) = (%d, %d), binary.Uvarint = (%d, %d)", p, v, n, wantV, wantN)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for length := 0; length <= 11; length++ {
		p := make([]byte, length)
		for _, cont := range []byte{0x80, 0xff, 0xaa} {
			for i := range p {
				p[i] = cont
			}
			check(p) // no terminator at all
			for end := 0; end < length; end++ {
				for _, last := range []byte{0, 1, 2, 0x7f} {
					q := append([]byte(nil), p...)
					q[end] = last
					check(q)
				}
			}
		}
		for i := 0; i < 2000; i++ {
			rng.Read(p)
			for j := range p {
				if rng.Intn(3) > 0 {
					p[j] |= 0x80 // long varints are the interesting ones
				}
			}
			check(p)
		}
	}
	for _, v := range []uint64{0, 1, 127, 128, 1<<56 - 1, 1 << 56, 1<<63 - 1, 1 << 63, math.MaxUint64} {
		enc := binary.AppendUvarint(nil, v)
		check(enc)
		check(append(enc, 0xff, 0xff))
	}
}

// TestRecordsAreByteIdenticalToHead: framing a payload where it is encoded
// writes the bytes that framing a separately built payload did, for the
// three records that moved — page, snapshot and WAL observation. A dyadic
// window too short to fill a chunk never goes raw or packed, so its page
// and snapshot records are the bytes the delta-only encoder wrote, apart
// from the snapshot's magic.
func TestRecordsAreByteIdenticalToHead(t *testing.T) {
	for name, vals := range restoreShapes() {
		st := &appState{cw: compactWindowOf(vals), total: int64(len(vals)) + 7}
		app := "golden/" + name
		head := st
		if strings.HasPrefix(name, "dyadic/") && len(vals) < cwChunkLen {
			head = &appState{cw: headCompactWindowOf(vals), total: st.total}
		}

		want := headAppendRecord(nil, encodeWireAppCompact(nil, app, head))
		if got := appendPageRecord(nil, app, st); !bytes.Equal(got, want) {
			t.Fatalf("%s: page record\n got %x\nwant %x", name, got, want)
		}
		// Framed behind other records, as in a reused buffer.
		if got := appendPageRecord(append([]byte(nil), want...), app, st); !bytes.Equal(got, append(want, want...)) {
			t.Fatalf("%s: second page record in a buffer differs", name)
		}

		dir := t.TempDir()
		if err := writeSnapshot(dirDevice(dir), 4, map[string]*appState{app: st}, &coldTable{}); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, snapName(4)))
		if err != nil {
			t.Fatal(err)
		}
		want = headAppendRecord(headAppendRecord(nil, []byte(snapMagicV5)), head.appendSnapshot(nil, app))
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: snapshot\n got %x\nwant %x", name, got, want)
		}

		dir = t.TempDir()
		s := mustOpen(t, dir, Options{Sync: SyncNever, CompactEvery: -1})
		want = want[:0]
		var batch []Observation
		for _, v := range vals {
			batch = append(batch, Observation{App: app, Concurrency: v})
			want = headAppendRecord(want, encodeObservation(nil, Observation{App: app, Concurrency: v}))
		}
		// Two appends, so the second frames into a used buffer.
		if err := s.AppendBatch(batch[:3]); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendBatch(batch[3:]); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if got, err = os.ReadFile(filepath.Join(dir, segName(1))); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: WAL segment\n got %x\nwant %x", name, got, want)
		}
	}
}

// TestRestoredWindowIsTheCallers: what RestoreWindow returns belongs
// to the caller. Scribbling on it, or appending to it, changes nothing
// the store later returns or pages out — for a warm restore and for a
// cold one, whose values come out of the page-in's own decode.
func TestRestoredWindowIsTheCallers(t *testing.T) {
	for _, cold := range []bool{false, true} {
		dir := t.TempDir()
		s := mustOpen(t, dir, Options{Sync: SyncNever, CompactEvery: -1})
		want := benchWindow(300, false)
		for _, v := range want {
			if err := s.Append("a", v); err != nil {
				t.Fatal(err)
			}
		}
		if cold {
			if err := s.PageOut("a"); err != nil {
				t.Fatal(err)
			}
		}
		win, paged, ok := s.RestoreWindow("a")
		if !ok || paged != cold {
			t.Fatalf("cold=%v: restore ok=%v paged=%v", cold, ok, paged)
		}
		assertBitIdentical(t, win, want, "restored")
		for i := range win {
			win[i] = math.NaN()
		}
		for i := 0; i < 96; i++ {
			win = append(win, -1)
		}
		assertBitIdentical(t, s.Window("a"), want, "after the caller scribbled")
		if err := s.PageOut("a"); err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, s.Window("a"), want, "paged out after the caller scribbled")
		again, _, _ := s.RestoreWindow("a")
		assertBitIdentical(t, again, want, "restored again")
		s.Close()
	}
}

// TestPagedInWindowOwnsItsBuffer: a window paged in keeps the buffer its
// record was read into and appends into the spare capacity behind it.
// Neither those appends nor a second read of the same record may reach
// another window: the neighbour in the page file, or a copy read earlier.
func TestPagedInWindowOwnsItsBuffer(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Sync: SyncNever, CompactEvery: -1}
	s := mustOpen(t, dir, opt)
	obs := pageFleet(3, 70, 21)
	if err := s.AppendBatch(obs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.PageOut(appName(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	first, err := s.warmState(appName(1))
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.warmState(appName(1))
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Unlock()
	if spare := cap(first.cw.buf) - len(first.cw.buf); spare < 10 {
		t.Fatalf("a paged-in stream has %d spare bytes: its first append would copy it", spare)
	}
	kept := second.cw.Values(nil)
	for i := 0; i < 200; i++ {
		first.cw.Append(0.001 * float64(i)) // through the spare bytes and past them
	}
	assertBitIdentical(t, second.cw.Values(nil), kept, "a second read of the record, after appends to the first")

	// The same through the store: the middle app is paged in by an append
	// and grows while its neighbours stay on disk.
	for i := 0; i < 200; i++ {
		o := Observation{App: appName(1), Concurrency: 0.001 * float64(i)}
		if err := s.Append(o.App, o.Concurrency); err != nil {
			t.Fatal(err)
		}
		obs = append(obs, o)
	}
	assertExactPrefix(t, s, obs)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, opt)
	defer s.Close()
	assertExactPrefix(t, s, obs)
}

// mallocsOf reports the fewest heap allocations one call of fn made over a
// few tries (the minimum drops whatever another goroutine allocated
// meanwhile). before runs untimed ahead of each try.
func mallocsOf(before, fn func()) uint64 {
	least := uint64(math.MaxUint64)
	var a, b runtime.MemStats
	for try := 0; try < 5; try++ {
		before()
		runtime.ReadMemStats(&a)
		fn()
		runtime.ReadMemStats(&b)
		least = min(least, b.Mallocs-a.Mallocs)
	}
	return least
}

// TestColdRestoreAllocations pins the one pass: a cold restore allocates
// the read buffer, the record's app name, the chunk offsets and the
// values — not a copy of the stream, an offsets slice grown by doubling, a
// second appState and a second walk's slice on top. The serving restore,
// RestoreMemo, decodes no value: it allocates less cold, and nothing warm.
func TestColdRestoreAllocations(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{Sync: SyncNever, CompactEvery: -1})
	defer s.Close()
	for _, v := range benchWindow(300, false) {
		if err := s.Append("a", v); err != nil {
			t.Fatal(err)
		}
	}
	pageOut := func() {
		if err := s.PageOut("a"); err != nil {
			t.Fatal(err)
		}
	}
	pageOut()
	s.RestoreWindow("a") // opens the read handle
	got := mallocsOf(pageOut, func() {
		if win, paged, _ := s.RestoreWindow("a"); !paged || len(win) != 300 {
			t.Fatalf("restore: paged=%v len=%d", paged, len(win))
		}
	})
	if got > 6 {
		t.Fatalf("a cold restore of 300 values made %d allocations, want at most 6", got)
	}
	countOnly := func() {
		if _, n, _, paged, _ := s.RestoreMemo("a"); n != 300 {
			t.Fatalf("RestoreMemo: paged=%v n=%d", paged, n)
		}
	}
	if memo := mallocsOf(pageOut, countOnly); memo >= got {
		t.Fatalf("a cold RestoreMemo made %d allocations, a cold RestoreWindow %d", memo, got)
	}
	if warm := mallocsOf(func() {}, countOnly); warm != 0 {
		t.Fatalf("a warm RestoreMemo made %d allocations, want 0", warm)
	}
	// And the observe path frames into the WAL's buffer: the per-app state
	// exists, the window has room, nothing is left to allocate.
	batch := make([]Observation, 64)
	for i := range batch {
		batch[i] = Observation{App: "a", Concurrency: 0.5}
	}
	s.AppendBatch(batch)
	if got := mallocsOf(func() {}, func() { s.AppendBatch(batch[:8]) }); got > 1 {
		t.Fatalf("appending 8 observations to a warm app made %d allocations, want at most 1", got)
	}
}

var benchSink []float64

// BenchmarkRestoreWindow times the promoting restore of one app: warm (a
// decode of the in-memory window) and cold (a page read and its decode),
// on quarters (delta chunks) and thousandths (decimal chunks).
func BenchmarkRestoreWindow(b *testing.B) {
	for _, tier := range []string{"warm", "cold"} {
		for _, shape := range []string{"dyadic", "nondyadic"} {
			for _, n := range []int{300, 3000} {
				b.Run(fmt.Sprintf("%s/%s/%d", tier, shape, n), func(b *testing.B) {
					s, err := Open(b.TempDir(), Options{Sync: SyncNever, CompactEvery: -1})
					if err != nil {
						b.Fatal(err)
					}
					defer s.Close()
					var batch []Observation
					for _, v := range benchWindow(n, shape == "dyadic") {
						batch = append(batch, Observation{App: "a", Concurrency: v})
					}
					if err := s.AppendBatch(batch); err != nil {
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if tier == "cold" {
							b.StopTimer()
							if err := s.PageOut("a"); err != nil {
								b.Fatal(err)
							}
							b.StartTimer()
						}
						benchSink, _, _ = s.RestoreWindow("a")
					}
				})
			}
		}
	}
}

// BenchmarkPageOut times the demotion of a 300-value non-dyadic window:
// encode, frame, one write.
func BenchmarkPageOut(b *testing.B) {
	s, err := Open(b.TempDir(), Options{Sync: SyncNever, CompactEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for _, v := range benchWindow(300, false) {
		if err := s.Append("a", v); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.PageOut("a"); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		benchSink, _, _ = s.RestoreWindow("a")
		b.StartTimer()
	}
}
