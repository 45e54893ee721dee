package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// CompactWindow is a lossless, append-only encoding of a sliding float64
// window. It is the store's in-memory representation for every app —
// "warm" in the tiering vocabulary — and the unit that pages to disk for
// cold apps.
//
// Values are stored in chunks of cwChunkLen samples. The first value of
// a chunk, its head, is its raw 8 little-endian bytes. What follows
// depends on how the chunk compresses:
//
//	delta chunk    head | uvarint(bits.ReverseBytes64(prevBits XOR curBits)) ...
//	raw chunk      head | 0x80 0x00 | 8 little-endian bytes per value ...
//	decimal chunk  head | 0x81 0x00 | e | uvarint(zigzag(m_i - m_{i-1})) ...
//
// XOR of consecutive IEEE-754 bit patterns concentrates entropy in the
// high (sign/exponent) bytes, so byte-reversing before the uvarint makes
// the cheap cases tiny: a repeated value (the zero-concurrency runs that
// dominate sparse fleets) costs 1 byte, and values with few mantissa bits
// that share sign and exponent cost 2-4 bytes instead of 8 (the
// quarter-quantised hot bench fleets: 2.7 B/obs on disk). A value that
// fills its mantissa does not compress that way: a per-minute average
// such as 0.137 XORs to a delta with low-order bits set, which costs a
// 9-10-byte uvarint. Such a value is often a decimal of a few places
// (femux-load and the serving benchmark send thousandths). v is decimal
// at exponent e when m = v·10^e rounded to an integer has |m| < 2^53 and
// float64(m)/10^e has the bits of v, which no -0, NaN or infinity has.
// A decimal chunk of values decimal at e stores the zigzag differences of
// their m, the head's m derived from the head: a thousandth within 8.19
// of the value before it costs at most 2 bytes. This is the decimal
// scaling of ALP (Afroozeh et al., SIGMOD '24), made Float64bits-exact by
// that check.
//
// Append writes a chunk as deltas until its k values' deltas cost more
// than the raw marker and k-1 raw values (2 + 8·(k-1) bytes). Then it
// re-encodes the chunk in place: decimal at the smallest exponent up to
// cwMaxExp that holds every value in it, if that costs no more, and raw
// otherwise. A value that is not decimal at a decimal chunk's exponent
// re-encodes the chunk at the smallest larger exponent that holds every
// value, or raw, by the same rule; a raw chunk takes 8 bytes a value. So
// no chunk is larger than 10 + 8·(k-1) bytes, and a stream whose deltas
// always pay (the quarter-valued hot fleets) is the bytes it was before
// the other kinds existed. Each marker is a two-byte uvarint of 0 or 1,
// which binary.AppendUvarint never writes (it writes one byte), so a
// stream with neither — every stream written before raw chunks existed —
// decodes as deltas unchanged. The XOR transform is a bijection on
// uint64, so the codec is bit-exact for every pattern including -0, NaN
// payloads, and infinities.
//
// Chunking bounds two costs: Recent walks only the chunks that hold the
// values it returns, and the per-chunk raw head re-anchors the delta
// stream so a corrupt byte cannot silently propagate past a chunk
// boundary on decode.
const cwChunkLen = 64

// The markers that follow the head of a raw and of a decimal chunk.
const (
	cwRawMarker     = "\x80\x00"
	cwDecimalMarker = "\x81\x00"
)

// cwMaxExp is the largest decimal exponent. 10^15 < 2^53, so every power
// of ten a decimal chunk scales by is exact.
const cwMaxExp = 15

var pow10 = [cwMaxExp + 1]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// chunkKind is how a chunk encodes the values after its head.
type chunkKind uint8

const (
	chunkDelta chunkKind = iota
	chunkRaw
	chunkDecimal
)

// CompactWindow's zero value is an empty window ready for use.
type CompactWindow struct {
	buf    []byte
	starts []uint32  // byte offset in buf of each chunk's first value
	n      int       // live values across all chunks
	tail   int32     // values in the last chunk (0 iff n == 0)
	kind   chunkKind // how the last chunk is encoded
	exp    uint8     // the last chunk's exponent, if it is decimal
	prev   uint64    // bit pattern of the most recently appended value
}

// Len reports how many values the window holds.
func (cw *CompactWindow) Len() int { return cw.n }

// MemBytes reports the heap bytes retained by the encoded window.
func (cw *CompactWindow) MemBytes() int { return cap(cw.buf) + 4*cap(cw.starts) }

// cwStepFrom is the buffer capacity from which a full window grows by a
// quarter step (see grow); a smaller one doubles, as append grows it.
const cwStepFrom = 256

// Append adds one value to the window.
func (cw *CompactWindow) Append(v float64) {
	if cap(cw.buf) >= cwStepFrom && cap(cw.buf)-len(cw.buf) < binary.MaxVarintLen64 {
		cw.grow(0) // then no append below outgrows buf
	}
	b := math.Float64bits(v)
	d := bits.ReverseBytes64(b ^ cw.prev)
	switch {
	case uint32(cw.tail-1) >= cwChunkLen-1: // no chunk yet (tail 0), or the last one is full
		cw.starts = append(cw.starts, uint32(len(cw.buf)))
		cw.buf = binary.LittleEndian.AppendUint64(cw.buf, b)
		cw.tail, cw.kind, cw.exp = 0, chunkDelta, 0 // the head is counted below
	case d < 1<<56 && cw.kind == chunkDelta:
		// A delta of at most 8 bytes keeps a chunk within its raw cost.
		cw.buf = binary.AppendUvarint(cw.buf, d)
	default:
		cw.appendWide(v, d)
	}
	cw.tail++
	cw.prev = b
	cw.n++
}

// grow moves the stream into a buffer a quarter longer, and at least
// need bytes long, rounded up to the allocator's size class, all of which
// the window then uses. A window is mostly its stream, and one decoded
// from a snapshot is exactly its size: the 1.3-2x step append takes at
// 0.25-2 KiB left over a third of a hot fleet's window bytes as slack
// after each app's first observe. Below cwStepFrom the slack is under 256
// bytes an app, and doubling keeps the many small steps of a window's
// first values cheap.
func (cw *CompactWindow) grow(need int) {
	n := len(cw.buf)
	// Appending to a nil slice allocates the size class of its length,
	// and the slice's capacity is all of that class.
	buf := append([]byte(nil), make([]byte, max(n+n/4, need))...)
	cw.buf = buf[:copy(buf, cw.buf)]
}

// appendWide adds v, whose delta d is 9-10 bytes long or whose chunk is
// not a delta chunk, to the last chunk. The chunk is re-encoded (see
// recode) when a delta chunk's deltas come to cost more than its raw form
// would, or when v is not decimal at a decimal chunk's exponent.
func (cw *CompactWindow) appendWide(v float64, d uint64) {
	switch cw.kind {
	case chunkRaw:
		cw.buf = binary.LittleEndian.AppendUint64(cw.buf, math.Float64bits(v))
		return
	case chunkDecimal:
		if m, ok := decimalAt(v, cw.exp); ok {
			prev := int64(math.RoundToEven(math.Float64frombits(cw.prev) * pow10[cw.exp]))
			cw.buf = binary.AppendUvarint(cw.buf, zigzag(m-prev))
			return
		}
	default:
		start, k := int(cw.starts[len(cw.starts)-1]), int(cw.tail)+1
		if len(cw.buf)+(bits.Len64(d)+6)/7-start-8 <= len(cwRawMarker)+8*(k-1) {
			cw.buf = binary.AppendUvarint(cw.buf, d)
			return
		}
	}
	cw.recode(v)
}

// recode re-encodes the last chunk with v appended: decimal at the
// smallest exponent that holds every value, above the chunk's own if it
// is decimal, if that costs no more than the raw form, and raw otherwise.
// A chunk holds at most cwChunkLen-1 values when this runs, and it runs at
// most cwMaxExp+2 times per chunk, since the exponent only grows.
func (cw *CompactWindow) recode(v float64) {
	start, k := int(cw.starts[len(cw.starts)-1]), int(cw.tail)+1
	var vals [cwChunkLen]float64
	if _, err := walkChunks(cw.buf[start:], k-1, nil, vals[:k-1]); err != nil {
		panic(err) // the chunk is Append's output or passed a decode
	}
	vals[k-1] = v
	from := uint8(0)
	if cw.kind == chunkDecimal {
		from = cw.exp + 1
	}
	var scratch [8 * cwChunkLen]byte // past any chunk's body
	body, kind, e := encodeChunkBody(scratch[:0], vals[:k], from)
	if end := start + 8 + len(body); end > cap(cw.buf) && cap(cw.buf) >= cwStepFrom {
		cw.grow(end)
	}
	cw.buf = append(cw.buf[:start+8], body...)
	cw.kind, cw.exp = kind, e
}

// encodeChunkBody appends what follows the head vals[0] of a chunk of
// vals: a decimal chunk at the smallest exponent from `from` on that holds
// every value, if it costs no more than the raw form, or a raw chunk.
func encodeChunkBody(buf []byte, vals []float64, from uint8) (_ []byte, kind chunkKind, e uint8) {
	for e = from; e <= cwMaxExp; e++ {
		if body, ok := appendDecimal(buf, vals, e); ok {
			if len(body)-len(buf) <= len(cwRawMarker)+8*(len(vals)-1) {
				return body, chunkDecimal, e
			}
			break
		}
	}
	buf = append(buf, cwRawMarker...)
	for _, v := range vals[1:] {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf, chunkRaw, 0
}

// appendDecimal appends the body of a decimal chunk at exponent e of
// vals, if every value is decimal at e.
func appendDecimal(buf []byte, vals []float64, e uint8) ([]byte, bool) {
	prev, ok := decimalAt(vals[0], e)
	if !ok {
		return nil, false
	}
	buf = append(append(buf, cwDecimalMarker...), e)
	for _, v := range vals[1:] {
		m, ok := decimalAt(v, e)
		if !ok {
			return nil, false
		}
		buf = binary.AppendUvarint(buf, zigzag(m-prev))
		prev = m
	}
	return buf, true
}

// decimalAt returns m, v·10^e rounded to an integer, and whether v is
// decimal at e: |m| < 2^53 and float64(m)/10^e has the bits of v. The
// check is on the integer m, so -0 (whose m is 0, which decodes as +0),
// NaN and ±Inf are never decimal.
func decimalAt(v float64, e uint8) (int64, bool) {
	p := pow10[e]
	f := math.RoundToEven(v * p)
	if !(math.Abs(f) < 1<<53) {
		return 0, false
	}
	m := int64(f)
	return m, math.Float64bits(float64(m)/p) == math.Float64bits(v)
}

func zigzag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

// Values decodes the window into dst (grown as needed) and returns it.
func (cw *CompactWindow) Values(dst []float64) []float64 {
	if cap(dst) < cw.n {
		dst = make([]float64, cw.n)
	}
	dst = dst[:cw.n]
	if cw.n == 0 {
		return dst
	}
	if _, err := walkChunks(cw.buf, cw.n, nil, dst); err != nil {
		panic(err) // the stream is Append's own output
	}
	return dst
}

// Recent decodes into dst (grown as needed) the k values that end skip
// values before the window's end, Values()[Len()-skip-k : Len()-skip],
// and returns them; when the window holds fewer than k+skip values, it
// returns those from its start. Only the chunks holding them are walked.
func (cw *CompactWindow) Recent(k, skip int, dst []float64) []float64 {
	hi := max(cw.n-skip, 0)
	lo, dst := max(hi-k, 0), dst[:0]
	// Chunk c starts at value c*cwChunkLen: only the last is short.
	for c := lo / cwChunkLen; c*cwChunkLen < hi; c++ {
		from, to, end := c*cwChunkLen, min(cw.n, (c+1)*cwChunkLen), len(cw.buf)
		if c+1 < len(cw.starts) {
			end = int(cw.starts[c+1])
		}
		var vals [cwChunkLen]float64
		if _, err := walkChunks(cw.buf[cw.starts[c]:end], to-from, nil, vals[:to-from]); err != nil {
			panic(err) // the stream is Append's own output
		}
		dst = append(dst, vals[max(lo, from)-from:min(hi, to)-from]...)
	}
	return dst
}

// appendEncoded serializes the window: uvarint n | uvarint nb | the nb
// bytes of the chunk stream. The chunk layout is implied by n — every
// chunk holds cwChunkLen values except the last — so offsets need no
// separate framing.
func (cw *CompactWindow) appendEncoded(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(cw.n))
	buf = binary.AppendUvarint(buf, uint64(len(cw.buf)))
	return append(buf, cw.buf...)
}

// cwMode selects what a decode of untrusted bytes produces.
type cwMode uint8

const (
	// cwWindow yields a CompactWindow that owns the input's stream bytes
	// (no copy) with its chunk offsets re-derived: one that can be
	// appended to and re-encoded.
	cwWindow cwMode = 1 << iota
	// cwValues yields the decoded values. Alone, it touches no byte of the
	// input after returning.
	cwValues
)

// decodeCompactWindow parses an appendEncoded image spanning exactly p,
// untrusted bytes, in one walk: every varint is validated as it is
// decoded, so a corrupt page or snapshot record errors out instead of
// over-reading, and an error returns nothing decoded. With cwWindow the
// result aliases p, which the caller must own and never reuse; spare
// capacity behind p is where the window's next Append lands. With
// cwValues the values are decoded into a slice of their own.
func decodeCompactWindow(p []byte, mode cwMode) (cw CompactWindow, vals []float64, err error) {
	count, n := binary.Uvarint(p)
	if n <= 0 || count > math.MaxInt32 {
		return cw, nil, fmt.Errorf("store: compact window: bad count")
	}
	p = p[n:]
	nb, n := binary.Uvarint(p)
	if n <= 0 || nb > uint64(len(p)-n) {
		return cw, nil, fmt.Errorf("store: compact window: bad byte length")
	}
	stream, rest := p[n:n+int(nb)], p[n+int(nb):]
	if len(rest) != 0 {
		return cw, nil, fmt.Errorf("store: compact window: %d trailing bytes", len(rest))
	}
	// Everything below is sized from count, so bound it by what the
	// stream could hold first: a value costs at least one byte.
	if count > nb {
		return cw, nil, fmt.Errorf("store: compact window: %d values in %d bytes", count, nb)
	}
	var starts []uint32
	if mode&cwWindow != 0 && count > 0 {
		// One spare slot: a full last chunk makes the next Append open one.
		starts = make([]uint32, 0, (count+cwChunkLen-1)/cwChunkLen+1)
	}
	if mode&cwValues != 0 {
		vals = make([]float64, count)
	}
	w, err := walkChunks(stream, int(count), starts, vals)
	if err != nil {
		return cw, nil, err
	}
	if starts != nil {
		cw = w
	}
	return cw, vals, nil
}

// walkChunks is the one decoder of a chunk stream: count values, each
// chunk a raw 8-byte head and then up to cwChunkLen-1 values as deltas,
// raw words or decimal differences, ending exactly where stream does.
// Each value is stored in vals (len count) and each chunk's offset
// appended to starts, where those are non-nil. It returns the window the
// stream encodes, with starts as its chunk offsets.
func walkChunks(stream []byte, count int, starts []uint32, vals []float64) (CompactWindow, error) {
	i := 0
	var prev uint64
	kind, exp := chunkDelta, uint8(0)
	for decoded := 0; decoded < count; {
		if len(stream)-i < 8 {
			return CompactWindow{}, fmt.Errorf("store: compact window: truncated chunk head")
		}
		if starts != nil {
			starts = append(starts, uint32(i))
		}
		prev = binary.LittleEndian.Uint64(stream[i:])
		i += 8
		if vals != nil {
			vals[decoded] = math.Float64frombits(prev)
		}
		decoded++
		end := min(decoded+cwChunkLen-1, count)
		kind, exp = chunkDelta, 0
		if end > decoded && len(stream)-i >= 2 {
			switch string(stream[i : i+2]) {
			case cwRawMarker:
				kind = chunkRaw
			case cwDecimalMarker:
				kind = chunkDecimal
			}
		}
		switch kind {
		case chunkRaw:
			i += 2
			words := 8 * (end - decoded)
			if len(stream)-i < words {
				return CompactWindow{}, fmt.Errorf("store: compact window: truncated raw chunk")
			}
			w := stream[i : i+words]
			if vals != nil {
				dst := vals[decoded:end]
				for j := range dst {
					dst[j] = math.Float64frombits(binary.LittleEndian.Uint64(w[8*j:]))
				}
			}
			prev = binary.LittleEndian.Uint64(w[words-8:])
			i += words
			decoded = end
		case chunkDecimal:
			var dst []float64
			if vals != nil {
				dst = vals[decoded:end]
			}
			m, used, err := walkDecimal(stream[i+2:], prev, end-decoded, dst)
			if err != nil {
				return CompactWindow{}, err
			}
			exp = stream[i+2]
			prev = math.Float64bits(float64(m) / pow10[exp])
			i += 2 + used
			decoded = end
		default:
			for ; decoded < end; decoded++ {
				d, m := uvarint(stream[i:])
				if m <= 0 {
					return CompactWindow{}, fmt.Errorf("store: compact window: bad delta")
				}
				i += m
				prev ^= bits.ReverseBytes64(d)
				if vals != nil {
					vals[decoded] = math.Float64frombits(prev)
				}
			}
		}
	}
	if i != len(stream) {
		return CompactWindow{}, fmt.Errorf("store: compact window: %d trailing bytes", len(stream)-i)
	}
	return CompactWindow{buf: stream, starts: starts, n: count, tail: int32(count-1)%cwChunkLen + 1, kind: kind, exp: exp, prev: prev}, nil
}

// walkDecimal decodes the n values after a decimal chunk's head, whose
// bits are head, from p, which starts at the chunk's exponent byte, into
// vals (len n) if non-nil, and returns the last value's m and the bytes
// read, from the exponent on. m is summed in an int64: a float sum would
// lose a unit once a difference passes 2^53. A chunk Append never writes
// is an error: an exponent above cwMaxExp, a head or a last value that is
// not decimal at it with the m the chunk gives, or any |m| >= 2^53.
func walkDecimal(p []byte, head uint64, n int, vals []float64) (last int64, used int, err error) {
	if len(p) == 0 || p[0] > cwMaxExp {
		return 0, 0, fmt.Errorf("store: compact window: bad decimal exponent")
	}
	e := p[0]
	m, ok := decimalAt(math.Float64frombits(head), e)
	if !ok {
		return 0, 0, fmt.Errorf("store: compact window: decimal chunk head not decimal at 10^-%d", e)
	}
	pow, i := pow10[e], 1
	for j := 0; j < n; j++ {
		u, k := uvarint(p[i:])
		if k <= 0 {
			return 0, 0, fmt.Errorf("store: compact window: bad decimal difference")
		}
		i += k
		// A wrapped sum lands at least 2^63-2^53 from zero.
		if m += int64(u>>1) ^ -int64(u&1); m >= 1<<53 || m <= -1<<53 {
			return 0, 0, fmt.Errorf("store: compact window: decimal value out of range")
		}
		if vals != nil {
			vals[j] = float64(m) / pow
		}
	}
	if again, ok := decimalAt(float64(m)/pow, e); !ok || again != m {
		// Append takes the last value's m from its bits.
		return 0, 0, fmt.Errorf("store: compact window: decimal chunk's last value not decimal at 10^-%d", e)
	}
	return m, i, nil
}

// uvarint is binary.Uvarint — the same (value, n) for every input — with
// the byte loop unrolled wherever all ten bytes a uvarint can span are
// present. A value that fills its mantissa makes a 9-10-byte delta, and
// the library loop pays an index, an overflow and a shift-count check on
// each of those bytes, which made it the largest single cost of a restore.
func uvarint(p []byte) (uint64, int) {
	if len(p) < binary.MaxVarintLen64 {
		// Too short to overflow: truncated, or a value that ends in time.
		var x uint64
		for i, b := range p {
			if b < 0x80 {
				return x | uint64(b)<<(7*uint(i)), i + 1
			}
			x |= uint64(b&0x7f) << (7 * uint(i))
		}
		return 0, 0
	}
	q := p[:binary.MaxVarintLen64]
	b := uint64(q[0])
	if b < 0x80 {
		return b, 1
	}
	x := b & 0x7f
	if b = uint64(q[1]); b < 0x80 {
		return x | b<<7, 2
	}
	x |= (b & 0x7f) << 7
	if b = uint64(q[2]); b < 0x80 {
		return x | b<<14, 3
	}
	x |= (b & 0x7f) << 14
	if b = uint64(q[3]); b < 0x80 {
		return x | b<<21, 4
	}
	x |= (b & 0x7f) << 21
	if b = uint64(q[4]); b < 0x80 {
		return x | b<<28, 5
	}
	x |= (b & 0x7f) << 28
	if b = uint64(q[5]); b < 0x80 {
		return x | b<<35, 6
	}
	x |= (b & 0x7f) << 35
	if b = uint64(q[6]); b < 0x80 {
		return x | b<<42, 7
	}
	x |= (b & 0x7f) << 42
	if b = uint64(q[7]); b < 0x80 {
		return x | b<<49, 8
	}
	x |= (b & 0x7f) << 49
	if b = uint64(q[8]); b < 0x80 {
		return x | b<<56, 9
	}
	x |= (b & 0x7f) << 56
	if b = uint64(q[9]); b < 0x80 {
		if b > 1 {
			return 0, -10 // the tenth byte holds one bit
		}
		return x | b<<63, 10
	}
	// Ten continuation bytes: binary.Uvarint reports a truncation when
	// the input ends there and an overflow at the eleventh byte otherwise.
	if len(p) == binary.MaxVarintLen64 {
		return 0, 0
	}
	return 0, -11
}
