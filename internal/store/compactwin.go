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
// depends on whether the chunk compresses:
//
//	delta chunk   head | uvarint(bits.ReverseBytes64(prevBits XOR curBits)) ...
//	raw chunk     head | 0x80 0x00 | 8 little-endian bytes per value ...
//
// XOR of consecutive IEEE-754 bit patterns concentrates entropy in the
// high (sign/exponent) bytes, so byte-reversing before the uvarint makes
// the cheap cases tiny: a repeated value (the zero-concurrency runs that
// dominate sparse fleets) costs 1 byte, and values with few mantissa bits
// that share sign and exponent cost 2-4 bytes instead of 8 (the
// quarter-quantised hot bench fleets: 2.7 B/obs on disk). A value that
// fills its mantissa does not compress: a per-minute average such as
// 0.137 XORs to a delta with low-order bits set, which costs a 9-10-byte
// uvarint. So Append converts the open chunk to raw, in place, the first
// time its k values' deltas cost more than the marker and k-1 raw values
// (2 + 8·(k-1) bytes), and appends raw after that; a raw chunk decodes
// with one 8-byte load per value. No chunk is larger than 10 + 8·(k-1)
// bytes. The marker is a two-byte uvarint of 0, which
// binary.AppendUvarint never writes (it writes 0x00), so a stream with no
// raw chunk — every stream written before raw chunks existed — decodes
// unchanged. The transform is a bijection on uint64, so the codec is
// bit-exact for every pattern including -0, NaN payloads, and
// infinities.
//
// Chunking bounds two costs: Recent walks only the chunks that hold the
// values it returns, and the per-chunk raw head re-anchors the delta
// stream so a corrupt byte cannot silently propagate past a chunk
// boundary on decode.
const cwChunkLen = 64

// cwRawMarker follows the head of a raw chunk.
const cwRawMarker = "\x80\x00"

// CompactWindow's zero value is an empty window ready for use.
type CompactWindow struct {
	buf    []byte
	starts []uint32 // byte offset in buf of each chunk's first value
	n      int      // live values across all chunks
	tail   int32    // values in the last chunk (0 iff n == 0)
	raw    bool     // the last chunk is raw
	prev   uint64   // bit pattern of the most recently appended value
}

// Len reports how many values the window holds.
func (cw *CompactWindow) Len() int { return cw.n }

// MemBytes reports the heap bytes retained by the encoded window.
func (cw *CompactWindow) MemBytes() int { return cap(cw.buf) + 4*cap(cw.starts) }

// Append adds one value to the window.
func (cw *CompactWindow) Append(v float64) {
	b := math.Float64bits(v)
	d := bits.ReverseBytes64(b ^ cw.prev)
	switch {
	case uint32(cw.tail-1) >= cwChunkLen-1: // no chunk yet (tail 0), or the last one is full
		cw.starts = append(cw.starts, uint32(len(cw.buf)))
		cw.buf = binary.LittleEndian.AppendUint64(cw.buf, b)
		cw.tail, cw.raw = 0, false // the head is counted below
	case d < 1<<56 && !cw.raw:
		// A delta of at most 8 bytes keeps a chunk within its raw cost.
		cw.buf = binary.AppendUvarint(cw.buf, d)
	default:
		cw.appendWide(b, d)
	}
	cw.tail++
	cw.prev = b
	cw.n++
}

// appendWide adds value bits b, whose delta d is 9-10 bytes long or whose
// chunk is raw, to the last chunk. The first time a delta chunk's deltas
// cost more than the raw form would, its values are re-encoded raw in
// place: at most cwChunkLen-1 of them, once per chunk.
func (cw *CompactWindow) appendWide(b, d uint64) {
	if cw.raw {
		cw.buf = binary.LittleEndian.AppendUint64(cw.buf, b)
		return
	}
	start := int(cw.starts[len(cw.starts)-1])
	cw.buf = binary.AppendUvarint(cw.buf, d)
	k := int(cw.tail) + 1
	if len(cw.buf)-start-8 <= len(cwRawMarker)+8*(k-1) {
		return
	}
	var vals [cwChunkLen]float64
	if _, _, _, err := walkChunks(cw.buf[start:], k, nil, vals[:k]); err != nil {
		panic(err) // the chunk is Append's output or passed a decode
	}
	cw.buf = append(cw.buf[:start+8], cwRawMarker...)
	for _, v := range vals[1:k] {
		cw.buf = binary.LittleEndian.AppendUint64(cw.buf, math.Float64bits(v))
	}
	cw.raw = true
}

// Values decodes the window into dst (grown as needed) and returns it.
func (cw *CompactWindow) Values(dst []float64) []float64 {
	if cap(dst) < cw.n {
		dst = make([]float64, cw.n)
	}
	dst = dst[:cw.n]
	if cw.n == 0 {
		return dst
	}
	if _, _, _, err := walkChunks(cw.buf, cw.n, nil, dst); err != nil {
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
		if _, _, _, err := walkChunks(cw.buf[cw.starts[c]:end], to-from, nil, vals[:to-from]); err != nil {
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
	starts, prev, raw, err := walkChunks(stream, int(count), starts, vals)
	if err != nil {
		return cw, nil, err
	}
	if starts != nil {
		cw = CompactWindow{buf: stream, starts: starts, n: int(count), tail: int32(count-1)%cwChunkLen + 1, raw: raw, prev: prev}
	}
	return cw, vals, nil
}

// walkChunks is the one decoder of a chunk stream: count values, each
// chunk a raw 8-byte head and then up to cwChunkLen-1 delta uvarints, or
// the raw marker and that many 8-byte values, ending exactly where stream
// does. Each value is stored in vals (len count) and each chunk's offset
// appended to starts, where those are non-nil. prev is the bit pattern of
// the last value and raw whether the last chunk is raw.
func walkChunks(stream []byte, count int, starts []uint32, vals []float64) (_ []uint32, prev uint64, raw bool, err error) {
	i := 0
	for decoded := 0; decoded < count; {
		if len(stream)-i < 8 {
			return nil, 0, false, fmt.Errorf("store: compact window: truncated chunk head")
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
		raw = end > decoded && len(stream)-i >= 2 && string(stream[i:i+2]) == cwRawMarker
		if raw {
			i += 2
			words := 8 * (end - decoded)
			if len(stream)-i < words {
				return nil, 0, false, fmt.Errorf("store: compact window: truncated raw chunk")
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
			continue
		}
		for ; decoded < end; decoded++ {
			d, m := uvarint(stream[i:])
			if m <= 0 {
				return nil, 0, false, fmt.Errorf("store: compact window: bad delta")
			}
			i += m
			prev ^= bits.ReverseBytes64(d)
			if vals != nil {
				vals[decoded] = math.Float64frombits(prev)
			}
		}
	}
	if i != len(stream) {
		return nil, 0, false, fmt.Errorf("store: compact window: %d trailing bytes", len(stream)-i)
	}
	return starts, prev, raw, nil
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
