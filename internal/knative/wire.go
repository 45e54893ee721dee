package knative

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"github.com/ubc-cirrus-lab/femux-go/internal/store"
)

// The wire codec for the four fixed-shape hot messages — ObserveRequest,
// TargetResponse, BatchObserveRequest, BatchObserveResponse. A batch of 64
// observations costs well under a microsecond each of policy and WAL work,
// so reflecting every one through encoding/json on the way into the router,
// into the shard, out of the shard and out of the router was most of the
// request. The router now decodes nothing: scanRouted and scanReply record
// where each item lies and it forwards those bytes, so an item is parsed
// at its shard alone. The codec is deliberately narrow: it recognises only
// the canonical shape — the known lower-case keys, at most once each,
// strings of plain ASCII, no null — and on anything else it declines and
// the same bytes (or the same struct) go to encoding/json. What is
// accepted, every error text and every emitted byte are therefore
// encoding/json's by construction; FuzzWireCodec and FuzzRouterBatch hold
// the two together.

// wireMessage is implemented by pointers to the four hot messages.
type wireMessage interface {
	// scanWire decodes the canonical shape from w into the receiver and
	// reports whether it did; on false the receiver is untouched.
	scanWire(w *wireBuf) bool
	// appendWire appends what json.Marshal would emit, or marks w bad.
	appendWire(w *wireBuf)
}

// wireBuf is one JSON document and the state of a pass over it: the scan
// methods read b from cursor i, the put methods append to b. Failure is
// sticky — once bad is set the scan methods return zero values and stop
// every loop — so codecs read straight through and check once at the end.
type wireBuf struct {
	b   []byte
	i   int
	bad bool
}

// wireBufs pools documents for both directions. A buffer that a large
// body grew is dropped instead of pooled, so one 8 MiB batch cannot pin
// heap.
var wireBufs = sync.Pool{New: func() any { return &wireBuf{b: make([]byte, 0, 4<<10)} }}

const maxPooledWireBuf = 64 << 10

func getWireBuf() *wireBuf {
	w := wireBufs.Get().(*wireBuf)
	w.b, w.i, w.bad = w.b[:0], 0, false
	return w
}

func putWireBuf(w *wireBuf) {
	if cap(w.b) <= maxPooledWireBuf {
		wireBufs.Put(w)
	}
}

// errReader replays a body's read error behind the bytes read before it.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// decodeWire reads r to its end and decodes one message from it, exactly
// as json.NewDecoder(r).Decode(m) would, except that a body overrunning
// an http.MaxBytesReader is refused even after a complete value.
func decodeWire(r io.Reader, m wireMessage) error {
	w := getWireBuf()
	defer putWireBuf(w)
	return w.decode(w.readFrom(r), m)
}

// readFrom appends r's bytes to w.b up to its end (nil) or first error.
func (w *wireBuf) readFrom(r io.Reader) error {
	body := bytes.NewBuffer(w.b)
	_, err := body.ReadFrom(r)
	w.b = body.Bytes()
	return err
}

// decode decodes m from w.b, the bytes of a read that ended in err.
func (w *wireBuf) decode(err error, m wireMessage) error {
	if _, tooBig := err.(*http.MaxBytesError); tooBig {
		return err // encoding/json would take a whole value ahead of the excess
	}
	if w.i, w.bad = 0, false; err == nil {
		if m.scanWire(w) {
			return nil
		}
		err = io.EOF
	}
	// Not canonical, or the body broke off: encoding/json decides, from
	// the same bytes followed by the same read error.
	return json.NewDecoder(io.MultiReader(bytes.NewReader(w.b), errReader{err})).Decode(m)
}

// marshalWire returns m as json.Marshal would, in a slice of its own (an
// HTTP transport may still be reading a request body after Do returns).
func marshalWire(m wireMessage) ([]byte, error) {
	w := getWireBuf()
	defer putWireBuf(w)
	if m.appendWire(w); w.bad {
		return json.Marshal(m)
	}
	return bytes.Clone(w.b), nil
}

// encodeWire writes m to dst as json.NewEncoder(dst).Encode(m) would.
func encodeWire(dst io.Writer, m wireMessage) error {
	w := getWireBuf()
	defer putWireBuf(w)
	if m.appendWire(w); w.bad {
		return json.NewEncoder(dst).Encode(m)
	}
	w.b = append(w.b, '\n')
	_, err := dst.Write(w.b)
	return err
}

// wirePlain marks the bytes that stand for themselves inside a JSON string
// on both sides: the decoder returns them unchanged and the (HTML-escaping)
// encoder emits them unchanged.
var wirePlain = func() (plain [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		plain[c] = true
	}
	for _, c := range `"\<>&` {
		plain[c] = false
	}
	return plain
}()

// peek skips whitespace and returns the next byte without consuming it (0
// at the end of input, which no caller accepts).
func (w *wireBuf) peek() byte {
	b, i := w.b, w.i
	for ; i < len(b); i++ {
		if c := b[i]; c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			w.i = i
			return c
		}
	}
	w.i = i
	return 0
}

// expect consumes the next non-space byte, which must be c.
func (w *wireBuf) expect(c byte) {
	if w.peek() != c {
		w.bad = true
	}
	w.i++
}

// next steps through the comma-separated members between open and close:
// it reports whether another member follows, consuming the opening byte on
// the first call (*started false) and the separator or the closing byte on
// later ones.
func (w *wireBuf) next(open, close byte, started *bool) bool {
	if w.bad {
		return false
	}
	if !*started {
		*started = true
		w.expect(open)
		if w.peek() != close {
			return !w.bad
		}
	} else if w.peek() == ',' {
		w.i++
		return true
	}
	w.expect(close)
	return false
}

// wireObject is the iteration state of one object: the names its members
// may have, whether its brace has been consumed, which names have been
// seen, and k, the index in names of the member the cursor is in.
type wireObject struct {
	names   []string
	started bool
	seen    uint
	k       int
}

// member advances to the object's next member, sets o.k and leaves the
// cursor on the value; false once the object has closed or the scan has
// failed. An unknown, differently-cased or repeated name fails the scan.
func (w *wireBuf) member(o *wireObject) bool {
	if !w.next('{', '}', &o.started) {
		return false
	}
	name := w.str()
	w.expect(':')
	for k, want := range o.names {
		if string(name) == want && o.seen&(1<<k) == 0 && !w.bad {
			o.seen |= 1 << k
			o.k = k
			return true
		}
	}
	w.bad = true
	return false
}

// str scans a string of plain bytes and returns them, aliasing the input.
func (w *wireBuf) str() []byte {
	if w.expect('"'); !w.bad {
		b, start := w.b, w.i
		for i := start; i < len(b); i++ {
			if c := b[i]; c == '"' {
				w.i = i + 1
				return b[start:i]
			} else if !wirePlain[c] {
				break
			}
		}
	}
	w.bad = true
	return nil
}

// skipStr steps over a string that may hold escapes (encoding/json
// writes '<' as one) without decoding it.
func (w *wireBuf) skipStr() {
	if w.expect('"'); !w.bad {
		b := w.b
		for i := w.i; i < len(b); i++ {
			if c := b[i]; c == '"' {
				w.i = i + 1
				return
			} else if c == '\\' {
				i++ // the escaped byte; a \u's hex digits are plain
			}
		}
	}
	w.bad = true
}

// accept consumes the next byte if it is a or b.
func (w *wireBuf) accept(a, b byte) bool {
	if w.i < len(w.b) && (w.b[w.i] == a || w.b[w.i] == b) {
		w.i++
		return true
	}
	return false
}

// digits consumes a run of decimal digits, which must not be empty.
func (w *wireBuf) digits() {
	b, i := w.b, w.i
	for i < len(b) && b[i]-'0' <= 9 {
		i++
	}
	w.bad = w.bad || i == w.i
	w.i = i
}

// num scans a JSON number literal,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns it.
func (w *wireBuf) num() []byte {
	w.peek()
	start := w.i
	w.accept('-', '-')
	if !w.accept('0', '0') {
		w.digits()
	}
	if w.accept('.', '.') {
		w.digits()
	}
	if w.accept('e', 'E') {
		w.accept('+', '-')
		w.digits()
	}
	if w.bad {
		return nil
	}
	return w.b[start:w.i]
}

// float hands the literal to the strconv.ParseFloat call encoding/json
// makes, so the value is bit-identical; out of range (1e400) fails.
func (w *wireBuf) float() float64 {
	f, err := strconv.ParseFloat(string(w.num()), 64)
	w.bad = w.bad || err != nil
	return f
}

// int fails on a fraction, an exponent or overflow, as encoding/json does.
func (w *wireBuf) int() int {
	n, err := strconv.Atoi(string(w.num()))
	w.bad = w.bad || err != nil
	return n
}

// end reports whether the scan succeeded and only whitespace is left.
func (w *wireBuf) end() bool { return w.peek() == 0 && w.i == len(w.b) && !w.bad }

func (w *wireBuf) raw(s string) { w.b = append(w.b, s...) }

// The put methods append lit — the punctuation and name in front of a
// value — and then the value.
func (w *wireBuf) putInt(lit string, n int) {
	w.b = strconv.AppendInt(append(w.b, lit...), int64(n), 10)
}

// putStr fails on any byte encoding/json would escape.
func (w *wireBuf) putStr(lit, s string) {
	for i := 0; i < len(s); i++ {
		w.bad = w.bad || !wirePlain[s[i]]
	}
	w.b = append(append(append(append(w.b, lit...), '"'), s...), '"')
}

// putFloat mirrors encoding/json's float64 format: shortest 'f', or 'e'
// with a two-digit exponent trimmed (e-09 -> e-9) outside [1e-6, 1e21);
// NaN and infinities fail.
func (w *wireBuf) putFloat(lit string, f float64) {
	w.bad = w.bad || math.IsNaN(f) || math.IsInf(f, 0)
	w.raw(lit)
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if n := len(w.b); format == 'e' && n >= 4 && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
		w.b[n-2] = w.b[n-1]
		w.b = w.b[:n-1]
	}
}

var observeKeys = []string{"concurrency", "unitConcurrency"}

func (v *ObserveRequest) scanWire(s *wireBuf) bool {
	var t ObserveRequest
	o := wireObject{names: observeKeys}
	for s.member(&o) {
		switch o.k {
		case 0:
			t.Concurrency = s.float()
		case 1:
			t.UnitConcurrency = s.int()
		}
	}
	if !s.end() {
		return false
	}
	*v = t
	return true
}

func (v *ObserveRequest) appendWire(e *wireBuf) {
	e.putFloat(`{"concurrency":`, v.Concurrency)
	if v.UnitConcurrency != 0 {
		e.putInt(`,"unitConcurrency":`, v.UnitConcurrency)
	}
	e.raw(`}`)
}

var targetKeys = []string{"app", "target", "forecaster", "historyLen"}

func (v *TargetResponse) scanWire(s *wireBuf) bool {
	var t TargetResponse
	o := wireObject{names: targetKeys}
	for s.member(&o) {
		switch o.k {
		case 0:
			t.App = string(s.str())
		case 1:
			t.Target = s.int()
		case 2:
			t.Forecaster = string(s.str())
		case 3:
			t.History = s.int()
		}
	}
	if !s.end() {
		return false
	}
	*v = t
	return true
}

func (v *TargetResponse) appendWire(e *wireBuf) {
	e.putStr(`{"app":`, v.App)
	e.putInt(`,"target":`, v.Target)
	e.putStr(`,"forecaster":`, v.Forecaster)
	e.putInt(`,"historyLen":`, v.History)
	e.raw(`}`)
}

var (
	batchRequestKeys = []string{"observations"}
	batchObsKeys     = []string{"app", "concurrency", "unitConcurrency"}
)

// itemHint sizes a batch's slice before its items are scanned: one brace
// per item in a canonical body, capped so a body of braces cannot demand
// more than the largest batch a shard accepts.
func (s *wireBuf) itemHint() int {
	return min(bytes.Count(s.b[s.i:], []byte{'{'}), maxBatchItems)
}

func (v *BatchObserveRequest) scanWire(s *wireBuf) bool {
	var t BatchObserveRequest
	o := wireObject{names: batchRequestKeys}
	for s.member(&o) {
		t.Observations = make([]BatchObservation, 0, s.itemHint())
		for started := false; s.next('[', ']', &started); {
			app, conc, unit := s.observation(true)
			t.Observations = append(t.Observations, BatchObservation{string(app), conc, unit})
		}
	}
	if !s.end() {
		return false
	}
	*v = t
	return true
}

// observation scans one batch item. Unless parse, its concurrency is only
// checked, and parsed just if it could overflow: a literal with no
// exponent and under 309 bytes is under 1e308.
func (s *wireBuf) observation(parse bool) (app []byte, conc float64, unit int) {
	item := wireObject{names: batchObsKeys}
	for s.member(&item) {
		switch item.k {
		case 0:
			app = s.str()
		case 1:
			lit := s.num()
			if parse || len(lit) > 308 || bytes.IndexByte(lit, 'e') >= 0 || bytes.IndexByte(lit, 'E') >= 0 {
				var err error
				conc, err = strconv.ParseFloat(string(lit), 64)
				s.bad = s.bad || err != nil
			}
		case 2:
			unit = s.int()
		}
	}
	return app, conc, unit
}

func (v *BatchObserveRequest) appendWire(e *wireBuf) {
	e.bad = e.bad || v.Observations == nil // encoding/json says null
	e.raw(`{"observations":[`)
	for i := range v.Observations {
		if i > 0 {
			e.raw(`,`)
		}
		v.Observations[i].appendWire(e)
	}
	e.raw(`]}`)
}

func (it *BatchObservation) appendWire(e *wireBuf) {
	e.putStr(`{"app":`, it.App)
	e.putFloat(`,"concurrency":`, it.Concurrency)
	if it.UnitConcurrency != 0 {
		e.putInt(`,"unitConcurrency":`, it.UnitConcurrency)
	}
	e.raw(`}`)
}

// putItem appends one batch item as json.Marshal would, handing that item
// alone to encoding/json if the appender declines it.
func (w *wireBuf) putItem(it interface{ appendWire(*wireBuf) }) {
	n := len(w.b)
	w.bad = false
	if it.appendWire(w); w.bad {
		b, _ := json.Marshal(it) // cannot fail: no NaN decodes, a result has no float
		w.b, w.bad = append(w.b[:n], b...), false
	}
}

// routedItem is a routed observation's span in the body and its shard.
type routedItem struct{ start, end, shard int }

// scanRouted is the router's pass over a canonical BatchObserveRequest:
// each item's span and the shard among n its app hashes to. It checks all
// that scanWire checks, so a shard takes every item it did, but builds
// no observation.
func (s *wireBuf) scanRouted(n int) ([]routedItem, bool) {
	var items []routedItem
	o := wireObject{names: batchRequestKeys}
	for s.member(&o) {
		items = make([]routedItem, 0, s.itemHint())
		for started := false; s.next('[', ']', &started); {
			s.peek()
			start := s.i
			app, _, _ := s.observation(false)
			items = append(items, routedItem{start, s.i, store.ShardOf(string(app), n)})
		}
	}
	return items, s.end()
}

var (
	batchResponseKeys = []string{"results", "accepted", "rejected"}
	batchResultKeys   = []string{"app", "target", "forecaster", "historyLen", "error", "status", "owner"}
)

func (v *BatchObserveResponse) scanWire(s *wireBuf) bool {
	var t BatchObserveResponse
	o := wireObject{names: batchResponseKeys}
	for s.member(&o) {
		switch o.k {
		case 0:
			forecaster := ""
			t.Results = make([]BatchItemResult, 0, s.itemHint())
			for started := false; s.next('[', ']', &started); {
				var it BatchItemResult
				item := wireObject{names: batchResultKeys}
				for s.member(&item) {
					switch item.k {
					case 0:
						it.App = string(s.str())
					case 1:
						it.Target = s.int()
					case 2:
						// A reply names the same few forecasters over and
						// over: copy a name out only when it changes.
						if name := s.str(); string(name) != forecaster {
							forecaster = string(name)
						}
						it.Forecaster = forecaster
					case 3:
						it.History = s.int()
					case 4:
						it.Error = string(s.str())
					case 5:
						it.Status = s.int()
					case 6:
						owner := s.int()
						it.Owner = &owner
					}
				}
				t.Results = append(t.Results, it)
			}
		case 1:
			t.Accepted = s.int()
		case 2:
			t.Rejected = s.int()
		}
	}
	if !s.end() {
		return false
	}
	*v = t
	return true
}

func (v *BatchObserveResponse) appendWire(e *wireBuf) {
	e.bad = e.bad || v.Results == nil // encoding/json says null
	e.raw(`{"results":[`)
	for i := range v.Results {
		if i > 0 {
			e.raw(`,`)
		}
		v.Results[i].appendWire(e)
	}
	e.putInt(`],"accepted":`, v.Accepted)
	e.putInt(`,"rejected":`, v.Rejected)
	e.raw(`}`)
}

func (it *BatchItemResult) appendWire(e *wireBuf) {
	e.putStr(`{"app":`, it.App)
	e.putInt(`,"target":`, it.Target)
	if it.Forecaster != "" {
		e.putStr(`,"forecaster":`, it.Forecaster)
	}
	if it.History != 0 {
		e.putInt(`,"historyLen":`, it.History)
	}
	if it.Error != "" {
		e.putStr(`,"error":`, it.Error)
	}
	if it.Status != 0 {
		e.putInt(`,"status":`, it.Status)
	}
	if it.Owner != nil {
		e.putInt(`,"owner":`, *it.Owner)
	}
	e.raw(`}`)
}

// scanReply is the router's pass over a shard's BatchObserveResponse: the
// span of each result object, and the counts. It skips strings instead of
// decoding them.
func (s *wireBuf) scanReply(r *subBatch) bool {
	o := wireObject{names: batchResponseKeys}
	for s.member(&o) {
		switch o.k {
		case 0:
			for started := false; s.next('[', ']', &started); {
				s.peek()
				start := s.i
				item := wireObject{names: batchResultKeys}
				for s.member(&item) {
					switch item.k {
					case 0, 2, 4:
						s.skipStr()
					default: // target, historyLen, status and owner pass through unread
						s.num()
					}
				}
				r.results = append(r.results, s.b[start:s.i])
			}
		case 1:
			r.accepted = s.int()
		case 2:
			r.rejected = s.int()
		}
	}
	return s.end()
}
