package store

import (
	"encoding/binary"
	"errors"
	"hash/maphash"
	"math"
	"unsafe"
)

// The cold table holds the store's cold apps (see Store). Each has a
// coldEntry: the page ref of its window, its durable total and its Memo,
// packed into 40 bytes that hold no Go pointer. The table has three
// parts:
//
//   - the entries, in pages of 4 KiB, so that a growing table copies none
//     and keeps at most one page of slack;
//   - the names, each copied once into an append-only arena of 4 KiB
//     chunks as uvarint length | bytes (a name too long for a chunk gets
//     one of its own), which an entry addresses as chunk<<arenaShift |
//     offset;
//   - an index of entry numbers, open-addressed, hashed with hash/maphash
//     and probed triangularly.
//
// Apps never leave a store, so the table only grows. A page-in marks the
// app's entry warm, which every reader then skips, and a page-out of an
// app that was cold before rewrites its entry in place, allocating
// nothing. A cold app costs its entry, its name and a slot or two of the
// index, and a collection scans none of them.
//
// A name's bytes never change once written, so the table hands out views
// of the arena, not copies (see name): a warm app that was cold is keyed
// by its arena name, and no name the table holds points into a caller's
// buffer.
type coldTable struct {
	pages []*[coldPageLen]coldEntry
	n     int // entries
	cold  int // entries not marked warm
	arena [][]byte
	index []uint32 // entry number + 1, or 0 for a free slot; a power of two long
	seed  maphash.Seed
}

// coldEntry is one app's row of the cold table: a coldApp, packed. seq
// holds a page file number in 32 bits, which writeOut never passes and
// the snapshot decoder clamps to; lenBits holds the ref's record length
// (at most maxRefLen, to which both saturate), the warm mark and the
// memo's Group.
type coldEntry struct {
	off     int64
	total   int64
	seq     uint32
	count   uint32
	memoLen uint32
	memoGen uint32
	name    uint32 // arena address
	lenBits uint32
}

const (
	coldPageLen = 4096 / int(unsafe.Sizeof(coldEntry{}))

	refLenBits     = 21 // holds maxRefLen
	entryWarm      = 1 << refLenBits
	memoGroupShift = 24

	arenaShift     = 12
	arenaChunk     = 1 << arenaShift
	maxArenaChunks = 1 << (32 - arenaShift)
)

// maxRefLen is what a ref's record length saturates at: one past any
// frame's, which the page read refuses.
const maxRefLen = maxRecordLen + recordHeaderLen + 1

var errColdFull = errors.New("store: cold table full")

func (e *coldEntry) warm() bool { return e.lenBits&entryWarm != 0 }

func (e *coldEntry) ref() pageRef {
	return pageRef{seq: uint64(e.seq), off: e.off, recLen: int32(e.lenBits & (entryWarm - 1)), count: e.count}
}

// setRef points e at r, a ref that writeOut or the snapshot decoder made.
func (e *coldEntry) setRef(r pageRef) {
	e.seq, e.off, e.count = uint32(r.seq), r.off, r.count
	e.lenBits = e.lenBits&^(entryWarm-1) | uint32(r.recLen)
}

func (e *coldEntry) memo() Memo {
	return Memo{Len: e.memoLen, Gen: e.memoGen, Group: uint8(e.lenBits >> memoGroupShift)}
}

func (e *coldEntry) setMemo(m Memo) {
	e.memoLen, e.memoGen = m.Len, m.Gen
	e.lenBits = e.lenBits&^(0xFF<<memoGroupShift) | uint32(m.Group)<<memoGroupShift
}

// appendSnapshot frames a cold app for a v5 snapshot: its page stub.
func (e *coldEntry) appendSnapshot(buf []byte, app string) []byte {
	c := coldApp{ref: e.ref(), total: e.total}
	return c.appendSnapshot(buf, app)
}

// len reports how many apps are cold.
func (t *coldTable) len() int { return t.cold }

func (t *coldTable) entry(i int) *coldEntry { return &t.pages[i/coldPageLen][i%coldPageLen] }

// name returns e's app name: a view of the arena, which never changes.
func (t *coldTable) name(e *coldEntry) string {
	b := t.arena[e.name>>arenaShift][e.name&(arenaChunk-1):]
	n, k := binary.Uvarint(b)
	b = b[k : k+int(n)]
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// find returns the entry of name, or nil and the index slot name would
// take.
func (t *coldTable) find(name string) (*coldEntry, int) {
	if len(t.index) == 0 {
		return nil, 0
	}
	mask := len(t.index) - 1
	i := int(maphash.String(t.seed, name) & uint64(mask))
	for step := 1; ; step++ {
		v := t.index[i]
		if v == 0 {
			return nil, i
		}
		if e := t.entry(int(v - 1)); t.name(e) == name {
			return e, i
		}
		i = (i + step) & mask
	}
}

// get returns app's entry if app is cold, or nil.
func (t *coldTable) get(app string) *coldEntry {
	if e, _ := t.find(app); e != nil && !e.warm() {
		return e
	}
	return nil
}

// add makes app cold with c's ref, total and memo. An app the table has
// seen (a warm app that was cold, or one a snapshot names twice) has its
// entry rewritten in place; only a new one can fail, on errColdFull.
func (t *coldTable) add(app string, c coldApp) error {
	e, slot := t.find(app)
	if e == nil {
		if uint64(t.n) >= math.MaxUint32 { // the index holds t.n+1
			return errColdFull
		}
		if 4*(t.n+1) > 3*len(t.index) {
			t.grow()
			_, slot = t.find(app)
		}
		addr, err := t.addName(app)
		if err != nil {
			return err
		}
		if t.n%coldPageLen == 0 {
			t.pages = append(t.pages, new([coldPageLen]coldEntry))
		}
		e = t.entry(t.n)
		t.n++
		t.index[slot] = uint32(t.n)
		e.name, e.lenBits = addr, entryWarm // counted cold below
	}
	if e.warm() {
		t.cold++
	}
	e.lenBits &^= entryWarm
	e.setRef(c.ref)
	e.setMemo(c.memo)
	e.total = c.total
	return nil
}

// markWarm records that e's app was paged in.
func (t *coldTable) markWarm(e *coldEntry) {
	e.lenBits |= entryWarm
	t.cold--
}

// each calls fn on every cold app, in the order the apps first went
// cold, until fn fails.
func (t *coldTable) each(fn func(app string, e *coldEntry) error) error {
	for i := 0; i < t.n; i++ {
		if e := t.entry(i); !e.warm() {
			if err := fn(t.name(e), e); err != nil {
				return err
			}
		}
	}
	return nil
}

// grow doubles the index and places every entry in it again.
func (t *coldTable) grow() {
	if t.index == nil {
		t.seed = maphash.MakeSeed()
	}
	t.index = make([]uint32, max(2*len(t.index), 16))
	mask := len(t.index) - 1
	for n := 1; n <= t.n; n++ {
		i := int(maphash.String(t.seed, t.name(t.entry(n-1))) & uint64(mask))
		for step := 1; t.index[i] != 0; step++ {
			i = (i + step) & mask
		}
		t.index[i] = uint32(n)
	}
}

// addName copies name into the arena and returns its address.
func (t *coldTable) addName(name string) (uint32, error) {
	var hdr [binary.MaxVarintLen64]byte
	h := binary.PutUvarint(hdr[:], uint64(len(name)))
	var c []byte
	if k := len(t.arena); k > 0 {
		c = t.arena[k-1]
	}
	if need := h + len(name); cap(c)-len(c) < need {
		if len(t.arena) == maxArenaChunks {
			return 0, errColdFull
		}
		c = make([]byte, 0, max(arenaChunk, need))
		t.arena = append(t.arena, c)
	}
	k := len(t.arena) - 1
	addr := uint32(k)<<arenaShift | uint32(len(c))
	t.arena[k] = append(append(c, hdr[:h]...), name...)
	return addr, nil
}
