package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// Snapshots compact the WAL: snap-<seq>.snap holds every app's state
// (and lifetime observation count) as of the moment segments <= seq
// were sealed. The file reuses the WAL's CRC-framed record format.
//
// v5 (written now) keeps apps in their in-memory shape:
//
//	record 0   magic "femux-snap-v5"
//	record i   tag 0x00 | uvarint len(app) | app | uvarint total | compact window
//	           tag 0x01 | uvarint len(app) | app | uvarint total |
//	                      uvarint pageSeq | uvarint off | uvarint recLen | uvarint count
//
// Tag 0x00 is an inline (warm) app with its compact window; tag 0x01 is
// a cold app's stub pointing into a page file. A build reads its own
// format and the one before it. v4 has the same records, but its windows
// never hold a packed chunk (see CompactWindow): an inline v4 window is
// re-encoded as it loads, so that its full chunks pack as Append's do,
// and a page record is read as it was written. The magic changes with each
// chunk kind, so that a build which cannot read one does not take it for
// another; a page record is reachable only through a snapshot's stub, so
// that gate covers page files too. Any other femux-snap- magic fails Open
// with errUpgrade.
//
// A snapshot is written to snap-<seq>.snap.tmp, fsynced, and renamed
// into place, so a crash mid-compaction leaves either the old or the new
// snapshot — never a half-written one — and perhaps a temp file, which
// the next Open removes. A snapshot that is torn, fails its CRC or
// carries a foreign magic is skipped and the previous one is used
// instead.
const (
	snapMagicV4     = "femux-snap-v4"
	snapMagicV5     = "femux-snap-v5"
	snapMagicPrefix = "femux-snap-"

	snapTagInline = 0x00
	snapTagPaged  = 0x01

	snapTempSuffix = ".tmp"
)

// appState is one warm application's durable state: its sliding
// observation window as a compact window, plus the lifetime count, which
// a lost page or a window written under an older per-app cap does not
// shorten. A cold app has a coldApp instead (see Store).
type appState struct {
	cw    CompactWindow
	total int64
	// The caller's Memo and the inline budget's CLOCK fields, in memory
	// only, flattened into the 16 bytes after total so the record stays
	// in its 96-byte size class.
	memoLen   uint32
	memoGen   uint32
	clock     uint32 // index of the app's entry in Store.clock, while a budget is set
	memoGroup uint8
	touched   bool // used since the CLOCK's hand last passed: second chance
}

func (st *appState) memo() Memo { return Memo{st.memoLen, st.memoGen, st.memoGroup} }

func (st *appState) setMemo(m Memo) { st.memoLen, st.memoGen, st.memoGroup = m.Len, m.Gen, m.Group }

// coldApp is a cold application: the stub of its window, paged to disk,
// with the durable total and the Memo kept beside it. One allocation of
// 48 bytes.
type coldApp struct {
	ref   pageRef
	total int64
	memo  Memo
}

// Memo is what the serving layer keeps beside a demoted window so a
// restore need not reclassify it: the cluster Group of the window's last
// completed block, at window length Len, under the caller's generation
// Gen (0 = none). The store only carries it, in memory and in no file:
// appends keep it, and the caller tells by Len; a restart drops it.
type Memo struct {
	Len   uint32
	Gen   uint32
	Group uint8
}

// decodeAppHeader parses the shared "len(app) | app | total" prefix.
func decodeAppHeader(p []byte, what string) (app string, rest []byte, total uint64, err error) {
	nameLen, n := binary.Uvarint(p)
	if n <= 0 || nameLen > uint64(len(p)-n) {
		return "", nil, 0, fmt.Errorf("store: %s record: bad app length", what)
	}
	p = p[n:]
	app = string(p[:nameLen])
	p = p[nameLen:]
	total, n = binary.Uvarint(p)
	if n <= 0 {
		return "", nil, 0, fmt.Errorf("store: %s record: bad total", what)
	}
	return app, p[n:], total, nil
}

// encodeWireAppCompact frames one inline app's state in the compact
// form shared by inline snapshot records and page records.
func encodeWireAppCompact(buf []byte, app string, st *appState) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(app)))
	buf = append(buf, app...)
	buf = binary.AppendUvarint(buf, uint64(st.total))
	return st.cw.appendEncoded(buf)
}

// decodeWireAppCompact parses an encodeWireAppCompact payload. The
// returned window aliases p (see decodeCompactWindow).
func decodeWireAppCompact(p []byte) (app string, st *appState, err error) {
	app, p, total, err := decodeAppHeader(p, "page")
	if err != nil {
		return "", nil, err
	}
	cw, _, err := decodeCompactWindow(p, cwWindow)
	if err != nil {
		return "", nil, err
	}
	return app, &appState{cw: cw, total: int64(total)}, nil
}

// A snapRecord is a record a v5 snapshot holds: a warm app's compact
// window or a cold app's stub.
type snapRecord interface {
	appendSnapshot(buf []byte, app string) []byte
}

// appendSnapshot frames a warm app for a v5 snapshot: its compact window.
func (st *appState) appendSnapshot(buf []byte, app string) []byte {
	return encodeWireAppCompact(append(buf, snapTagInline), app, st)
}

// appendSnapshot frames a cold app for a v5 snapshot: just its page stub.
func (c *coldApp) appendSnapshot(buf []byte, app string) []byte {
	buf = append(buf, snapTagPaged)
	buf = binary.AppendUvarint(buf, uint64(len(app)))
	buf = append(buf, app...)
	buf = binary.AppendUvarint(buf, uint64(c.total))
	buf = binary.AppendUvarint(buf, c.ref.seq)
	buf = binary.AppendUvarint(buf, uint64(c.ref.off))
	buf = binary.AppendUvarint(buf, uint64(c.ref.recLen))
	return binary.AppendUvarint(buf, uint64(c.ref.count))
}

// decodeSnapshotApp parses a v4 or v5 snapshot record: a warm app's state
// (*appState) or a cold app's stub (*coldApp), whichever the tag says.
func decodeSnapshotApp(p []byte) (app string, rec snapRecord, err error) {
	if len(p) == 0 {
		return "", nil, fmt.Errorf("store: snapshot record: empty")
	}
	tag := p[0]
	p = p[1:]
	switch tag {
	case snapTagInline:
		app, st, err := decodeWireAppCompact(p)
		return app, st, err
	case snapTagPaged:
		app, p, total, err := decodeAppHeader(p, "snapshot")
		if err != nil {
			return "", nil, err
		}
		var vals [4]uint64
		for i := range vals {
			v, n := binary.Uvarint(p)
			if n <= 0 {
				return "", nil, fmt.Errorf("store: snapshot record: bad page stub")
			}
			vals[i], p = v, p[n:]
		}
		if len(p) != 0 {
			return "", nil, fmt.Errorf("store: snapshot record: %d trailing bytes", len(p))
		}
		// A length past any record's reads as one, which the page read
		// refuses; no window holds more values than a uint32 counts.
		return app, &coldApp{
			total: int64(total),
			ref: pageRef{
				seq:    vals[0],
				off:    int64(vals[1]),
				recLen: int32(min(vals[2], maxRecordLen+recordHeaderLen+1)),
				count:  uint32(min(vals[3], math.MaxUint32)),
			},
		}, nil
	default:
		return "", nil, fmt.Errorf("store: snapshot record: unknown tag %#x", tag)
	}
}

// appendSnapshotRecord frames one app's snapshot record onto buf.
func appendSnapshotRecord(buf []byte, app string, rec snapRecord) []byte {
	start := len(buf)
	return sealRecord(rec.appendSnapshot(reserveHeader(buf), app), start)
}

// writeFiles writes one file, name, onto each of devs, framed as a
// snapshot is: a magic record, then the records fill hands to add with the
// index of their device. Compaction writes one v5 snapshot through it,
// Split one per destination, and SaveModel the model file. Each goes to a
// temp file and is fsynced, closed and renamed into place, then its
// directory is fsynced, so a crash leaves the old file or the new one,
// never half of one. On any error nothing is left behind: every temp
// file, and every file already renamed into place, is removed.
func writeFiles(devs []device, name, magic string, fill func(add func(i int, app string, rec snapRecord) error) error) (err error) {
	tmp := name + snapTempSuffix
	files := make([]file, len(devs))
	bufs := make([]*bufio.Writer, len(devs))
	renamed := 0 // devs[:renamed] hold the new file under name
	defer func() {
		for i, f := range files {
			if f != nil { // not renamed into place
				f.Close()
				devs[i].remove(tmp)
			}
			if err != nil && i < renamed {
				devs[i].remove(name)
			}
		}
	}()
	for i, dev := range devs {
		if files[i], err = dev.create(tmp); err != nil {
			return err
		}
		bufs[i] = bufio.NewWriterSize(files[i], 1<<20)
		bufs[i].Write(appendRecord(nil, []byte(magic))) // into an empty buffer: cannot fail
	}
	if err := fill(func(i int, app string, rec snapRecord) error {
		_, err := bufs[i].Write(appendSnapshotRecord(bufs[i].AvailableBuffer(), app, rec))
		return err
	}); err != nil {
		return err
	}
	for i, f := range files {
		err := bufs[i].Flush()
		if err == nil {
			err = f.Sync()
		}
		if err == nil {
			err = f.Close()
		}
		if err == nil {
			err = devs[i].rename(tmp, name)
		}
		if err == nil {
			files[i], renamed = nil, i+1
			err = devs[i].syncDir()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeSnapshot persists a store's warm and cold apps as snap-<seq>.snap
// on dev.
func writeSnapshot(dev device, seq uint64, warm map[string]*appState, cold map[string]*coldApp) error {
	return writeFiles([]device{dev}, snapName(seq), snapMagicV5, func(add func(int, string, snapRecord) error) error {
		for app, st := range warm {
			if err := add(0, app, st); err != nil {
				return err
			}
		}
		for app, c := range cold {
			if err := add(0, app, c); err != nil {
				return err
			}
		}
		return nil
	})
}

// readSnapshot decodes a snapshot file into its warm apps and its cold
// apps' stubs, each app in one of the two. Its first record's magic is the
// one version gate: v5 records decode as they are, v4 ones too but with
// their inline windows re-encoded, and any other femux-snap- magic is
// errUpgrade. Any framing, CRC, magic or decode failure is an error.
func readSnapshot(r io.Reader) (warm map[string]*appState, cold map[string]*coldApp, err error) {
	warm, cold = map[string]*appState{}, map[string]*coldApp{}
	var decode func(p []byte) (string, snapRecord, error)
	n, err := readRecords(r, true, func(payload []byte) error {
		if decode == nil {
			switch magic := string(payload); {
			case magic == snapMagicV5:
				decode = decodeSnapshotApp
			case magic == snapMagicV4:
				decode = func(p []byte) (string, snapRecord, error) {
					app, rec, err := decodeSnapshotApp(p)
					if st, ok := rec.(*appState); ok {
						st.cw.repack()
					}
					return app, rec, err
				}
			case strings.HasPrefix(magic, snapMagicPrefix):
				return fmt.Errorf("format %q: %w", magic, errUpgrade)
			default:
				return errors.New("bad magic")
			}
			return nil
		}
		app, rec, err := decode(payload)
		if err != nil {
			return err
		}
		// A later record of an app replaces an earlier one, in either map.
		switch r := rec.(type) {
		case *appState:
			delete(cold, app)
			warm[app] = r
		case *coldApp:
			delete(warm, app)
			cold[app] = r
		}
		return nil
	})
	if err == nil && n == 0 {
		err = errors.New("empty stream")
	}
	if err != nil {
		return nil, nil, err
	}
	return warm, cold, nil
}

// loadSnapshot reads snap-<seq>.snap. On an error callers fall back to an
// older snapshot, except on errUpgrade.
func loadSnapshot(dev device, seq uint64) (map[string]*appState, map[string]*coldApp, error) {
	f, err := dev.open(snapName(seq))
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	warm, cold, err := readSnapshot(io.NewSectionReader(f, 0, math.MaxInt64))
	if err != nil {
		return nil, nil, fmt.Errorf("store: snapshot %d: %w", seq, err)
	}
	return warm, cold, nil
}
