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
// v3 (written now) keeps apps in their in-memory shape:
//
//	record 0   magic "femux-snap-v3"
//	record i   tag 0x00 | uvarint len(app) | app | uvarint total | compact window
//	           tag 0x01 | uvarint len(app) | app | uvarint total |
//	                      uvarint pageSeq | uvarint off | uvarint recLen | uvarint count
//
// Tag 0x00 is an inline (warm) app with its compact window; tag 0x01 is
// a cold app's stub pointing into a page file. v2 has the same records,
// but its windows never hold a raw chunk (see CompactWindow), so v2 and
// v3 share one decoder; the magic changed so that a build which cannot
// read raw chunks does not take them for deltas. v1 (raw float64
// windows, from before tiering) is still read, so any older data
// directory opens cleanly, and so do the ctrlAppImport records old WALs
// hold.
//
// A snapshot is written to snap-<seq>.snap.tmp, fsynced, and renamed
// into place, so a crash mid-compaction leaves either the old or the new
// snapshot — never a half-written one — and perhaps a temp file, which
// the next Open removes. A snapshot that is torn, fails its
// CRC or carries a foreign magic is skipped and the previous one is used
// instead; one whose intact magic names a femux-snap format this build
// does not know fails Open, because falling back would start the store
// without that snapshot's data.
const (
	snapMagic       = "femux-snap-v1"
	snapMagicV2     = "femux-snap-v2"
	snapMagicV3     = "femux-snap-v3"
	snapMagicPrefix = "femux-snap-"

	snapTagInline = 0x00
	snapTagPaged  = 0x01

	snapTempSuffix = ".tmp"
)

// errSnapshotFormat marks a snapshot written in a format this build
// cannot read: Open fails on it instead of falling back.
var errSnapshotFormat = errors.New("store: snapshot format unknown to this build")

// appState is one application's durable state: the sliding observation
// window — a compact window always ("warm"), or paged to disk behind a
// stub ("cold") — plus the lifetime count, which a lost page or a window
// written under an older per-app cap does not shorten.
type appState struct {
	cw    CompactWindow
	page  *pageRef // non-nil => cw is empty and the window lives on disk
	total int64
	flags uint8 // the inline budget's CLOCK bits, in memory only
	// The caller's Memo, in memory only like flags, flattened into the
	// padding after them so the record stays in its 96-byte size class.
	memoGroup uint8
	memoGen   uint16
	memoLen   uint32
}

// Memo is what the serving layer keeps beside a demoted window so a
// restore need not reclassify it: the cluster Group of the window's last
// completed block, at window length Len, under the caller's generation
// Gen (0 = none). The store only carries it, in memory and in no file or
// wire record: replacing an app's state (replaying an old import or
// tombstone record) or restarting drops it; appends keep it,
// and the caller tells by Len.
type Memo struct {
	Len   uint32
	Gen   uint16
	Group uint8
}

// windowLen reports the stored window length without materializing it.
func (st *appState) windowLen() int {
	if st.page != nil {
		return st.page.count
	}
	return st.cw.Len()
}

// decodeWireApp parses a v1 record payload — a raw float64 window — into
// a compact window. Every read is bounds-checked: a corrupt record errors
// out instead of over-reading.
func decodeWireApp(p []byte) (app string, st *appState, err error) {
	app, p, total, err := decodeAppHeader(p, "snapshot")
	if err != nil {
		return "", nil, err
	}
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return "", nil, fmt.Errorf("store: snapshot record: bad window length")
	}
	p = p[n:]
	if len(p)%8 != 0 || count != uint64(len(p)/8) {
		return "", nil, fmt.Errorf("store: snapshot record: window %d values, %d bytes", count, len(p))
	}
	st = &appState{total: int64(total)}
	for i := 0; i < len(p); i += 8 {
		st.cw.Append(math.Float64frombits(binary.LittleEndian.Uint64(p[i:])))
	}
	return app, st, nil
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
// form shared by v2 inline snapshot records and page records.
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
	cw, _, err := decodeCompactWindow(p, cwWindow, nil)
	if err != nil {
		return "", nil, err
	}
	return app, &appState{cw: cw, total: int64(total)}, nil
}

// encodeSnapshotApp frames one app for a v3 snapshot: inline apps carry
// their compact window, cold apps just their page stub.
func encodeSnapshotApp(buf []byte, app string, st *appState) []byte {
	if st.page == nil {
		buf = append(buf, snapTagInline)
		return encodeWireAppCompact(buf, app, st)
	}
	buf = append(buf, snapTagPaged)
	buf = binary.AppendUvarint(buf, uint64(len(app)))
	buf = append(buf, app...)
	buf = binary.AppendUvarint(buf, uint64(st.total))
	buf = binary.AppendUvarint(buf, st.page.seq)
	buf = binary.AppendUvarint(buf, uint64(st.page.off))
	buf = binary.AppendUvarint(buf, uint64(st.page.recLen))
	return binary.AppendUvarint(buf, uint64(st.page.count))
}

// decodeSnapshotApp parses a v2 or v3 snapshot record.
func decodeSnapshotApp(p []byte) (app string, st *appState, err error) {
	if len(p) == 0 {
		return "", nil, fmt.Errorf("store: snapshot record: empty")
	}
	tag := p[0]
	p = p[1:]
	switch tag {
	case snapTagInline:
		return decodeWireAppCompact(p)
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
		return app, &appState{
			total: int64(total),
			page:  &pageRef{seq: vals[0], off: int64(vals[1]), recLen: int64(vals[2]), count: int(vals[3])},
		}, nil
	default:
		return "", nil, fmt.Errorf("store: snapshot record: unknown tag %#x", tag)
	}
}

// appendSnapshotRecord frames one app's snapshot record onto buf.
func appendSnapshotRecord(buf []byte, app string, st *appState) []byte {
	start := len(buf)
	return sealRecord(encodeSnapshotApp(reserveHeader(buf), app, st), start)
}

// writeSnapshots writes one v3 snapshot, snap-<seq>.snap, onto each of
// devs: fill hands every record to add with the index of its device.
// Compaction writes one snapshot through it, Split one per destination.
// Each goes to a temp file and is fsynced, closed and renamed into place,
// then its directory is fsynced, so a crash leaves the old snapshot or the
// new one, never half of one. On any error nothing is left behind: every
// temp file, and every snapshot already renamed, is removed.
func writeSnapshots(devs []device, seq uint64, fill func(add func(i int, app string, st *appState) error) error) (err error) {
	name := snapName(seq)
	tmp := name + snapTempSuffix
	files := make([]file, len(devs))
	bufs := make([]*bufio.Writer, len(devs))
	defer func() {
		for i, f := range files {
			if f != nil { // not renamed into place
				f.Close()
				devs[i].remove(tmp)
			}
			if err != nil {
				devs[i].remove(name)
			}
		}
	}()
	for i, dev := range devs {
		if files[i], err = dev.create(tmp); err != nil {
			return err
		}
		bufs[i] = bufio.NewWriterSize(files[i], 1<<20)
		bufs[i].Write(appendRecord(nil, []byte(snapMagicV3))) // into an empty buffer: cannot fail
	}
	if err := fill(func(i int, app string, st *appState) error {
		_, err := bufs[i].Write(appendSnapshotRecord(bufs[i].AvailableBuffer(), app, st))
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
			files[i] = nil
			err = devs[i].syncDir()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeSnapshot persists apps as snap-<seq>.snap on dev.
func writeSnapshot(dev device, seq uint64, apps map[string]*appState) error {
	return writeSnapshots([]device{dev}, seq, func(add func(int, string, *appState) error) error {
		for app, st := range apps {
			if err := add(0, app, st); err != nil {
				return err
			}
		}
		return nil
	})
}

// readSnapshot decodes a snapshot file. Its first record's magic is the one version gate:
// v3 and v2 records decode as they are, v1 raw windows are compressed on
// the way in, and an intact femux-snap- magic this build does not know is
// errSnapshotFormat. Any framing, CRC, magic or decode failure is an
// error.
func readSnapshot(r io.Reader) (map[string]*appState, error) {
	apps := map[string]*appState{}
	var decode func(p []byte) (string, *appState, error)
	n, err := readRecords(r, func(payload []byte) error {
		if decode == nil {
			switch magic := string(payload); {
			case magic == snapMagicV3 || magic == snapMagicV2:
				decode = decodeSnapshotApp
			case magic == snapMagic:
				decode = decodeWireApp
			case strings.HasPrefix(magic, snapMagicPrefix):
				return fmt.Errorf("%w: magic %q", errSnapshotFormat, magic)
			default:
				return errors.New("bad magic")
			}
			return nil
		}
		app, st, err := decode(payload)
		if err != nil {
			return err
		}
		apps[app] = st
		return nil
	})
	if err == nil && n == 0 {
		err = errors.New("empty stream")
	}
	if err != nil {
		return nil, err
	}
	return apps, nil
}

// loadSnapshot reads snap-<seq>.snap in any format. On an error callers
// fall back to an older snapshot, except on errSnapshotFormat.
func loadSnapshot(dev device, seq uint64) (map[string]*appState, error) {
	f, err := dev.open(snapName(seq))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	apps, err := readSnapshot(io.NewSectionReader(f, 0, math.MaxInt64))
	if err != nil {
		return nil, fmt.Errorf("store: snapshot %d: %w", seq, err)
	}
	return apps, nil
}
