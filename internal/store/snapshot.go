package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
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
// read raw chunks does not take them for deltas. v1 snapshots (raw
// float64 windows, from before tiering) are still loadable, so any older
// data directory opens cleanly; the v1 record format also remains the
// replication wire format (ExportState/ImportState, and the
// ctrlAppImport records old WALs hold), so paging never leaks into what
// peers see.
//
// A snapshot is written to a temp file, fsynced, and renamed into
// place, so a crash mid-compaction leaves either the old or the new
// snapshot — never a half-written one. A snapshot that is torn, fails its
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
)

// errSnapshotFormat marks a snapshot written in a format this build
// cannot read: Open fails on it instead of falling back.
var errSnapshotFormat = errors.New("store: snapshot format unknown to this build")

// appState is one application's durable state: the sliding observation
// window — a compact window always ("warm"), or paged to disk behind a
// stub ("cold") — plus the lifetime count (windows may be capped; total
// is not).
type appState struct {
	cw    CompactWindow
	page  *pageRef // non-nil => cw is empty and the window lives on disk
	total int64
	// touched is the CLOCK reference bit for the inline-budget sweep
	// (in-memory only, never serialized): set on every apply/restore,
	// cleared by a sweep pass before the app becomes a page-out victim.
	touched bool
	// The caller's Memo, in memory only like touched, flattened into the
	// padding after it so the record stays in its 96-byte size class.
	memoGroup uint8
	memoGen   uint16
	memoLen   uint32
}

// Memo is what the serving layer keeps beside a demoted window so a
// restore need not reclassify it: the cluster Group of the window's last
// completed block, at window length Len, under the caller's generation
// Gen (0 = none). The store only carries it, in memory and in no file or
// wire record: replacing an app's state (ImportState, or replaying an old
// import or tombstone record) or restarting drops it; appends keep it,
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

// encodeWireApp frames one app's state in the v1 record format — raw
// float64 window — still used on the replication wire.
func encodeWireApp(buf []byte, app string, window []float64, total int64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(app)))
	buf = append(buf, app...)
	buf = binary.AppendUvarint(buf, uint64(total))
	buf = binary.AppendUvarint(buf, uint64(len(window)))
	for _, v := range window {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// decodeWireApp parses a v1 record payload. Every read is
// bounds-checked: a corrupt record errors out instead of over-reading.
func decodeWireApp(p []byte) (app string, window []float64, total int64, err error) {
	app, p, utotal, err := decodeAppHeader(p, "snapshot")
	if err != nil {
		return "", nil, 0, err
	}
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return "", nil, 0, fmt.Errorf("store: snapshot record: bad window length")
	}
	p = p[n:]
	if count*8 != uint64(len(p)) {
		return "", nil, 0, fmt.Errorf("store: snapshot record: window %d values, %d bytes", count, len(p))
	}
	window = make([]float64, count)
	for i := range window {
		window[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[i*8:]))
	}
	return app, window, int64(utotal), nil
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
	cw, _, err := decodeCompactWindow(p, cwWindow)
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

// writeSnapshot persists apps atomically as snap-<seq>.snap (v3).
func writeSnapshot(dir string, seq uint64, apps map[string]*appState) error {
	tmp, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename

	var buf []byte
	buf = appendRecord(buf, []byte(snapMagicV3))
	for app, st := range apps {
		start := len(buf)
		buf = sealRecord(encodeSnapshotApp(reserveHeader(buf), app, st), start)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, snapName(seq))); err != nil {
		return err
	}
	fsyncDir(dir)
	return nil
}

// loadSnapshot reads snap-<seq>.snap in any format. Any framing, CRC,
// magic, or decode failure returns an error; callers fall back to an
// older snapshot, except on errSnapshotFormat.
func loadSnapshot(dir string, seq uint64) (map[string]*appState, error) {
	f, err := os.Open(filepath.Join(dir, snapName(seq)))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	apps := map[string]*appState{}
	first, compact := true, false
	n, err := readRecords(f, func(payload []byte) error {
		if first {
			first = false
			switch magic := string(payload); {
			case magic == snapMagicV3 || magic == snapMagicV2:
				compact = true
			case magic == snapMagic:
			case strings.HasPrefix(magic, snapMagicPrefix):
				return fmt.Errorf("%w: snapshot %d has magic %q", errSnapshotFormat, seq, magic)
			default:
				return fmt.Errorf("store: snapshot %d: bad magic", seq)
			}
			return nil
		}
		if compact {
			app, st, err := decodeSnapshotApp(payload)
			if err != nil {
				return err
			}
			apps[app] = st
			return nil
		}
		app, window, total, err := decodeWireApp(payload)
		if err != nil {
			return err
		}
		apps[app] = &appState{cw: compactWindowOf(window), total: total}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("store: snapshot %d: empty file", seq)
	}
	return apps, nil
}
