package store

import (
	"encoding/binary"
	"errors"
	"maps"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The writers of what older builds wrote and this one refuses, frozen as
// they were when each was removed: the v1 snapshot record, and the WAL
// control records of WAL replication and live resharding.

// encodeWireApp frames one app's state in the v1 record format — raw
// float64 window — as it was when the follower bootstrap moved to v3
// records. It wrote v1 snapshots, v1 bootstrap bodies and the body of an
// app-import record.
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

// The control record types: ctrlPrefix, one of these, then the body.
const (
	ctrlReplBatch = 0x01 // uvarint seq | uvarint off | framed records
	ctrlAppImport = 0x02 // a v1 snapshot app record, which replaced the app
	ctrlTombstone = 0x03 // uvarint len(app) | app, which dropped the app
)

func encodeAppImport(app string, window []float64, total int64) []byte {
	buf := append([]byte(nil), ctrlPrefix...)
	buf = append(buf, ctrlAppImport)
	return encodeWireApp(buf, app, window, total)
}

func encodeTombstone(app string) []byte {
	buf := append([]byte(nil), ctrlPrefix...)
	buf = append(buf, ctrlTombstone)
	buf = binary.AppendUvarint(buf, uint64(len(app)))
	return append(buf, app...)
}

// encodeReplBatch is a follower's replication-batch record: the
// primary's WAL position after frames (segment, offset), then frames, the
// primary's records as they were framed in its WAL. A follower that
// bootstrapped from a snapshot wrote one with no frames, its cursor.
func encodeReplBatch(seq, off uint64, frames []byte) []byte {
	buf := append([]byte(nil), ctrlPrefix...)
	buf = append(buf, ctrlReplBatch)
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendUvarint(buf, off)
	return append(buf, frames...)
}

// followerDepth is how deep a chain of followers nested batches: the
// replay of the last build that read them refused deeper ones.
const followerDepth = 4

// nestReplBatch wraps frames in levels replication batches, as a chain
// of followers, each tailing the one before, wrote them.
func nestReplBatch(levels int, off uint64, frames []byte) []byte {
	p := encodeReplBatch(1, off, frames)
	for l := 1; l < levels; l++ {
		p = encodeReplBatch(1, off, appendRecord(nil, p))
	}
	return p
}

// appendRaw durably appends one record and applies nothing.
func (s *Store) appendRaw(payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.appendBatch([][]byte{payload}, s.opt.Sync == SyncAlways)
}

// dirFiles reads every file in dir.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	for _, name := range listDir(t, dir) {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = string(data)
	}
	return files
}

// TestOldDirectoriesRefused: a data directory only an older build reads —
// a v1, v2 or v3 snapshot, or a WAL holding a control record of any kind,
// alone or behind the observations of a v5 directory — fails Open with
// errUpgrade, which names the upgrade path, and not as a torn tail. Every
// file of the directory is byte for byte as it was, and no file is added
// or removed: not even the page file an inline budget made Open write
// while it replayed the observations in front of the record.
func TestOldDirectoriesRefused(t *testing.T) {
	opt := Options{Sync: SyncNever, CompactEvery: -1, InlineBudget: 2}
	snapshot := func(magic string, encode func([]float64) CompactWindow) func(*testing.T, string) {
		return func(t *testing.T, dir string) { layOldDirectory(t, dir, magic, encode) }
	}
	v1 := func(t *testing.T, dir string) {
		buf := appendRecord(nil, []byte("femux-snap-v1"))
		buf = appendRecord(buf, encodeWireApp(nil, "alpha", []float64{1, 2.5, 0, math.Inf(1), -0.125}, 5))
		buf = appendRecord(buf, encodeWireApp(nil, "beta", []float64{0, 0, 0, 42}, 4))
		if err := os.WriteFile(filepath.Join(dir, snapName(3)), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// alone writes a WAL whose one record is payload.
	alone := func(payload []byte) func(*testing.T, string) {
		return func(t *testing.T, dir string) {
			s := mustOpen(t, dir, opt)
			if err := s.appendRaw(payload); err != nil {
				t.Fatal(err)
			}
			s.Close()
		}
	}
	// behind writes a v5 snapshot of a fleet mostly paged out, then a WAL
	// tail that touches every app of it, a tombstone, and more
	// observations.
	behind := func(t *testing.T, dir string) {
		s := mustOpen(t, dir, opt)
		if err := s.AppendBatch(pageFleet(6, 5, 1)); err != nil {
			t.Fatal(err)
		}
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendBatch(pageFleet(6, 2, 2)); err != nil {
			t.Fatal(err)
		}
		if err := s.appendRaw(encodeTombstone(appName(0))); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendBatch(pageFleet(6, 2, 3)); err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
	batch := appendRecord(nil, encodeObservation(nil, Observation{App: "a", Concurrency: 1.5}))
	for _, row := range []struct {
		name string
		lay  func(*testing.T, string)
		says string // what the error names besides the upgrade path
	}{
		{"v1_snapshot", v1, `"femux-snap-v1"`},
		{"v2_snapshot", snapshot("femux-snap-v2", headCompactWindowOf), `"femux-snap-v2"`},
		{"v3_snapshot", snapshot("femux-snap-v3", v3CompactWindowOf), `"femux-snap-v3"`},
		{"replication_batch", alone(nestReplBatch(1, uint64(len(batch)), batch)), segName(1)},
		{"replication_batch_nested", alone(nestReplBatch(followerDepth, uint64(len(batch)), batch)), segName(1)},
		{"app_import", alone(encodeAppImport("a", []float64{1, 2, 3}, 3)), segName(1)},
		{"tombstone", alone(encodeTombstone("a")), segName(1)},
		{"unknown_control_type", alone(append(append([]byte(nil), ctrlPrefix...), 0x7f)), segName(1)},
		{"control_record_behind_observations", behind, "control record"},
	} {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			row.lay(t, dir)
			before := dirFiles(t, dir)
			created := map[string]bool{}
			dev := &faultDevice{device: dirDevice(dir), inject: func(op, name string) error {
				if op == "create" {
					created[name] = true
				}
				return nil
			}}
			s, err := open(dev, opt)
			if err == nil {
				s.Close()
				t.Fatal("Open accepted the directory")
			}
			if !errors.Is(err, errUpgrade) || IsTorn(err) || !strings.Contains(err.Error(), row.says) {
				t.Fatalf("Open = %v (torn %v), want errUpgrade naming %s", err, IsTorn(err), row.says)
			}
			if after := dirFiles(t, dir); !maps.Equal(after, before) {
				t.Errorf("the refused Open changed the directory: %d files, then %d", len(before), len(after))
			}
			paged := false
			for name := range created {
				_, isPage := parseSeq(name, pagePrefix, pageSuffix)
				paged = paged || isPage
			}
			if row.name == "control_record_behind_observations" && !paged {
				t.Errorf("the replay in front of the record paged nothing out (created %v)", created)
			}
		})
	}
}
