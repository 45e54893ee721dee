package store

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"
)

// The writers of the control records that live resharding and WAL
// replication used to append, frozen as they were when each was removed.
// Nothing writes these records any more, but data directories from
// before still hold them, and replay (applyPayloadLocked) must keep
// reading them.

// encodeWireApp frames one app's state in the v1 record format — raw
// float64 window — frozen as it was when the follower bootstrap moved to
// v3 records. It wrote v1 snapshots, v1 bootstrap bodies and the body of
// an app-import record; Open and replay still read the first and the
// last.
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

// followerDepth is how deep a chain of followers could nest batches:
// maxCtrlDepth when replication was removed. Replay must keep reading
// batches that deep, and keep refusing deeper ones, which no follower
// ever wrote.
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

// appendCtrl durably appends one control record and applies it, which is
// what ImportApp and DropApp did.
func (s *Store) appendCtrl(payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writable(); err != nil {
		return err
	}
	if err := s.w.appendBatch([][]byte{payload}, s.opt.Sync == SyncAlways); err != nil {
		return err
	}
	return s.applyPayloadLocked(payload, 0)
}

func (s *Store) importApp(app string, window []float64, total int64) error {
	return s.appendCtrl(encodeAppImport(app, window, total))
}

func (s *Store) dropApp(app string) error { return s.appendCtrl(encodeTombstone(app)) }

// exportApp reports one app's window and durable total.
func (s *Store) exportApp(app string) (window []float64, total int64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.warm[app]; st != nil {
		return s.windowLocked(app), st.total, true
	}
	if c := s.cold[app]; c != nil {
		return s.windowLocked(app), c.total, true
	}
	return nil, 0, false
}

// recordModel is what a WAL of observations, imports and tombstones must
// replay to: an import replaces an app's window and total, a tombstone
// forgets the app, an observation appends and counts one.
type recordModel struct {
	wins   map[string][]float64
	totals map[string]int64
}

func (m recordModel) clone() recordModel {
	c := recordModel{wins: map[string][]float64{}, totals: maps.Clone(m.totals)}
	for app, w := range m.wins {
		c.wins[app] = slices.Clone(w)
	}
	return c
}

// check requires st to hold exactly the model: the same apps,
// Float64bits-equal windows, equal totals and fleet total.
func (m recordModel) check(t *testing.T, when string, st *Store) {
	t.Helper()
	var fleet int64
	for app, want := range m.wins {
		got, total, ok := st.exportApp(app)
		if !ok {
			t.Fatalf("%s: %q missing", when, app)
		}
		if total != m.totals[app] {
			t.Fatalf("%s: %q total %d, want %d", when, app, total, m.totals[app])
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %q window %d values, want %d", when, app, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: %q value %d = %v, want %v", when, app, i, got[i], want[i])
			}
		}
		fleet += total
	}
	if st.Apps() != len(m.wins) || st.TotalObservations() != fleet {
		t.Fatalf("%s: %d apps and %d observations, want %d and %d",
			when, st.Apps(), st.TotalObservations(), len(m.wins), fleet)
	}
}

// checkDir requires the directory dir to open to exactly the model, then
// to reopen, compact, and reopen after the compaction to it again.
func (m recordModel) checkDir(t *testing.T, dir string, opt Options) {
	t.Helper()
	for _, step := range []string{"opened", "reopened", "compacted", "reopened after compaction"} {
		s := mustOpen(t, dir, opt)
		if step == "compacted" {
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		m.check(t, step, s)
		s.Close()
	}
}

// TestOldControlRecordsReplay writes a WAL the way a resharding fleet
// did — observations, app imports (over warm, cold and unknown apps) and
// tombstones (of known and unknown apps), across segment rotations and a
// compaction — and requires the store that wrote it and a reopen of its
// directory to hold the same windows and totals. Then it writes, from the
// same records, the data directory of a follower that was promoted, as
// the follower of a primary or of a chain of followers did: the primary's
// records inside replication batches nested 1 to followerDepth deep, a
// snapshot and the empty cursor record a bootstrap wrote behind it, more
// batches in the WAL tail behind a later snapshot, then direct writes.
// Each directory must open, reopen and compact to exactly what was acked.
func TestOldControlRecordsReplay(t *testing.T) {
	opt := Options{Sync: SyncNever, SegmentBytes: 256, CompactEvery: -1}
	dir := t.TempDir()
	s := mustOpen(t, dir, opt)
	m := recordModel{wins: map[string][]float64{}, totals: map[string]int64{}}
	// frames holds the records written since the last chunk; a chunk is
	// what a follower fetched, with the primary's state after it.
	var frames []byte
	type chunk struct {
		frames []byte
		m      recordModel
	}
	var chunks []chunk
	fetch := func() {
		chunks = append(chunks, chunk{frames, m.clone()})
		frames = nil
	}
	k := 0
	observe := func(apps ...string) {
		var batch []Observation
		for _, app := range apps {
			v := float64(k)*0.75 + 0.125
			k++
			batch = append(batch, Observation{App: app, Concurrency: v})
			frames = appendRecord(frames, encodeObservation(nil, batch[len(batch)-1]))
			m.wins[app] = append(m.wins[app], v)
			m.totals[app]++
		}
		if err := s.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	importApp := func(app string, n int, extra int64) {
		win := make([]float64, n)
		for i := range win {
			win[i] = float64(1000+k+i) / 8
		}
		k += n
		if err := s.importApp(app, win, int64(n)+extra); err != nil {
			t.Fatal(err)
		}
		frames = appendRecord(frames, encodeAppImport(app, win, int64(n)+extra))
		m.wins[app], m.totals[app] = win, int64(n)+extra
	}
	drop := func(app string) {
		if err := s.dropApp(app); err != nil {
			t.Fatal(err)
		}
		frames = appendRecord(frames, encodeTombstone(app))
		delete(m.wins, app)
		delete(m.totals, app)
	}

	for r := 0; r < 6; r++ {
		observe("a", "b", "c", "d", "a")
	}
	if err := s.PageOut("c"); err != nil {
		t.Fatal(err)
	}
	importApp("b", 9, 4)   // over a warm app
	importApp("c", 5, 0)   // over a cold one
	importApp("new", 3, 2) // an app the store never saw
	drop("d")
	drop("ghost") // unknown: a no-op
	observe("b", "new", "d", "d")
	fetch()
	importApp("a", 0, 7) // an empty window keeps its total
	drop("b")
	observe("b", "c", "a")
	for i := 0; i < 20; i++ {
		importApp(fmt.Sprintf("bulk-%d", i%4), 6, int64(i))
	}
	fetch()
	m.check(t, "live", s)

	// A snapshot, then more old records in the WAL tail behind it.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	drop("bulk-1")
	importApp("c", 4, 1)
	observe("bulk-1", "c")
	fetch()
	m.check(t, "live after compaction", s)
	s.Close()
	s = mustOpen(t, dir, opt)
	m.check(t, "reopened", s)
	s.Close()

	for levels := 1; levels <= followerDepth; levels++ {
		t.Run(fmt.Sprintf("promoted_follower_nested_%d", levels), func(t *testing.T) {
			fdir := t.TempDir()
			f := mustOpen(t, fdir, opt)
			var off uint64
			replicate := func(c chunk) {
				off += uint64(len(c.frames))
				if err := f.appendCtrl(nestReplBatch(levels, off, c.frames)); err != nil {
					t.Fatal(err)
				}
				c.m.check(t, "follower", f)
			}
			replicate(chunks[0])
			// A bootstrap: a snapshot of the fleet, then the cursor.
			if err := f.Compact(); err != nil {
				t.Fatal(err)
			}
			if err := f.appendCtrl(nestReplBatch(levels, off, nil)); err != nil {
				t.Fatal(err)
			}
			replicate(chunks[1])
			if err := f.Compact(); err != nil {
				t.Fatal(err)
			}
			replicate(chunks[2])
			// Promoted: direct writes behind the batches.
			fm := chunks[2].m.clone()
			for i, app := range []string{"c", "e", "c"} {
				v := float64(i) + 0.375
				if err := f.Append(app, v); err != nil {
					t.Fatal(err)
				}
				fm.wins[app] = append(fm.wins[app], v)
				fm.totals[app]++
			}
			fm.check(t, "promoted", f)
			f.Close()
			fm.checkDir(t, fdir, opt)
		})
	}

	// A batch replay cannot apply is taken for a torn tail: it and what
	// follows it are cut, and the directory opens to what came before.
	inner := func(p []byte) []byte { return appendRecord(nil, p) }
	obs := encodeObservation(nil, Observation{App: "late", Concurrency: 1})
	torn := inner(obs)
	torn[len(torn)-1] ^= 1 // the CRC no longer holds
	batchOf := func(body ...byte) []byte {
		return append(append(append([]byte(nil), ctrlPrefix...), ctrlReplBatch), body...)
	}
	for _, c := range []struct {
		name    string
		payload []byte
	}{
		{"over_deep", nestReplBatch(followerDepth+1, 1, inner(obs))},
		{"bad_seq", batchOf(0x80)},
		{"bad_offset", batchOf(0x01, 0x80)},
		{"torn_inner_frame", encodeReplBatch(1, 1, torn)},
		{"unknown_inner_type", encodeReplBatch(1, 1, inner(append(append([]byte(nil), ctrlPrefix...), 0x7f)))},
		{"bad_inner_observation", encodeReplBatch(1, 1, inner([]byte{0x05, 'a'}))},
	} {
		t.Run("refused_"+c.name, func(t *testing.T) {
			fdir := t.TempDir()
			f := mustOpen(t, fdir, opt)
			first := chunks[0]
			if err := f.appendCtrl(nestReplBatch(followerDepth, uint64(len(first.frames)), first.frames)); err != nil {
				t.Fatal(err)
			}
			if err := f.appendRaw(c.payload); err != nil {
				t.Fatal(err)
			}
			f.Close()
			f = mustOpen(t, fdir, opt)
			if !f.Stats().TornTail {
				t.Error("replay applied the batch")
			}
			f.Close()
			first.m.checkDir(t, fdir, opt)
		})
	}

}
