package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// The writers of the two control records live resharding used to append,
// frozen as they were when it was removed. Nothing writes these records
// any more, but data directories and follower streams from before still
// hold them, and replay (applyPayloadLocked, AppendReplicated) must keep
// reading them.

// encodeWireApp frames one app's state in the v1 record format — raw
// float64 window — frozen as it was when the follower bootstrap moved to
// v3 records. It wrote v1 snapshots, v1 bootstrap bodies and the body of
// an app-import record; Open, ImportState and replay still read all
// three.
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
	st := s.apps[app]
	if st == nil {
		return nil, 0, false
	}
	return s.windowLocked(app, st), st.total, true
}

// recordModel is what a WAL of observations, imports and tombstones must
// replay to: an import replaces an app's window and total, a tombstone
// forgets the app, an observation appends and counts one.
type recordModel struct {
	wins   map[string][]float64
	totals map[string]int64
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

// TestOldControlRecordsReplay writes a WAL the way a resharding fleet
// did — observations, app imports (over warm, cold and unknown apps) and
// tombstones (of known and unknown apps), across segment rotations and a
// compaction — and requires the store that wrote it, a reopen of its
// directory, and a follower that streamed it through AppendReplicated to
// hold the same windows and totals.
func TestOldControlRecordsReplay(t *testing.T) {
	opt := Options{Sync: SyncNever, SegmentBytes: 256, CompactEvery: -1}
	dir := t.TempDir()
	s := mustOpen(t, dir, opt)
	fdir := t.TempDir()
	follower := mustOpen(t, fdir, opt)
	defer func() { follower.Close() }()
	m := recordModel{wins: map[string][]float64{}, totals: map[string]int64{}}
	k := 0
	observe := func(apps ...string) {
		var batch []Observation
		for _, app := range apps {
			v := float64(k)*0.75 + 0.125
			k++
			batch = append(batch, Observation{App: app, Concurrency: v})
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
		m.wins[app], m.totals[app] = win, int64(n)+extra
	}
	drop := func(app string) {
		if err := s.dropApp(app); err != nil {
			t.Fatal(err)
		}
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
	catchUp(t, s, follower)
	importApp("a", 0, 7) // an empty window keeps its total
	drop("b")
	observe("b", "c", "a")
	for i := 0; i < 20; i++ {
		importApp(fmt.Sprintf("bulk-%d", i%4), 6, int64(i))
	}
	catchUp(t, s, follower)
	m.check(t, "live", s)
	m.check(t, "follower", follower)
	follower.Close()
	follower = mustOpen(t, fdir, opt)
	m.check(t, "reopened follower", follower)

	// A snapshot, then more old records in the WAL tail behind it.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	drop("bulk-1")
	importApp("c", 4, 1)
	observe("bulk-1", "c")
	m.check(t, "live after compaction", s)
	s.Close()
	s = mustOpen(t, dir, opt)
	defer s.Close()
	m.check(t, "reopened", s)
}
