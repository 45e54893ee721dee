package store

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALReplay feeds arbitrary bytes through segment replay and a full
// store Open. Replay must either accept a valid record prefix or error
// cleanly — never panic, and never over-read (each accepted record
// accounts for at least 9 framed bytes, so the record count is bounded by
// the input size).
func FuzzWALReplay(f *testing.F) {
	// Seed corpus: a genuine segment, its truncations, corruptions, and
	// degenerate shapes (zero runs, huge claimed lengths).
	var image []byte
	for i := 0; i < 6; i++ {
		image = appendRecord(image, encodeObservation(nil, Observation{App: "seed", Concurrency: float64(i)}))
	}
	f.Add(image)
	f.Add(image[:len(image)-3])
	corrupted := append([]byte(nil), image...)
	corrupted[10] ^= 0x80
	f.Add(corrupted)
	f.Add([]byte{})
	f.Add(make([]byte, 64))                                 // zero run: len=0 frames must be rejected
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 2}) // absurd length claim
	f.Add(appendRecord(nil, []byte{}))                      // explicitly framed empty payload

	f.Fuzz(func(t *testing.T, data []byte) {
		var n int
		records, err := readRecords(bytes.NewReader(data), func(p []byte) error {
			n++
			if len(p) == 0 || len(p) > maxRecordLen {
				t.Fatalf("replay surfaced out-of-range payload of %d bytes", len(p))
			}
			return nil
		})
		if records != n {
			t.Fatalf("readRecords reported %d records but called fn %d times", records, n)
		}
		if min := recordHeaderLen + 1; records > len(data)/min {
			t.Fatalf("%d records from %d bytes: over-read", records, len(data))
		}
		if err != nil && !IsTorn(err) {
			t.Fatalf("non-torn replay error on in-memory bytes: %v", err)
		}

		// The full store must also open on top of the same bytes: garbage
		// decodes as a torn tail, valid observation records are restored.
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir, Options{CompactEvery: -1})
		if err != nil {
			t.Fatalf("Open must tolerate arbitrary segment bytes, got %v", err)
		}
		if got := st.Stats().Restored; got > int64(records) {
			t.Fatalf("store restored %d records from a log replay found %d in", got, records)
		}
		st.Close()
	})
}

// FuzzReplicationStream throws arbitrary chunk bytes and cursor
// positions at a follower's AppendReplicated. The contract under attack:
// truncated, duplicated, reordered, or corrupt chunks must be rejected
// WHOLE with follower state (windows, total, cursor) untouched, and an
// accepted chunk must be durably atomic — a reopen from disk restores
// exactly the post-apply state. No input may panic or corrupt the store.
func FuzzReplicationStream(f *testing.F) {
	// Seed corpus: a valid chunk at its correct position, the same chunk
	// truncated / duplicated / shifted, control records (nested batch,
	// app import, tombstone), and raw garbage.
	var chunk []byte
	for i := 0; i < 4; i++ {
		chunk = appendRecord(chunk, encodeObservation(nil, Observation{App: "seed", Concurrency: float64(i) + 0.5}))
	}
	f.Add(chunk, uint64(2), int64(len(chunk)))
	f.Add(chunk, uint64(1), int64(len(chunk)))                      // stale vs the baseline cursor
	f.Add(chunk[:len(chunk)-5], uint64(2), int64(len(chunk)))       // torn tail
	f.Add(chunk[recordHeaderLen+14:], uint64(2), int64(len(chunk))) // boundary truncation
	f.Add([]byte{}, uint64(2), int64(0))
	f.Add(appendRecord(nil, encodeReplBatch(ReplPos{Seq: 9, Off: 7}, nil)), uint64(3), int64(33))
	f.Add(appendRecord(nil, encodeAppImport("seed", []float64{1, 2, 3}, 3)), uint64(3), int64(64))
	f.Add(appendRecord(nil, encodeTombstone("seed")), uint64(3), int64(19))
	f.Add(appendRecord(nil, []byte{0xFF, 0x00, 'f', 'x', 0x7F}), uint64(3), int64(13)) // unknown ctrl type
	f.Add(make([]byte, 40), uint64(0), int64(-1))

	f.Fuzz(func(t *testing.T, data []byte, seq uint64, off int64) {
		dir := t.TempDir()
		st, err := Open(dir, Options{Sync: SyncNever, CompactEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		// Baseline: an applied chunk so the follower has a cursor and
		// state the fuzz input could corrupt.
		var base []byte
		for i := 0; i < 3; i++ {
			base = appendRecord(base, encodeObservation(nil, Observation{App: "seed", Concurrency: float64(i) * 2}))
		}
		if _, err := st.AppendReplicated(base, ReplPos{Seq: 1, Off: int64(len(base))}); err != nil {
			t.Fatalf("baseline chunk rejected: %v", err)
		}
		beforeTotal := st.TotalObservations()
		beforeCursor, _ := st.ReplCursor()
		beforeWins := st.Windows()

		pos := ReplPos{Seq: seq % (1 << 32), Off: off}
		n, err := st.AppendReplicated(data, pos)
		if err != nil {
			// Rejected chunks must leave no trace.
			if got := st.TotalObservations(); got != beforeTotal {
				t.Fatalf("rejected chunk moved total %d -> %d", beforeTotal, got)
			}
			if cur, _ := st.ReplCursor(); cur != beforeCursor {
				t.Fatalf("rejected chunk moved cursor %s -> %s", beforeCursor, cur)
			}
			wins := st.Windows()
			if len(wins) != len(beforeWins) {
				t.Fatalf("rejected chunk changed app set: %d -> %d", len(beforeWins), len(wins))
			}
			for app, w := range beforeWins {
				if len(wins[app]) != len(w) {
					t.Fatalf("rejected chunk changed window of %q", app)
				}
			}
			st.Close()
			return
		}
		// Accepted: the cursor must land exactly at pos, the total must
		// move by the observation count, and a crash-reopen must restore
		// the identical state.
		if cur, ok := st.ReplCursor(); !ok || cur != pos {
			t.Fatalf("accepted chunk: cursor %s (ok=%v), want %s", cur, ok, pos)
		}
		if got := st.TotalObservations(); got != beforeTotal+int64(n) {
			t.Fatalf("accepted chunk: total %d, want %d+%d", got, beforeTotal, n)
		}
		// A second delivery of the same chunk is a duplicate: it must be
		// rejected (or be a cursor-only no-op), never applied twice.
		if n2, err2 := st.AppendReplicated(data, pos); err2 == nil && n2 != 0 {
			t.Fatalf("duplicate chunk applied %d observations", n2)
		}
		memWins := st.Windows()
		memTotal := st.TotalObservations()
		// Crash: abandon without Close, reopen from disk.
		st2, err := Open(dir, Options{Sync: SyncNever, CompactEvery: -1})
		if err != nil {
			t.Fatalf("reopen after accepted chunk: %v", err)
		}
		defer st2.Close()
		if got := st2.TotalObservations(); got != memTotal {
			t.Fatalf("reopen total %d, want %d", got, memTotal)
		}
		if cur, ok := st2.ReplCursor(); !ok || cur != pos {
			t.Fatalf("reopen cursor %s (ok=%v), want %s", cur, ok, pos)
		}
		diskWins := st2.Windows()
		if len(diskWins) != len(memWins) {
			t.Fatalf("reopen app set %d, want %d", len(diskWins), len(memWins))
		}
		for app, w := range memWins {
			g := diskWins[app]
			if len(g) != len(w) {
				t.Fatalf("reopen window of %q: %d, want %d", app, len(g), len(w))
			}
			for i := range w {
				if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
					t.Fatalf("reopen window of %q not bit-identical at %d", app, i)
				}
			}
		}
	})
}

// FuzzImportState throws arbitrary bodies at a follower's ImportState. No
// input may panic; a refused body leaves the follower's total, cursor and
// windows as they were, and an accepted one survives a crash-reopen bit
// for bit, cursor included.
func FuzzImportState(f *testing.F) {
	// Seed corpus: a v3 export with a cold app, a v1 body from the frozen
	// writer, a page stub, a newer magic, and truncations of each.
	primary, err := Open(f.TempDir(), Options{Sync: SyncNever, CompactEvery: -1})
	if err != nil {
		f.Fatal(err)
	}
	if err := primary.AppendBatch(pageFleet(3, 70, 5)); err != nil {
		f.Fatal(err)
	}
	if err := primary.PageOut(appName(1)); err != nil {
		f.Fatal(err)
	}
	v3, _, err := primary.ExportState()
	if err != nil {
		f.Fatal(err)
	}
	primary.Close()
	v1 := appendRecord(appendRecord(nil, []byte(snapMagic)), encodeWireApp(nil, "seed", []float64{1, 0, 2.5}, 4))
	stub := appendRecord(appendRecord(nil, []byte(snapMagicV3)), encodeSnapshotApp(nil, "seed",
		&appState{total: 3, page: &pageRef{seq: 1, recLen: 40, count: 3}}))
	v9 := appendRecord(appendRecord(nil, []byte("femux-snap-v9")), []byte("a record this build cannot read"))
	for _, body := range [][]byte{v3, v1, stub, v9} {
		f.Add(body)
		f.Add(body[:len(body)-1])
		f.Add(body[:len(body)/2])
	}
	// A v1 window of 2^61+1 values in 8 bytes: the count wraps to 1 if
	// multiplied by 8, and sizing a window from it panics.
	wrap := binary.AppendUvarint(binary.AppendUvarint(append([]byte{4}, "seed"...), 1), 1<<61+1)
	f.Add(appendRecord(appendRecord(nil, []byte(snapMagic)), append(wrap, make([]byte, 8)...)))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		opt := Options{Sync: SyncNever, CompactEvery: -1}
		st, err := Open(dir, opt)
		if err != nil {
			t.Fatal(err)
		}
		// Baseline: state and a cursor the input could corrupt.
		var base []byte
		for i := 0; i < 3; i++ {
			base = appendRecord(base, encodeObservation(nil, Observation{App: "seed", Concurrency: float64(i) * 2}))
		}
		if _, err := st.AppendReplicated(base, ReplPos{Seq: 1, Off: int64(len(base))}); err != nil {
			t.Fatalf("baseline chunk rejected: %v", err)
		}
		same := func(what string, s *Store, wins map[string][]float64, total int64, cursor ReplPos) {
			t.Helper()
			if cur, _ := s.ReplCursor(); cur != cursor || s.TotalObservations() != total {
				t.Fatalf("%s: cursor %s and total %d, want %s and %d", what, cur, s.TotalObservations(), cursor, total)
			}
			got := s.Windows()
			if len(got) != len(wins) {
				t.Fatalf("%s: %d apps, want %d", what, len(got), len(wins))
			}
			for app, w := range wins {
				g, ok := got[app]
				if !ok || len(g) != len(w) {
					t.Fatalf("%s: window of %q has %d values, want %d", what, app, len(g), len(w))
				}
				for i := range w {
					if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
						t.Fatalf("%s: window of %q differs at %d", what, app, i)
					}
				}
			}
		}
		wins, total := st.Windows(), st.TotalObservations()
		cursor, _ := st.ReplCursor()

		pos := ReplPos{Seq: 5, Off: 11}
		if err := st.ImportState(data, pos); err != nil {
			same("refused body", st, wins, total, cursor)
			st.Close()
			return
		}
		if cur, ok := st.ReplCursor(); !ok || cur != pos {
			t.Fatalf("accepted body: cursor %s (ok %v), want %s", cur, ok, pos)
		}
		wins, total = st.Windows(), st.TotalObservations()
		// Crash: abandon without Close, reopen from disk.
		re, err := Open(dir, opt)
		if err != nil {
			t.Fatalf("reopen after an accepted import: %v", err)
		}
		defer re.Close()
		same("reopened", re, wins, total, pos)
	})
}
