package store

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

func mustOpen(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	st, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return st
}

// exportApp reports one app's window and durable total, reading a cold
// app from its page without promoting it.
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

// buildWindows folds an observation sequence into expected per-app
// windows (unlimited cap).
func buildWindows(obs []Observation) map[string][]float64 {
	wins := map[string][]float64{}
	for _, o := range obs {
		wins[o.App] = append(wins[o.App], o.Concurrency)
	}
	return wins
}

// assertExactPrefix requires the store to hold exactly the given
// observation prefix: identical totals, app sets, and bit-identical
// windows.
func assertExactPrefix(t *testing.T, st *Store, prefix []Observation) {
	t.Helper()
	if err := exactPrefix(st, prefix); err != nil {
		t.Fatal(err)
	}
}

func exactPrefix(st *Store, prefix []Observation) error {
	want := buildWindows(prefix)
	got := st.Windows()
	if int64(len(prefix)) != st.TotalObservations() {
		return fmt.Errorf("store total %d, want exact prefix of %d", st.TotalObservations(), len(prefix))
	}
	if len(got) != len(want) {
		return fmt.Errorf("store tracks %d apps, prefix has %d", len(got), len(want))
	}
	for app, w := range want {
		g := got[app]
		if len(g) != len(w) {
			return fmt.Errorf("app %q: window %d, want %d", app, len(g), len(w))
		}
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				return fmt.Errorf("app %q value %d not bit-identical: %x vs %x",
					app, i, math.Float64bits(g[i]), math.Float64bits(w[i]))
			}
		}
	}
	return nil
}

// assertWindowsEqual requires st to hold exactly the windows wins.
func assertWindowsEqual(t *testing.T, st *Store, wins map[string][]float64) {
	t.Helper()
	got := st.Windows()
	if len(got) != len(wins) {
		t.Fatalf("store tracks %d apps, want %d", len(got), len(wins))
	}
	for app, want := range wins {
		g := got[app]
		if len(g) != len(want) {
			t.Fatalf("app %s: window %d, want %d", app, len(g), len(want))
		}
		for i := range want {
			if math.Float64bits(g[i]) != math.Float64bits(want[i]) {
				t.Fatalf("app %s: value %d = %x, want %x (not bit-identical)",
					app, i, math.Float64bits(g[i]), math.Float64bits(want[i]))
			}
		}
	}
}

// TestSnapshotReplayEquivalence is the snapshot+WAL-replay equivalence
// oracle: a store that lived through random appends, batches, and
// compactions must restore windows bit-identical to the in-memory
// history, with every window inline and with most of the fleet paged
// out between steps.
func TestSnapshotReplayEquivalence(t *testing.T) {
	for _, v := range []struct {
		name   string
		inline int
	}{{"inline", 0}, {"paged", 2}} {
		t.Run(v.name, func(t *testing.T) {
			testSnapshotReplayEquivalence(t, v.inline)
		})
	}
}

func testSnapshotReplayEquivalence(t *testing.T, inline int) {
	dir := t.TempDir()
	st, err := Open(dir, Options{CompactEvery: -1, SegmentBytes: 1 << 10, InlineBudget: inline})
	if err != nil {
		t.Fatal(err)
	}
	wins := map[string][]float64{}
	rng := rand.New(rand.NewSource(42))
	for step := 0; step < 400; step++ {
		switch rng.Intn(10) {
		case 0: // compact mid-stream
			if err := st.Compact(); err != nil {
				t.Fatal(err)
			}
		case 1, 2: // batch append
			n := 1 + rng.Intn(8)
			batch := make([]Observation, n)
			for i := range batch {
				app := fmt.Sprintf("app-%d", rng.Intn(6))
				v := rng.NormFloat64() * 10
				batch[i] = Observation{App: app, Concurrency: v}
			}
			if err := st.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
			for _, o := range batch {
				wins[o.App] = append(wins[o.App], o.Concurrency)
			}
		default: // single append
			app := fmt.Sprintf("app-%d", rng.Intn(6))
			v := rng.NormFloat64() * 10
			if err := st.Append(app, v); err != nil {
				t.Fatal(err)
			}
			wins[app] = append(wins[app], v)
		}
	}
	if paged := st.Stats().PagedApps; inline > 0 && paged < len(wins)-inline {
		t.Fatalf("%d of %d apps paged out under an inline budget of %d", paged, len(wins), inline)
	}
	assertWindowsEqual(t, st, wins)
	total := st.TotalObservations()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Options{CompactEvery: -1, InlineBudget: inline})
	if err != nil {
		t.Fatal(err)
	}
	assertWindowsEqual(t, re, wins)
	if re.TotalObservations() != total {
		t.Fatalf("restored total %d, want %d", re.TotalObservations(), total)
	}

	// Reopen once more *without* Close (SIGKILL shape): under
	// SyncAlways everything acknowledged is already on disk.
	if err := re.Append("late", 1.25); err != nil {
		t.Fatal(err)
	}
	wins["late"] = append(wins["late"], 1.25)
	re2, err := Open(dir, Options{CompactEvery: -1, InlineBudget: inline})
	if err != nil {
		t.Fatal(err)
	}
	assertWindowsEqual(t, re2, wins)
	re2.Close()
}

func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{CompactEvery: 10, SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 35; i++ {
		if err := st.Append("auto", float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	stats := st.Stats()
	if stats.Snapshots != 1 {
		t.Fatalf("snapshots = %d, want exactly 1 live snapshot", stats.Snapshots)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if w := re.Window("auto"); len(w) != 35 {
		t.Fatalf("restored %d values, want 35", len(w))
	}
}

func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		st.Append("s", float64(i))
	}
	if err := st.Compact(); err != nil { // snapshot 1 (valid)
		t.Fatal(err)
	}
	for i := 8; i < 12; i++ {
		st.Append("s", float64(i))
	}
	if err := st.Compact(); err != nil { // snapshot 2 (will be corrupted)
		t.Fatal(err)
	}
	st.Close()
	snaps, _ := listSeqs(dir, snapPrefix, snapSuffix)
	if len(snaps) != 1 {
		t.Fatalf("live snapshots = %d, want 1", len(snaps))
	}
	// Corrupt the newest snapshot. Recovery must fall back rather than
	// fail or panic — here to an empty state, because the superseded WAL
	// segments were already compacted away. What must NOT happen is an
	// Open error or garbage windows.
	corruptSnapshot(t, dir, snaps[0])
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after snapshot corruption: %v", err)
	}
	defer re.Close()
	if re.Apps() != 0 {
		t.Fatalf("corrupt snapshot yielded %d apps", re.Apps())
	}
}

// TestSnapshotRecordsGolden pins the bytes compaction writes: the v5
// magic, then one record per app — inline, a window of deltas, a window
// whose chunk went raw, one whose chunk went decimal and one whose full
// chunk was packed, and a cold app as a page stub.
func TestSnapshotRecordsGolden(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Sync: SyncNever, CompactEvery: -1})
	defer s.Close()
	for app, w := range map[string][]float64{
		"delta":   {0, 0, 1.5, 1.5, 2},
		"raw":     {1.0 / 3, 1.0 / 7, 1.0 / 9}, // decimal only past 10^-15
		"decimal": {0.137, 0.291, 0.513},
		"cold":    {4, 0, 0, 4.25},
		"packed":  append([]float64{4.25}, cycle(63, 0, 1)...),
	} {
		for _, v := range w {
			if err := s.Append(app, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.PageOut("cold"); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, snapPrefix+"*"+snapSuffix))
	if len(snaps) != 1 {
		t.Fatalf("%d snapshots, want 1", len(snaps))
	}
	data, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	var magic string
	recs := map[string]string{}
	if _, err := readRecords(bytes.NewReader(data), true, func(p []byte) error {
		if magic == "" {
			magic = string(p)
			return nil
		}
		app, _, err := decodeSnapshotApp(p)
		recs[app] = hex.EncodeToString(appendRecord(nil, p))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if magic != snapMagicV5 || len(recs) != 5 {
		t.Fatalf("magic %q and %d records, want %q and 5", magic, len(recs), snapMagicV5)
	}
	for app, want := range map[string]string{
		// frame (length 26, CRC) | tag 00 | name | total 5 | 5 values in 16
		// stream bytes: head 0, then deltas 0, 1.5 (bf f0 03), 0, 2 (ff f0 03)
		"delta": "1a000000" + "2f492a85" + "00" + "0564656c7461" + "05" + "05" + "10" +
			"0000000000000000" + "00" + "bff003" + "00" + "fff003",
		// head 1/3, the raw marker 80 00, then 1/7 and 1/9 as raw words
		"raw": "22000000" + "182de02f" + "00" + "03726177" + "03" + "03" + "1a" +
			"555555555555d53f" + "8000" + "922449922449c23f" + "1cc7711cc771bc3f",
		// head 0.137, the decimal marker 81 00, exponent 3, then the
		// differences of m = 137, 291, 513 as zigzag uvarints: 154 (b4 02)
		// and 222 (bc 03)
		"decimal": "1b000000" + "cc918762" + "00" + "07646563696d616c" + "03" + "03" + "0f" +
			"f0a7c64b3789c13f" + "8100" + "03" + "b402" + "bc03",
		// head 4.25, the packed marker 82 00, exponent 0, width 1, base 0,
		// then the 63 offsets 0, 1, 0, ... one bit each from bit 0: 0xaa
		// seven times and 0x2a
		"packed": "20000000" + "da56a3c1" + "00" + "067061636b6564" + "40" + "40" + "15" +
			"0000000000001140" + "8200" + "00" + "01" + "00" + "aaaaaaaaaaaaaa2a",
	} {
		if recs[app] != want {
			t.Errorf("%s record\n got %s\nwant %s", app, recs[app], want)
		}
	}
	if tag := recs["cold"][16:18]; tag != "01" {
		t.Errorf("cold record has tag %s, want the page stub's 01", tag)
	}
}

// TestSnapshotOfANewerFormatFailsOpen: a snapshot whose intact magic names
// a femux-snap format this build does not know fails Open with an error
// naming that magic, instead of falling back to an older snapshot (or to
// an empty store) without its data. A torn or CRC-bad one still falls
// back.
func TestSnapshotOfANewerFormatFailsOpen(t *testing.T) {
	const magic = "femux-snap-v9"
	newer := appendRecord(appendRecord(nil, []byte(magic)), []byte("a record this build cannot read"))
	for _, tc := range []struct {
		name    string
		snap    []byte
		wantErr bool
	}{
		{"intact", newer, true},
		{"CRC-bad magic", func() []byte {
			b := append([]byte(nil), newer...)
			b[recordHeaderLen+len(magic)-1] ^= 0x01
			return b
		}(), false},
		{"torn magic", newer[:recordHeaderLen+4], false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			old := map[string]*appState{"a": {cw: compactWindowOf([]float64{1, 2.5, 3}), total: 3}}
			if err := writeSnapshot(dirDevice(dir), 1, old, nil); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, snapName(2)), tc.snap, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir, Options{Sync: SyncNever, CompactEvery: -1})
			if tc.wantErr {
				if err == nil || !strings.Contains(err.Error(), magic) {
					t.Fatalf("Open = %v, want an error naming %q", err, magic)
				}
				if s != nil {
					t.Fatal("a failed Open returned a store")
				}
				return
			}
			if err != nil {
				t.Fatalf("Open: %v, want the fallback to snapshot 1", err)
			}
			defer s.Close()
			assertBitIdentical(t, s.Window("a"), []float64{1, 2.5, 3}, "fallback window")
		})
	}
}

// TestFailedCompactionWaitsForMoreRecords: a compaction whose snapshot
// write fails is retried after another CompactEvery records, not on the
// next append, because every attempt seals a WAL segment. With every
// snapshot fsync failing, 50 appends at CompactEvery 8 leave at most one
// new segment per 8 records and no temp file, and a reopen restores all
// 50.
func TestFailedCompactionWaitsForMoreRecords(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Sync: SyncNever, CompactEvery: 8}
	failSync := func(op, name string) error {
		if op == "sync" && strings.HasPrefix(name, snapPrefix) {
			return syscall.EIO
		}
		return nil
	}
	s := mustOpenOn(t, &faultDevice{dirDevice(dir), failSync}, opt)
	var obs []Observation
	for i := 0; i < 50; i++ {
		o := Observation{App: appName(i % 3), Concurrency: float64(i) + 0.25}
		if err := s.Append(o.App, o.Concurrency); err != nil {
			t.Fatal(err)
		}
		obs = append(obs, o)
	}
	if st := s.Stats(); st.Snapshots != 0 || st.Segments > 1+50/8 {
		t.Fatalf("%d snapshots and %d segments after 50 appends, want none and at most %d",
			st.Snapshots, st.Segments, 1+50/8)
	}
	for _, name := range listDir(t, dir) {
		if strings.HasSuffix(name, ".tmp") {
			t.Fatalf("a failed snapshot left %s behind", name)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, dir, opt)
	defer re.Close()
	assertExactPrefix(t, re, obs)
}

// corruptSnapshot flips a byte in the middle of snap-<seq>.snap.
func corruptSnapshot(t *testing.T, dir string, seq uint64) {
	t.Helper()
	path := filepath.Join(dir, snapName(seq))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCloseRejectsAppends(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Append("x", 1); err == nil {
		t.Fatal("append after Close succeeded")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
