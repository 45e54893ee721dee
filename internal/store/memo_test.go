package store

import (
	"os"
	"strings"
	"testing"
	"unsafe"
)

// TestMemoLifecycle pins what the store promises about a Memo: it rides
// with the app's record through appends, page-out, page-in, page GC and
// compaction, is returned by the restore path, and disappears when the
// store is reopened — without costing the record a byte.
func TestMemoLifecycle(t *testing.T) {
	// 32-bit builds have 4-byte words, and align a uint64 field to 4.
	wantState := uintptr(96)
	if unsafe.Sizeof(uintptr(0)) == 4 {
		wantState = 68
	}
	if got := unsafe.Sizeof(appState{}); got != wantState {
		t.Errorf("appState is %d bytes, want %d: the memo and the CLOCK fields must fit the 16 bytes after total", got, wantState)
	}
	if got := unsafe.Sizeof(coldEntry{}); got != 40 {
		t.Errorf("coldEntry is %d bytes, want 40: the stub, total, memo and name address packed", got)
	}
	dir := t.TempDir()
	opt := Options{Sync: SyncNever, CompactEvery: -1}
	s := mustOpen(t, dir, opt)
	if err := s.AppendBatch(pageFleet(3, 10, 3)); err != nil {
		t.Fatal(err)
	}
	a, b, c := appName(0), appName(1), appName(2)
	memo := Memo{Len: 10, Gen: 7, Group: 2}
	memoOf := func(app string) Memo {
		t.Helper()
		_, _, m, _, ok := s.RestoreMemo(app)
		if !ok {
			t.Fatalf("%s: restore found no such app", app)
		}
		return m
	}
	expect := func(when, app string, want Memo) {
		t.Helper()
		if got := memoOf(app); got != want {
			t.Fatalf("%s: %s memo %+v, want %+v", when, app, got, want)
		}
	}

	expect("before any SetMemo", a, Memo{})
	s.SetMemo("nobody", memo) // unknown app: no-op, no entry created
	if s.Apps() != 3 {
		t.Fatalf("SetMemo created an app: Apps = %d", s.Apps())
	}
	for _, app := range []string{a, b, c} {
		s.SetMemo(app, memo)
	}
	expect("set", a, memo)
	if err := s.Append(a, 1); err != nil {
		t.Fatal(err)
	}
	expect("after an append (the caller tells by Len)", a, memo)
	if err := s.PageOut(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, _, m, paged, _ := s.RestoreMemo(a); !paged || m != memo {
		t.Fatalf("page-in: paged=%v memo %+v", paged, m)
	}
	expect("after page-out, compaction and page-in", a, memo)

	s.SetMemo(a, Memo{})
	expect("cleared", a, Memo{})

	// In memory only: nothing of it reaches the directory.
	s.SetMemo(a, memo)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, opt)
	defer s.Close()
	for _, app := range []string{a, b, c} {
		expect("after a reopen", app, Memo{})
	}
}

// openFDs counts this process's descriptors on files under dir.
func openFDs(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	n := 0
	for _, e := range ents {
		if target, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil && strings.HasPrefix(target, dir) {
			n++
		}
	}
	return n
}

// TestPageReadHandlesAreReleased: page-ins read through handles the
// pager keeps open, one per page file; deleting a page file (GC, then
// compaction's sweep) and Close must give every one of them back.
func TestPageReadHandlesAreReleased(t *testing.T) {
	dir := t.TempDir()
	base := openFDs(t, dir)
	s := mustOpen(t, dir, Options{Sync: SyncNever, CompactEvery: -1})
	open0 := openFDs(t, dir) - base // the WAL segment
	var obs []Observation
	for i := 0; i < 40000; i++ {
		obs = append(obs, Observation{App: appName(i % 8), Concurrency: float64(i) * 1.5})
	}
	if err := s.AppendBatch(obs); err != nil {
		t.Fatal(err)
	}
	churn := func(rounds int) {
		t.Helper()
		for r := 0; r < rounds; r++ {
			for i := 0; i < 8; i++ {
				if err := s.PageOut(appName(i)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 8; i++ {
				if _, paged, ok := s.RestoreWindow(appName(i)); !ok || !paged {
					t.Fatalf("restore %d: ok=%v paged=%v", i, ok, paged)
				}
			}
		}
	}
	churn(3)
	// One write handle and one read handle on page file 1, however many
	// page-ins there were.
	if got := openFDs(t, dir) - base - open0; got != 2 {
		t.Fatalf("%d page-file descriptors open after 24 page-ins, want 2", got)
	}
	// Enough garbage for maybeGC to move the live records to a new file
	// and deleteBelow to remove the old one, with its handle.
	churn(21)
	for i := 0; i < 8; i += 2 {
		if err := s.PageOut(appName(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.PageFiles != 1 {
		t.Fatalf("GC left %d page files, want 1", st.PageFiles)
	}
	if _, paged, _ := s.RestoreWindow(appName(0)); !paged {
		t.Fatal("setup: app 0 should have been cold")
	}
	if got := openFDs(t, dir) - base - open0; got != 2 {
		t.Fatalf("%d page-file descriptors open after GC, want 2 (the old file's handle leaked)", got)
	}
	assertExactPrefix(t, s, obs)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := openFDs(t, dir); got != base {
		t.Fatalf("%d descriptors under the store directory after Close, want %d", got, base)
	}
}

// TestPageReadBackRejectsBadRecords drives the page read's checks one at
// a time: each damaged record or stub is an error, counted in PageErrors
// when it is hit on the restore path, never a panic, and the store keeps
// serving with the durable total intact.
func TestPageReadBackRejectsBadRecords(t *testing.T) {
	type fixture struct {
		s    *Store
		path string   // the page file
		ref  *pageRef // a copy of the stub, which goes back into its entry
	}
	cases := []struct {
		name   string
		damage func(t *testing.T, f fixture)
		want   string // substring of the page read error
	}{
		{"flipped payload bit", func(t *testing.T, f fixture) {
			flipByte(t, f.path, f.ref.off+recordHeaderLen+3)
		}, "one valid record"},
		{"flipped checksum bit", func(t *testing.T, f fixture) {
			flipByte(t, f.path, f.ref.off+5)
		}, "one valid record"},
		{"truncated record", func(t *testing.T, f fixture) {
			if err := os.Truncate(f.path, f.ref.off+int64(f.ref.recLen)-1); err != nil {
				t.Fatal(err)
			}
		}, "EOF"},
		{"stub longer than the frame", func(t *testing.T, f fixture) { f.ref.recLen++ }, "one valid record"},
		{"stub shorter than the frame", func(t *testing.T, f fixture) { f.ref.recLen-- }, "one valid record"},
		{"frame length field damaged", func(t *testing.T, f fixture) {
			flipByte(t, f.path, f.ref.off)
		}, "one valid record"},
		{"empty stub", func(t *testing.T, f fixture) { f.ref.recLen = recordHeaderLen }, "out of range"},
		{"zero-length stub", func(t *testing.T, f fixture) { f.ref.recLen = 0 }, "out of range"},
		{"oversized stub", func(t *testing.T, f fixture) { f.ref.recLen = maxRefLen }, "out of range"},
		{"another app's record", func(t *testing.T, f fixture) {
			f.s.mu.Lock()
			other := f.s.cold.get(appName(1)).ref()
			f.s.mu.Unlock()
			f.ref.off, f.ref.recLen = other.off, other.recLen
		}, "holds"},
		{"page file gone", func(t *testing.T, f fixture) {
			f.ref.seq = 99
		}, "no such file"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, Options{Sync: SyncNever, CompactEvery: -1})
			defer s.Close()
			if err := s.AppendBatch(pageFleet(3, 30, 5)); err != nil {
				t.Fatal(err)
			}
			total := s.TotalObservations()
			for i := 0; i < 3; i++ {
				if err := s.PageOut(appName(i)); err != nil {
					t.Fatal(err)
				}
			}
			s.mu.Lock()
			e := s.cold.get(appName(0))
			ref := e.ref()
			s.mu.Unlock()
			tc.damage(t, fixture{s, dir + "/" + pageName(1), &ref})

			s.mu.Lock()
			e.setRef(ref)
			_, err := s.warmState(appName(0))
			s.mu.Unlock()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("page read error %v, want one mentioning %q", err, tc.want)
			}
			// The restore path: the window is lost, the failure counted,
			// the total kept, and the app keeps accepting observations.
			win, paged, ok := s.RestoreWindow(appName(0))
			if !ok || !paged || len(win) != 0 {
				t.Fatalf("restore of a damaged page: ok=%v paged=%v len=%d", ok, paged, len(win))
			}
			if got := s.Stats().PageErrors; got != 1 {
				t.Fatalf("PageErrors = %d, want 1", got)
			}
			if err := s.Append(appName(0), 2); err != nil {
				t.Fatal(err)
			}
			if got := s.TotalObservations(); got != total+1 {
				t.Fatalf("total = %d, want %d", got, total+1)
			}
			// The undamaged neighbour still restores exactly.
			if tc.name != "truncated record" {
				if win, _, ok := s.RestoreWindow(appName(2)); !ok || len(win) != 30 {
					t.Fatalf("neighbour restore: ok=%v len=%d", ok, len(win))
				}
			}
		})
	}
}

func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x10
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}
