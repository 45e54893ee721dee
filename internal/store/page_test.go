package store

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// pageFleet builds a deterministic observation stream over n apps with
// sparse-fleet value shapes (mostly zeros, occasional bursts).
func pageFleet(n, perApp int, seed int64) []Observation {
	rng := rand.New(rand.NewSource(seed))
	var obs []Observation
	for i := 0; i < perApp; i++ {
		for a := 0; a < n; a++ {
			v := 0.0
			if rng.Intn(4) == 0 {
				v = rng.Float64() * 50
			}
			obs = append(obs, Observation{App: appName(a), Concurrency: v})
		}
	}
	return obs
}

func appName(i int) string {
	return "app-" + string(rune('a'+i%26)) + "-" + string(rune('0'+i/26))
}

func TestPageOutReadThroughAndRestore(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Sync: SyncNever, CompactEvery: -1})
	defer s.Close()
	obs := pageFleet(12, 40, 10)
	if err := s.AppendBatch(obs); err != nil {
		t.Fatal(err)
	}
	want := buildWindows(obs)

	// Page out half the fleet.
	cold := 0
	for i := 0; i < 12; i += 2 {
		if err := s.PageOut(appName(i)); err != nil {
			t.Fatal(err)
		}
		cold++
	}
	if got := s.PagedApps(); got != cold {
		t.Fatalf("PagedApps = %d, want %d", got, cold)
	}
	// Window/Windows read through to disk without promoting.
	assertExactPrefix(t, s, obs)
	if got := s.PagedApps(); got != cold {
		t.Fatalf("read-through promoted: PagedApps = %d, want %d", got, cold)
	}

	// RestoreWindow promotes and returns the exact window.
	win, paged, ok := s.RestoreWindow(appName(0))
	if !ok || !paged {
		t.Fatalf("RestoreWindow: ok=%v paged=%v", ok, paged)
	}
	assertBitIdentical(t, win, want[appName(0)], "restored window")
	if got := s.PagedApps(); got != cold-1 {
		t.Fatalf("PagedApps after restore = %d, want %d", got, cold-1)
	}
	// A second restore of the same app reports paged=false.
	if _, paged, _ := s.RestoreWindow(appName(0)); paged {
		t.Fatal("restore of a warm app reported a page-in")
	}

	// Appending to a cold app transparently pages it in.
	if err := s.Append(appName(2), 123.5); err != nil {
		t.Fatal(err)
	}
	obs = append(obs, Observation{App: appName(2), Concurrency: 123.5})
	assertExactPrefix(t, s, obs)
	if got := s.PagedApps(); got != cold-2 {
		t.Fatalf("PagedApps after append = %d, want %d", got, cold-2)
	}
}

func TestPagedStateSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Sync: SyncNever, CompactEvery: -1})
	obs := pageFleet(10, 30, 11)
	if err := s.AppendBatch(obs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i += 2 {
		if err := s.PageOut(appName(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Compaction embeds the stubs in a v2 snapshot (after fsyncing the
	// page file) — cold apps stay cold across a clean restart.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, Options{Sync: SyncNever, CompactEvery: -1})
	defer s.Close()
	if got := s.PagedApps(); got != 5 {
		t.Fatalf("PagedApps after restart = %d, want 5", got)
	}
	assertExactPrefix(t, s, obs)
}

// TestKillDuringPageOut crashes (abandons the store without Close) with
// the page file truncated to every possible prefix length, simulating a
// torn page-out write. Until a snapshot references a stub, the
// snapshot+WAL chain still holds every observation, so recovery must be
// exact no matter where the page write tore.
func TestKillDuringPageOut(t *testing.T) {
	obs := pageFleet(6, 25, 12)
	// Probe the page file size once.
	probeDir := t.TempDir()
	s := mustOpen(t, probeDir, Options{Sync: SyncNever, CompactEvery: -1})
	if err := s.AppendBatch(obs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := s.PageOut(appName(i)); err != nil {
			t.Fatal(err)
		}
	}
	pageFile := filepath.Join(probeDir, pageName(1))
	fi, err := os.Stat(pageFile)
	if err != nil {
		t.Fatal(err)
	}
	size := fi.Size()

	step := size / 17
	if step < 1 {
		step = 1
	}
	for cut := int64(0); cut <= size; cut += step {
		dir := t.TempDir()
		s := mustOpen(t, dir, Options{Sync: SyncNever, CompactEvery: -1})
		if err := s.AppendBatch(obs); err != nil {
			t.Fatal(err)
		}
		s.Sync()
		for i := 0; i < 6; i++ {
			if err := s.PageOut(appName(i)); err != nil {
				t.Fatal(err)
			}
		}
		// Kill: no Close, page file torn at cut.
		if err := os.Truncate(filepath.Join(dir, pageName(1)), cut); err != nil {
			t.Fatal(err)
		}
		r := mustOpen(t, dir, Options{Sync: SyncNever, CompactEvery: -1})
		assertExactPrefix(t, r, obs)
		if r.PagedApps() != 0 {
			t.Fatalf("cut %d: recovered store has %d cold apps, want 0 (stubs were never snapshotted)", cut, r.PagedApps())
		}
		r.Close()
	}
}

// TestPageCorruptionAfterSnapshotKeepsTotals covers the documented
// degradation: once a snapshot references a page record and that record
// later rots, the window is lost but the durable total — what the CI
// smoke cross-checks — must be conserved, and the store must keep
// serving.
func TestPageCorruptionAfterSnapshotKeepsTotals(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Sync: SyncNever, CompactEvery: -1})
	obs := pageFleet(4, 20, 13)
	if err := s.AppendBatch(obs); err != nil {
		t.Fatal(err)
	}
	total := s.TotalObservations()
	for i := 0; i < 4; i++ {
		if err := s.PageOut(appName(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in every page record (leave the file length intact).
	pageFile := filepath.Join(dir, pageName(1))
	data, err := os.ReadFile(pageFile)
	if err != nil {
		t.Fatal(err)
	}
	for i := 9; i < len(data); i += 40 {
		data[i] ^= 0xff
	}
	if err := os.WriteFile(pageFile, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{Sync: SyncNever, CompactEvery: -1})
	defer r.Close()
	if got := r.TotalObservations(); got != total {
		t.Fatalf("total after page corruption = %d, want %d", got, total)
	}
	// Touching the corrupt apps must not wedge the store: the window
	// restarts empty, totals keep counting, and the failure is counted.
	for i := 0; i < 4; i++ {
		if err := r.Append(appName(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.TotalObservations(); got != total+4 {
		t.Fatalf("total after appends = %d, want %d", got, total+4)
	}
	if r.Stats().PageErrors == 0 {
		t.Fatal("page corruption was not counted in Stats().PageErrors")
	}
}

// TestPageGCRewritesAndDeletes drives page-out/restore churn until dead
// bytes dominate, then checks compaction rewrites live records into a
// fresh page file, deletes superseded ones, and keeps windows exact.
func TestPageGCRewritesAndDeletes(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Sync: SyncNever, CompactEvery: -1})
	defer s.Close()
	obs := pageChurn(t, s, 2)
	st := s.Stats()
	if st.PageBytes == 0 {
		t.Fatal("churn produced no page bytes")
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.PageBytes >= st.PageBytes/2 {
		t.Fatalf("GC left %d page bytes of %d", after.PageBytes, st.PageBytes)
	}
	if after.PagedApps != 4 {
		t.Fatalf("PagedApps after GC = %d, want 4", after.PagedApps)
	}
	assertExactPrefix(t, s, obs)
}

// pageChurn fills 8 apps with windows big enough that page records are
// substantial, then pages them out and restores them until the page
// files are mostly garbage, and leaves every stride-th app cold. It
// returns the observations appended.
func pageChurn(t *testing.T, s *Store, stride int) []Observation {
	t.Helper()
	var obs []Observation
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 40000; i++ {
		obs = append(obs, Observation{App: appName(i % 8), Concurrency: rng.NormFloat64() * 1e6})
	}
	if err := s.AppendBatch(obs); err != nil {
		t.Fatal(err)
	}
	// Repeated page-out/restore leaves every generation's records dead in
	// the page files.
	for round := 0; round < 24; round++ {
		for i := 0; i < 8; i++ {
			if err := s.PageOut(appName(i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ {
			if _, _, ok := s.RestoreWindow(appName(i)); !ok {
				t.Fatalf("round %d: app %d missing", round, i)
			}
		}
	}
	for i := 0; i < 8; i += stride {
		if err := s.PageOut(appName(i)); err != nil {
			t.Fatal(err)
		}
	}
	return obs
}

// TestPageGCFailureKeepsColdCount rots one live page record, so every
// compaction's page-file rewrite fails part way. The copies a failed
// rewrite already wrote must be freed: after each compaction PagedApps
// still counts exactly the cold apps, which the inline budget and the
// tier gauges are derived from, and the failures show in Stats.
func TestPageGCFailureKeepsColdCount(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Sync: SyncNever, CompactEvery: -1})
	defer s.Close()
	pageChurn(t, s, 1)
	ref := s.cold[appName(3)].ref
	f, err := os.OpenFile(filepath.Join(dir, pageName(ref.seq)), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	at := ref.off + int64(ref.recLen)/2
	if _, err := f.ReadAt(b, at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, at); err != nil {
		t.Fatal(err)
	}
	f.Close()
	for i := 0; i < 6; i++ {
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		checkRoster(t, s, fmt.Sprintf("compaction %d", i))
	}
	if got := s.Stats().PageGCFails; got != 6 {
		t.Fatalf("PageGCFails = %d, want 6 (one per compaction)", got)
	}
}

// TestInlineBudgetSweep pins the -max-warm-apps mechanism: the CLOCK
// sweep keeps the inline (warm) app count at the budget on the apply
// path — which is also the boot replay path, so a restart of a big
// fleet lands mostly cold instead of materializing every window — while
// every observation stays readable bit-identically through the stubs.
func TestInlineBudgetSweep(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Sync: SyncNever, CompactEvery: -1, InlineBudget: 8}
	s := mustOpen(t, dir, opt)
	obs := pageFleet(64, 12, 15)
	if err := s.AppendBatch(obs); err != nil {
		t.Fatal(err)
	}
	if got := s.Apps(); got != 64 {
		t.Fatalf("Apps = %d, want 64", got)
	}
	if inline := s.Apps() - s.PagedApps(); inline > 8 {
		t.Fatalf("inline apps = %d, want <= budget 8", inline)
	}
	if s.Stats().PageOuts == 0 {
		t.Fatal("budget enforcement never paged out")
	}
	assertExactPrefix(t, s, obs)
	// Reading through the whole fleet must not blow the budget back up.
	if inline := s.Apps() - s.PagedApps(); inline > 8 {
		t.Fatalf("inline apps after read-through = %d, want <= 8", inline)
	}
	// RestoreWindow promotes, but enforcement keeps the steady state.
	for i := 0; i < 64; i += 7 {
		win, _, ok := s.RestoreWindow(appName(i))
		if !ok || len(win) != 12 {
			t.Fatalf("restore %s: ok=%v len=%d", appName(i), ok, len(win))
		}
	}
	if inline := s.Apps() - s.PagedApps(); inline > 8 {
		t.Fatalf("inline apps after restores = %d, want <= 8", inline)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Boot replay (pure WAL, no snapshot) re-enforces the budget as it
	// applies, so a million-app fleet does not materialize at startup.
	s2 := mustOpen(t, dir, opt)
	if inline := s2.Apps() - s2.PagedApps(); inline > 8 {
		t.Fatalf("inline apps after WAL replay = %d, want <= 8", inline)
	}
	assertExactPrefix(t, s2, obs)
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// And again from the snapshot: paged stubs load as stubs.
	s3 := mustOpen(t, dir, opt)
	defer s3.Close()
	if inline := s3.Apps() - s3.PagedApps(); inline > 8 {
		t.Fatalf("inline apps after snapshot boot = %d, want <= 8", inline)
	}
	assertExactPrefix(t, s3, obs)
}

// checkRoster requires the store's two maps to hold each app once, the
// inline budget's CLOCK to list every warm record exactly once at its
// index and nothing else, and every count derived from the maps — Apps,
// PagedApps, the total, the pager's live bytes and Stats().WindowBytes —
// to equal a recount.
func checkRoster(t *testing.T, s *Store, when string) {
	t.Helper()
	warm, cold, windowBytes, problem := recountRoster(s)
	if problem != "" {
		t.Fatalf("%s: %s", when, problem)
	}
	if st := s.Stats(); s.Apps() != warm+cold || s.PagedApps() != cold || st.Apps != warm+cold ||
		st.PagedApps != cold || st.WindowBytes != windowBytes {
		t.Fatalf("%s: Apps %d, PagedApps %d, Stats %+v; want %d warm + %d cold apps and %d window bytes",
			when, s.Apps(), s.PagedApps(), st, warm, cold, windowBytes)
	}
}

// recountRoster counts s's warm and cold apps and window bytes under its
// lock, and names the first invariant of checkRoster's that fails.
func recountRoster(s *Store) (warm, cold int, windowBytes int64, problem string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total, pageBytes int64
	for app, st := range s.warm {
		if s.cold[app] != nil {
			return 0, 0, 0, app + " is both warm and cold"
		}
		total += st.total
		windowBytes += int64(st.cw.MemBytes())
	}
	for _, c := range s.cold {
		total += c.total
		pageBytes += int64(c.ref.recLen)
	}
	if total != s.total || pageBytes != s.pg.liveBytes {
		return 0, 0, 0, fmt.Sprintf("total %d and live page bytes %d, want the recounts %d and %d", s.total, s.pg.liveBytes, total, pageBytes)
	}
	listed := 0
	if s.opt.InlineBudget > 0 {
		listed = len(s.warm)
	}
	if len(s.clock) != listed {
		return 0, 0, 0, fmt.Sprintf("%d clock entries, want %d", len(s.clock), listed)
	}
	for i, e := range s.clock {
		if s.warm[e.app] != e.st || e.st.clock != uint32(i) {
			return 0, 0, 0, fmt.Sprintf("clock entry %d (%s) is not its app's warm record at its index", i, e.app)
		}
	}
	return len(s.warm), len(s.cold), windowBytes, ""
}

// TestInlineClockListsWarmApps drives a store over its inline budget
// through appends, explicit page-outs, page-ins of the whole fleet, new
// apps and a reopen: after each, every warm app is in the CLOCK once, the
// sweep pages out no record that left the warm map, and the budget
// holds. An app touched since the hand last passed is spared by the
// next page-out for a colder one.
func TestInlineClockListsWarmApps(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Sync: SyncNever, CompactEvery: -1, InlineBudget: 4}
	s := mustOpen(t, dir, opt)
	obs := pageFleet(16, 6, 31)
	if err := s.AppendBatch(obs); err != nil {
		t.Fatal(err)
	}
	within := func(when string) {
		t.Helper()
		checkRoster(t, s, when)
		if inline := s.Apps() - s.PagedApps(); inline > 4 {
			t.Fatalf("%s: %d apps inline, over the budget of 4", when, inline)
		}
	}
	within("after the fleet's appends")
	for i := 0; i < 16; i += 5 {
		s.PageOut(appName(i))
		s.RestoreWindow(appName(i + 1))
	}
	within("after page-outs and page-ins")
	for i := 15; i >= 0; i-- {
		if _, _, ok := s.RestoreWindow(appName(i)); !ok {
			t.Fatalf("%s missing", appName(i))
		}
	}
	within("after a page-in of every app")
	for i := 0; i < 8; i++ {
		if err := s.Append("fresh-"+strconv.Itoa(i), 2); err != nil {
			t.Fatal(err)
		}
	}
	within("after fresh apps")

	// Second chance: of the warm apps, the one just touched survives the
	// page-out the next new app forces.
	warm := s.clock[0].app
	for _, e := range s.clock {
		e.st.touched = false
	}
	s.RestoreWindow(warm)
	if err := s.Append("newcomer", 1); err != nil {
		t.Fatal(err)
	}
	within("after a newcomer")
	if s.warm[warm] == nil {
		t.Fatalf("%s, touched since the hand passed, was paged out", warm)
	}
	s.Close()
	s = mustOpen(t, dir, opt)
	defer s.Close()
	within("after a reopen")
	if err := s.Append(appName(15), 3); err != nil {
		t.Fatal(err)
	}
	within("after a reopen and an append")
}
