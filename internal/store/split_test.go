package store

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// splitFleet seeds n stopped shards: 30 apps routed by ShardOf(app, n),
// a tight inline budget so most are cold (paged) in the snapshot, and a
// WAL tail behind it for a third of them, so each shard reopens with
// cold apps, warm apps and a tail to replay. It returns the shard
// directories and every app's window, which is also its total.
func splitFleet(t *testing.T, n int) (dirs []string, wins map[string][]float64) {
	t.Helper()
	opt := Options{Sync: SyncNever, CompactEvery: -1, InlineBudget: 3}
	stores := make([]*Store, n)
	for i := range stores {
		dirs = append(dirs, t.TempDir())
		stores[i] = mustOpen(t, dirs[i], opt)
	}
	obs := append(pageFleet(30, 24, int64(n)), pageFleet(10, 6, int64(n)+1)...)
	for k, o := range obs {
		if err := stores[ShardOf(o.App, n)].Append(o.App, o.Concurrency); err != nil {
			t.Fatal(err)
		}
		if k == 30*24-1 {
			for _, st := range stores {
				if err := st.Compact(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for i, st := range stores {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st = mustOpen(t, dirs[i], Options{CompactEvery: -1})
		if st.PagedApps() == 0 || st.PagedApps() == st.Apps() {
			t.Fatalf("setup: shard %d reopens with %d of %d apps cold, want some", i, st.PagedApps(), st.Apps())
		}
		st.Close()
	}
	return dirs, buildWindows(obs)
}

// assertSplit requires the m stores in dirs to hold exactly wins, each
// app only on its owner ShardOf(app, m), with totals conserved.
func assertSplit(t *testing.T, dirs []string, wins map[string][]float64) {
	t.Helper()
	var apps int
	for i, dir := range dirs {
		st := mustOpen(t, dir, Options{Sync: SyncNever, CompactEvery: -1})
		var total int64
		for app, got := range windowsOf(st) {
			want := wins[app]
			if owner := ShardOf(app, len(dirs)); owner != i {
				t.Fatalf("%q is on shard %d of %d, its owner is %d", app, i, len(dirs), owner)
			}
			if len(got) != len(want) {
				t.Fatalf("%q: window of %d, want %d", app, len(got), len(want))
			}
			for k := range want {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("%q value %d = %v, want %v", app, k, got[k], want[k])
				}
			}
			total += int64(len(want))
		}
		if st.TotalObservations() != total {
			t.Fatalf("shard %d: total %d, want %d", i, st.TotalObservations(), total)
		}
		apps += st.Apps()
		st.Close()
	}
	if apps != len(wins) {
		t.Fatalf("%d apps after the split, want %d", apps, len(wins))
	}
}

// sourceState is what a stopped shard must reopen to.
type sourceState struct {
	wins  map[string][]float64
	total int64
}

func readSources(t *testing.T, dirs []string) []sourceState {
	t.Helper()
	out := make([]sourceState, len(dirs))
	for i, dir := range dirs {
		st := mustOpen(t, dir, Options{Sync: SyncNever, CompactEvery: -1})
		out[i] = sourceState{windowsOf(st), st.TotalObservations()}
		st.Close()
	}
	return out
}

func assertSourcesUnchanged(t *testing.T, dirs []string, before []sourceState) {
	t.Helper()
	for i, now := range readSources(t, dirs) {
		if now.total != before[i].total || len(now.wins) != len(before[i].wins) {
			t.Fatalf("source %d: %d apps and %d observations, want %d and %d",
				i, len(now.wins), now.total, len(before[i].wins), before[i].total)
		}
		for app, want := range before[i].wins {
			if got := now.wins[app]; fmt.Sprint(float64Bits(got)) != fmt.Sprint(float64Bits(want)) {
				t.Fatalf("source %d: %q changed", i, app)
			}
		}
	}
}

func assertEmptyDirs(t *testing.T, dirs []string) {
	t.Helper()
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Fatalf("destination %s holds %d entries after a failed split, want none", dir, len(entries))
		}
	}
}

// TestSplitMovesEveryApp is the store-level half of the resize check:
// across 1->2, 2->3, 3->2 and 2->2, every app, warm or cold, lands only
// on its new owner with a Float64bits-equal window and its total.
func TestSplitMovesEveryApp(t *testing.T) {
	for _, c := range []struct{ from, to int }{{1, 2}, {2, 3}, {3, 2}, {2, 2}} {
		t.Run(fmt.Sprintf("%d->%d", c.from, c.to), func(t *testing.T) {
			srcs, wins := splitFleet(t, c.from)
			var dsts []string
			for i := 0; i < c.to; i++ {
				dsts = append(dsts, filepath.Join(t.TempDir(), "new"))
			}
			if _, err := Split(srcs, dsts); err != nil {
				t.Fatal(err)
			}
			assertSplit(t, dsts, wins)
		})
	}
}

// TestSplitRefusesNonEmptyDestination: a destination that holds anything,
// one named twice or also a source, a missing source, and an app held by
// two sources are refused, and nothing is written anywhere.
func TestSplitRefusesNonEmptyDestination(t *testing.T) {
	srcs, _ := splitFleet(t, 2)
	before := readSources(t, srcs)
	busy := t.TempDir()
	if err := os.WriteFile(filepath.Join(busy, "keep"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	dupDir := t.TempDir()
	dup := mustOpen(t, dupDir, Options{Sync: SyncNever, CompactEvery: -1})
	if err := dup.Append(appName(0), 1); err != nil {
		t.Fatal(err)
	}
	dup.Close()
	fresh := func() string { return filepath.Join(t.TempDir(), "new") }

	for _, c := range []struct {
		name       string
		srcs, dsts []string
	}{
		{"non-empty destination", srcs, []string{fresh(), busy, fresh()}},
		{"source as destination", srcs, []string{fresh(), srcs[1]}},
		{"destination named twice", srcs, []string{busy + "/../" + filepath.Base(busy) + "-x", busy + "-x"}},
		{"missing source", []string{srcs[0], fresh()}, []string{fresh()}},
		{"app in two sources", []string{srcs[0], srcs[1], dupDir}, []string{fresh(), fresh()}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Split(c.srcs, c.dsts); err == nil {
				t.Fatal("split succeeded")
			}
			for _, dst := range c.dsts {
				if dst == busy || dst == srcs[1] {
					continue
				}
				assertEmptyDirs(t, []string{dst})
			}
			if entries, _ := os.ReadDir(busy); len(entries) != 1 {
				t.Fatalf("the non-empty destination now holds %d entries", len(entries))
			}
			assertSourcesUnchanged(t, srcs, before)
		})
	}
}

// TestSplitFaultAtEveryDestination fails the write, fsync or close of the
// k-th destination's snapshot, for every k of a 2->3 split. Each time the
// split reports the error, every source reopens to its pre-split state,
// every destination is left empty, and running the split again succeeds.
func TestSplitFaultAtEveryDestination(t *testing.T) {
	srcs, wins := splitFleet(t, 2)
	before := readSources(t, srcs)
	for k := 0; k < 3; k++ {
		for _, mode := range []string{"write", "sync", "close"} {
			t.Run(fmt.Sprintf("dst=%d/%s", k, mode), func(t *testing.T) {
				var dsts []string
				devs := make([]device, 3)
				for i := range devs {
					dsts = append(dsts, filepath.Join(t.TempDir(), "new"))
					dev, err := openDir(dsts[i])
					if err != nil {
						t.Fatal(err)
					}
					devs[i] = dev
				}
				armed, err := true, map[string]error{"write": errShortWrite, "sync": syscall.EIO, "close": syscall.EIO}[mode]
				devs[k] = &faultDevice{devs[k], faultOnce(&armed, mode, snapPrefix, err)}
				if _, err := split(srcs, devs); err == nil {
					t.Fatal("split succeeded through the fault")
				}
				assertSourcesUnchanged(t, srcs, before)
				assertEmptyDirs(t, dsts)
				if _, err := Split(srcs, dsts); err != nil {
					t.Fatalf("retry: %v", err)
				}
				assertSplit(t, dsts, wins)
			})
		}
	}
}

// TestSplitWritesOnlyDestinations lists every file of the sources and
// destinations before and after a 2->3 split. The sources, one ending in
// a torn WAL frame and one holding a snapshot temp file, as a crash
// leaves them, must be byte-identical afterwards: Split reads around
// both and repairs neither, and writes no WAL segment there. Each
// destination must hold exactly its snapshot, and the counts Split
// returns must be what each destination reopens to.
func TestSplitWritesOnlyDestinations(t *testing.T) {
	srcs, wins := splitFleet(t, 2)
	segs, err := listSeqs(srcs[0], segPrefix, segSuffix)
	if err != nil || len(segs) == 0 {
		t.Fatalf("setup: source segments %v, %v", segs, err)
	}
	f, err := os.OpenFile(filepath.Join(srcs[0], segName(segs[len(segs)-1])), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0, 0, 1, 2}); err != nil { // half a frame header
		t.Fatal(err)
	}
	f.Close()
	if err := os.WriteFile(filepath.Join(srcs[1], snapName(9)+snapTempSuffix), []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := make([]map[string]string, len(srcs))
	for i, src := range srcs {
		before[i] = dirFiles(t, src)
	}
	var dsts []string
	for i := 0; i < 3; i++ {
		dsts = append(dsts, filepath.Join(t.TempDir(), "new"))
	}
	counts, err := Split(srcs, dsts)
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range srcs {
		after := dirFiles(t, src)
		if len(after) != len(before[i]) {
			t.Errorf("source %d: %d files before the split, %d after: %v", i, len(before[i]), len(after), listDir(t, src))
		}
		for name, data := range before[i] {
			if after[name] != data {
				t.Errorf("source %d: %s changed", i, name)
			}
		}
	}
	want := make([]SplitCount, len(dsts))
	for app, win := range wins {
		i := ShardOf(app, len(dsts))
		want[i].Apps++
		want[i].Observations += int64(len(win))
	}
	for i, dst := range dsts {
		if names := listDir(t, dst); len(names) != 1 || names[0] != snapName(splitSnapSeq) {
			t.Errorf("destination %d holds %v, want its snapshot alone", i, names)
		}
		if counts[i] != want[i] {
			t.Errorf("destination %d: Split counted %+v, want %+v", i, counts[i], want[i])
		}
	}
	assertSplit(t, dsts, wins)
}
