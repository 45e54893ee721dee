package store

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"
)

// TestBackendConformance drives one random op sequence through a
// directory store and a memory store and requires the same state from
// both at every read and at the end: Float64bits-equal windows, equal
// memos, totals and rosters. The directory side is also paged out and
// compacted along the way, which the memory side accepts as no-ops, and
// the memory store never creates a file.
func TestBackendConformance(t *testing.T) {
	before := listDir(t, ".")
	testBackendConformance(t)
	if after := listDir(t, "."); !reflect.DeepEqual(before, after) {
		t.Errorf("working directory changed: %v -> %v", before, after)
	}
}

func listDir(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

func testBackendConformance(t *testing.T) {
	memory := OpenMemory()
	stores := []*Store{mustOpen(t, t.TempDir(), Options{Sync: SyncNever, CompactEvery: -1}), memory}
	if stores[0].Durable() != true || memory.Durable() != false {
		t.Fatalf("Durable: directory %v, memory %v", stores[0].Durable(), memory.Durable())
	}
	each := func(what string, f func(s *Store) error) {
		t.Helper()
		for i, s := range stores {
			if err := f(s); err != nil {
				t.Fatalf("%s on store %d: %v", what, i, err)
			}
		}
	}
	// same runs a read on both stores and requires equal answers.
	same := func(what string, read func(s *Store) any) {
		t.Helper()
		if a, b := read(stores[0]), read(stores[1]); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: directory %+v, memory %+v", what, a, b)
		}
	}
	type restored struct {
		n    int
		bits []uint64
		memo Memo
		ok   bool
	}
	apps := make([]string, 9)
	for i := range apps {
		apps[i] = appName(i)
	}

	rng := rand.New(rand.NewSource(18))
	value := func() float64 { return float64(rng.Intn(2000)) / 8 * float64(rng.Intn(3)) }
	for op := 0; op < 1500; op++ {
		app := apps[rng.Intn(len(apps))]
		when := fmt.Sprintf("op %d", op)
		switch r := rng.Intn(100); {
		case r < 35:
			v := value()
			each("Append", func(s *Store) error { return s.Append(app, v) })
		case r < 50:
			batch := make([]Observation, 1+rng.Intn(20))
			for i := range batch {
				batch[i] = Observation{App: apps[rng.Intn(len(apps))], Concurrency: value()}
			}
			each("AppendBatch", func(s *Store) error { return s.AppendBatch(batch) })
		case r < 58:
			m := Memo{Len: uint32(rng.Intn(50)), Gen: uint32(1 + rng.Intn(3)), Group: uint8(rng.Intn(4))}
			each("SetMemo", func(s *Store) error { s.SetMemo(app, m); return nil })
		case r < 76:
			same(when+": RestoreMemo", func(s *Store) any {
				_, n, memo, _, ok := s.RestoreMemo(app) // paged is the one answer that may differ
				return restored{n, float64Bits(s.Window(app)), memo, ok}
			})
		case r < 86:
			same(when+": exportApp", func(s *Store) any {
				win, total, ok := s.exportApp(app)
				return []any{float64Bits(win), total, ok}
			})
		case r < 96:
			each("PageOut", func(s *Store) error { return s.PageOut(app) })
		default:
			each("Compact", func(s *Store) error { return s.Compact() })
		}
	}

	same("AppNames", func(s *Store) any { return s.AppNames() })
	same("TotalObservations", func(s *Store) any { return s.TotalObservations() })
	same("Apps", func(s *Store) any { return s.Apps() })
	for _, app := range apps {
		same(app+": Window", func(s *Store) any { return float64Bits(s.Window(app)) })
		same(app+": final state", func(s *Store) any {
			win, total, ok := s.exportApp(app)
			_, _, memo, _, _ := s.RestoreMemo(app)
			return []any{float64Bits(win), total, ok, memo}
		})
	}
	if stores[0].Stats().PageOuts == 0 {
		t.Error("the directory store never paged an app out: the sequence is too tame")
	}
	if st := memory.Stats(); st.Apps != memory.Apps() || st.Observations != memory.TotalObservations() ||
		st.PagedApps+st.PageFiles+st.Segments+st.Snapshots != 0 || st.WALBytes+st.PageBytes != 0 || st.WindowBytes == 0 {
		t.Errorf("memory Stats = %+v", st)
	}

	each("Sync", (*Store).Sync)
	each("Close", (*Store).Close)
	for i, s := range stores {
		if err := s.Append(apps[0], 1); err == nil {
			t.Errorf("store %d accepted an append after Close", i)
		}
	}
}

// TestMemoryStoreSyncsNothing: what a memory-store femuxd does —
// appends, a batch larger than a default WAL segment, page-outs,
// restores — makes no fsync and no file, as before the store ran on a
// device: the store is SyncNever, never rotates its segment and never
// compacts on its own, and a page-out is a no-op.
func TestMemoryStoreSyncsNothing(t *testing.T) {
	before := listDir(t, ".")
	s := OpenMemory()
	defer s.Close()
	for i := 0; i < 100; i++ {
		if err := s.Append(appName(i%5), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	batch := make([]Observation, 1<<18) // > 4 MiB of framed records
	for i := range batch {
		batch[i] = Observation{App: appName(i % 5), Concurrency: float64(i) / 4}
	}
	if err := s.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.PageOut(appName(i)); err != nil {
			t.Fatal(err)
		}
		if _, paged, ok := s.RestoreWindow(appName(i)); paged || !ok {
			t.Fatalf("RestoreWindow(%s): paged %v, ok %v", appName(i), paged, ok)
		}
	}
	st := s.Stats()
	if st.Fsyncs != 0 || st.PageOuts != 0 || st.PagedApps != 0 || st.Observations != 100+1<<18 ||
		st.Segments+st.PageFiles+st.Snapshots != 0 || st.WALBytes+st.PageBytes != 0 {
		t.Fatalf("memory Stats = %+v", st)
	}
	if s.Durable() {
		t.Fatal("a memory store reports Durable")
	}
	if after := listDir(t, "."); !reflect.DeepEqual(before, after) {
		t.Errorf("working directory changed: %v -> %v", before, after)
	}
}

// TestFsyncsCountDiskSyncsOnly pins what Stats().Fsyncs (and so
// femux_store_fsyncs_total) counts: an fsync that reached a disk. A
// memory store's Sync and Compact reach none and read 0; a directory
// store counts each segment fsync.
func TestFsyncsCountDiskSyncsOnly(t *testing.T) {
	for _, c := range []struct {
		name string
		open func() *Store
		want int64
	}{
		{"memory", OpenMemory, 0},
		{"dir", func() *Store { return mustOpen(t, t.TempDir(), Options{Sync: SyncNever, CompactEvery: -1}) }, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := c.open()
			defer s.Close()
			for _, step := range []func() error{
				func() error { return s.Append("a", 1) },
				s.Sync,
				func() error { return s.Append("a", 2) },
				s.Compact,
				s.Sync, // nothing written since: no fsync
			} {
				if err := step(); err != nil {
					t.Fatal(err)
				}
			}
			if got := s.Stats().Fsyncs; got != c.want {
				t.Errorf("Fsyncs = %d, want %d", got, c.want)
			}
		})
	}
}

func float64Bits(win []float64) []uint64 {
	bits := make([]uint64, len(win))
	for i, v := range win {
		bits[i] = math.Float64bits(v)
	}
	return bits
}

// TestStatsListsOutsideTheLock pins the /metrics satellite: Stats reads
// the store's counters under the append mutex and lists the directory
// after releasing it, so scraping a directory with many segments does not
// hold up appends. With back-to-back Stats calls in flight, an append
// behind a listing would take about as long as Stats does; in front of it,
// a small fraction.
func TestStatsListsOutsideTheLock(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Sync: SyncNever, CompactEvery: -1, SegmentBytes: 1}) // a segment per append
	defer s.Close()
	const segments = 400
	for i := 0; i < segments; i++ {
		if err := s.Append(appName(i%7), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var walBytes int64
	files, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		walBytes += fi.Size()
	}
	if st := s.Stats(); st.Segments != len(files) || st.Segments <= segments || st.WALBytes != walBytes ||
		st.Observations != segments || st.Apps != 7 || st.Snapshots != 0 || st.PageFiles != 0 {
		t.Fatalf("Stats = %+v, want %d segments of %d bytes", st, len(files), walBytes)
	}

	s.mu.Lock()
	s.w.segBytes = 1 << 30 // the timed appends write, and do not rotate
	s.mu.Unlock()
	stop, scraped := make(chan struct{}), make(chan []time.Duration)
	go func() {
		var took []time.Duration
		for {
			select {
			case <-stop:
				scraped <- took
				return
			default:
			}
			start := time.Now()
			s.Stats()
			took = append(took, time.Since(start))
		}
	}()
	appends := make([]time.Duration, 400)
	for i := range appends {
		time.Sleep(50 * time.Microsecond) // land anywhere in the scraper's cycle
		start := time.Now()
		if err := s.Append(appName(0), 1); err != nil {
			t.Fatal(err)
		}
		appends[i] = time.Since(start)
	}
	close(stop)
	scrapes := <-scraped
	if len(scrapes) < 10 {
		t.Fatalf("only %d Stats calls overlapped %d appends", len(scrapes), len(appends))
	}
	median := func(d []time.Duration) time.Duration {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		return d[len(d)/2]
	}
	if a, st := median(appends), median(scrapes); a > st/4 {
		t.Errorf("median Append took %v beside Stats calls of %v: appends wait for the directory listing", a, st)
	}
}

// TestColdAppBytes pins what an app costs the store's live heap, its
// 8-byte name and map or index entry included: 5,000 apps of 300
// quarter-quantised values each on a directory store, measured after the
// store and one first app are in place. With an inline budget of 1, all
// but one are cold, and each holds a 40-byte entry of the cold table,
// its name in the table's arena and its index slots: ~57 B an app, where
// a 48-byte stub in a map cost ~100 B and a cold app that kept a whole
// warm record and a separate page ref ~179 B. With no budget every app is
// warm: its record, window, name and map entry cost ~734 B.
func TestColdAppBytes(t *testing.T) {
	for _, c := range []struct {
		name   string
		budget int
		max    float64 // B/app
	}{{"cold", 1, 64}, {"warm", 0, 1100}} {
		t.Run(c.name, func(t *testing.T) {
			const apps, n = 5000, 300
			rng := rand.New(rand.NewSource(47))
			obs := make([]Observation, n)
			s := mustOpen(t, t.TempDir(), Options{Sync: SyncNever, CompactEvery: -1, InlineBudget: c.budget})
			defer s.Close()
			seed := func(app string) {
				scale := 1 + rng.Intn(16)
				for i := range obs {
					obs[i] = Observation{App: app, Concurrency: float64(rng.Intn(4*scale)) / 4}
				}
				if err := s.AppendBatch(obs); err != nil {
					t.Fatal(err)
				}
			}
			// One app first, so the store's buffers and the process's
			// lazily built tables are in place before the base is read.
			seed("warm-up")
			base := liveHeap()
			// The names share one allocation, so each costs its 8 bytes
			// and no neighbour in a tiny-allocator block.
			var buf []byte
			for a := 0; a < apps; a++ {
				buf = fmt.Appendf(buf, "app-%04d", a)
			}
			names := string(buf)
			for a := 0; a < apps; a++ {
				seed(names[8*a : 8*a+8])
			}
			perApp := (float64(liveHeap()) - float64(base)) / apps
			runtime.KeepAlive(s)
			if want := apps + 1 - c.budget; c.budget > 0 && s.PagedApps() != want {
				t.Fatalf("%d cold apps, want %d", s.PagedApps(), want)
			}
			t.Logf("%.1f B/app", perApp)
			if perApp > c.max {
				t.Errorf("%.1f B of live heap per %s app, want at most %.0f", perApp, c.name, c.max)
			}
		})
	}
}

// liveHeap is HeapAlloc after two forced collections: the second frees
// what the first left in sync.Pool victim caches, which otherwise count
// in one reading and not the next.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
