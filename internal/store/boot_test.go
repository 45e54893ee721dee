package store

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// BenchmarkOpen measures boot: Open, then Close, of a data directory
// written the way the serving benchmark seeds one, per app and (for a
// WAL-only directory) per replayed value.
//
//	stubs/N        N apps of 298 values written app-major under an
//	               inline budget of 512, then a compaction — a snapshot
//	               of 512 windows and N-512 page stubs — then a WAL tail
//	               of two minute-major rounds in batches of 64, whose
//	               replay pages each app in and another out
//	snapshot/5000  stubs/5000 without the WAL tail: the snapshot load
//	               alone
//	tail1440       1,000 apps of 1,440 values, minute-major in the WAL
//	               alone and with no budget: replay is appends to windows
//	               that start empty, which grow step by step
//
// Files an iteration adds (replay's page-outs, a fresh WAL segment) are
// removed outside the timer, so every iteration opens the same directory.
func BenchmarkOpen(b *testing.B) {
	for _, c := range []struct {
		name                       string
		apps, values, tail, budget int
		perValue                   bool
	}{
		{name: "stubs/5000", apps: 5000, values: 298, tail: 2, budget: 512},
		{name: "snapshot/5000", apps: 5000, values: 298, budget: 512},
		{name: "stubs/50000", apps: 50000, values: 298, tail: 2, budget: 512},
		{name: "tail1440", apps: 1000, tail: 1440, perValue: true},
	} {
		b.Run(c.name, func(b *testing.B) {
			dir := b.TempDir()
			opt := Options{Sync: SyncNever, CompactEvery: -1, SegmentBytes: 1 << 30, InlineBudget: c.budget}
			seedBootDir(b, dir, opt, c.apps, c.values, c.tail)
			seeded, err := dirDevice(dir).list()
			if err != nil {
				b.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for range b.N {
				s, err := Open(dir, opt)
				if err != nil {
					b.Fatal(err)
				}
				if s.Apps() != c.apps {
					b.Fatalf("reopened %d apps, want %d", s.Apps(), c.apps)
				}
				s.Close()
				b.StopTimer()
				runtime.ReadMemStats(&after)
				files, _ := dirDevice(dir).list()
				for name := range files {
					if _, ok := seeded[name]; !ok {
						dirDevice(dir).remove(name)
					}
				}
				b.StartTimer()
			}
			b.StopTimer()
			apps := float64(b.N) * float64(c.apps)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/apps, "ns/app")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/apps, "B/app")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/apps, "allocs/app")
			if c.perValue {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/apps/float64(c.tail), "ns/value")
			}
		})
	}
}

// seedBootDir writes apps' values app-major into a fresh store in dir,
// compacts it if it wrote any, then appends tail minute-major rounds in
// batches of 64, and closes it. Values are quarters below a per-app scale
// of 1-16, zero half the time.
func seedBootDir(b *testing.B, dir string, opt Options, apps, values, tail int) {
	b.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(apps)))
	names, scales := make([]string, apps), make([]int, apps)
	value := func(a int) float64 {
		if rng.Intn(2) == 0 {
			return 0
		}
		return float64(rng.Intn(4*scales[a])) / 4
	}
	obs := make([]Observation, values)
	for a := range names {
		names[a], scales[a] = fmt.Sprintf("app-%05d", a), 1+rng.Intn(16)
		for i := range obs {
			obs[i] = Observation{App: names[a], Concurrency: value(a)}
		}
		if err := s.AppendBatch(obs); err != nil {
			b.Fatal(err)
		}
		if s.appended >= 1<<20 { // bound the WAL the seeding leaves on disk
			if err := s.Compact(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if values > 0 {
		if err := s.Compact(); err != nil {
			b.Fatal(err)
		}
	}
	batch := make([]Observation, 0, 64)
	for range tail {
		for a, app := range names {
			batch = append(batch, Observation{App: app, Concurrency: value(a)})
			if len(batch) == cap(batch) || a == apps-1 {
				if err := s.AppendBatch(batch); err != nil {
					b.Fatal(err)
				}
				batch = batch[:0]
			}
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}
