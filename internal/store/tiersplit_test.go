package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"syscall"
	"testing"
)

// TestTierSplitConformance drives a random schedule through a store with
// an inline budget of 3, on a fault device, and through a control store
// with no budget, which never pages an app out: appends and batches,
// page-outs, restores, Recent reads, memos, compactions, reopens, and a
// failed page fsync before a compaction. After every step each app of the store is in exactly one of
// its warm and cold maps, the CLOCK lists exactly the warm ones, Apps,
// PagedApps, the total and Stats().WindowBytes equal a recount, and every
// window, total and memo is Float64bits-equal to the control's.
func TestTierSplitConformance(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { testTierSplit(t, seed) })
	}
}

func testTierSplit(t *testing.T, seed int64) {
	cd, ctlDev := newCrashDevice(), newCrashDevice()
	syncFault := false // fail the next page-file fsync
	inject := func(op, name string) error {
		if syncFault && op == "sync" && strings.HasPrefix(name, pagePrefix) {
			syncFault = false
			return syscall.EIO
		}
		return nil
	}
	dev := &faultDevice{cd, inject}
	opt := Options{Sync: SyncNever, CompactEvery: -1, InlineBudget: 3}
	ctlOpt := Options{Sync: SyncNever, CompactEvery: -1}
	s, ctl := mustOpenOn(t, dev, opt), mustOpenOn(t, ctlDev, ctlOpt)
	defer func() { s.Close(); ctl.Close() }()

	apps := make([]string, 10)
	for i := range apps {
		apps[i] = appName(i)
	}
	rng := rand.New(rand.NewSource(seed))
	value := func() float64 {
		if rng.Intn(3) == 0 {
			return rng.Float64() * 40 // goes raw
		}
		return float64(rng.Intn(64)) / 4
	}
	both := func(what string, f func(s *Store) error) {
		t.Helper()
		for i, st := range []*Store{s, ctl} {
			if err := f(st); err != nil {
				t.Fatalf("%s on store %d: %v", what, i, err)
			}
		}
	}
	pageOuts, syncFaults := 0, 0
	for step := 0; step < 400; step++ {
		app := apps[rng.Intn(len(apps))]
		var when string
		switch r := rng.Intn(100); {
		case r < 25:
			v := value()
			when = fmt.Sprintf("Append(%s, %v)", app, v)
			both(when, func(s *Store) error { return s.Append(app, v) })
		case r < 37:
			batch := make([]Observation, 1+rng.Intn(40))
			for i := range batch {
				batch[i] = Observation{App: apps[rng.Intn(len(apps))], Concurrency: value()}
			}
			when = fmt.Sprintf("AppendBatch of %d", len(batch))
			both(when, func(s *Store) error { return s.AppendBatch(batch) })
		case r < 51:
			when = "PageOut(" + app + ")"
			cold := s.PagedApps()
			if err := s.PageOut(app); err != nil { // the control never pages
				t.Fatalf("%s: %v", when, err)
			}
			if s.PagedApps() > cold {
				pageOuts++
			}
		case r < 63:
			when = "RestoreMemo(" + app + ")"
			_, n, m, _, ok := s.RestoreMemo(app)
			_, cn, cm, _, cok := ctl.RestoreMemo(app)
			if n != cn || m != cm || ok != cok {
				t.Fatalf("%s: %d values, memo %+v, ok %v; control %d, %+v, %v", when, n, m, ok, cn, cm, cok)
			}
		case r < 73:
			k, skip := 1+rng.Intn(80), rng.Intn(20)
			when = fmt.Sprintf("Recent(%s, %d, %d)", app, k, skip)
			if got, want := float64Bits(s.Recent(app, k, skip, nil)), float64Bits(ctl.Recent(app, k, skip, nil)); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s = %v, control %v", when, got, want)
			}
		case r < 81:
			m := Memo{Len: uint32(rng.Intn(100)), Gen: 1<<16 + uint32(rng.Intn(3)), Group: uint8(rng.Intn(4))}
			when = fmt.Sprintf("SetMemo(%s, %+v)", app, m)
			both(when, func(s *Store) error { s.SetMemo(app, m); return nil })
		case r < 90:
			when = "Compact"
			both(when, (*Store).Compact)
		case r < 95:
			when = "a failed page fsync, then Compact"
			syncFault = true
			both(when, (*Store).Compact)
			if !syncFault {
				syncFaults++
			}
			syncFault = false
		default:
			when = "reopen"
			both(when, (*Store).Close)
			s, ctl = mustOpenOn(t, dev, opt), mustOpenOn(t, ctlDev, ctlOpt)
		}
		when = fmt.Sprintf("step %d, %s", step, when)
		checkRoster(t, s, when)
		checkSameAs(t, s, ctl, when)
	}
	if pageOuts == 0 || syncFaults == 0 || s.Stats().PageOuts == 0 {
		t.Fatalf("%d explicit page-outs, %d page fsync failures, %d page-outs since the last reopen: the schedule is too tame",
			pageOuts, syncFaults, s.Stats().PageOuts)
	}
}

// checkSameAs requires s and ctl to hold the same apps with
// Float64bits-equal windows, equal totals and equal memos, reading s's
// cold apps from their pages without promoting them.
func checkSameAs(t *testing.T, s, ctl *Store, when string) {
	t.Helper()
	names := s.AppNames()
	if want := ctl.AppNames(); !reflect.DeepEqual(names, want) {
		t.Fatalf("%s: apps %v, control %v", when, names, want)
	}
	if got, want := s.TotalObservations(), ctl.TotalObservations(); got != want {
		t.Fatalf("%s: %d observations, control %d", when, got, want)
	}
	paged := s.PagedApps()
	for _, app := range names {
		win, total, _ := s.exportApp(app)
		cwin, ctotal, _ := ctl.exportApp(app)
		if !reflect.DeepEqual(float64Bits(win), float64Bits(cwin)) || total != ctotal {
			t.Fatalf("%s: %s holds %d values (total %d), control %d (total %d), or they differ",
				when, app, len(win), total, len(cwin), ctotal)
		}
		if m, cm := memoOf(s, app), memoOf(ctl, app); m != cm {
			t.Fatalf("%s: %s memo %+v, control %+v", when, app, m, cm)
		}
	}
	if s.PagedApps() != paged {
		t.Fatalf("%s: reading the windows paged %d apps in", when, paged-s.PagedApps())
	}
}

// memoOf reads an app's memo without restoring it.
func memoOf(s *Store, app string) Memo {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.warm[app]; st != nil {
		return st.memo()
	}
	if e := s.cold.get(app); e != nil {
		return e.memo()
	}
	return Memo{}
}
