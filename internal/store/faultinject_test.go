package store

import (
	"fmt"
	"math"
	"testing"

	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
)

// This file is the crash/failover fault-injection suite: the replication
// protocol is driven through a fixed, deterministic schedule, and the
// primary is killed at EVERY protocol step. At each kill point the suite
// asserts the guarantees the single-shard kill-at-every-byte-offset suite
// already pins, extended to a primary and its follower:
//
//   - the follower always holds an exact prefix of the acknowledged
//     observation sequence — never a gap, never a reorder, never a
//     torn partial batch;
//   - promoting the follower and serving from it yields forecasts
//     Float64bits-identical to an unkilled control store fed the same
//     observations;
//   - restarting the killed primary and resuming replication converges
//     the pair back to bit-identical state.
//
// "Kill" means abandoning the *Store object without Close and reopening
// its directory — the in-process equivalent of SIGKILL: no flush hook
// runs, recovery sees only what the WAL already made durable.

// replStep is one step of the deterministic failover schedule.
type replStep struct {
	kind  string // "append", "fetch", "compact", "frestart"
	batch []Observation
}

// buildFailoverSchedule returns the schedule and the full acknowledged
// observation sequence in append order. The schedule deliberately mixes
// segment rotations (small SegmentBytes at run time), primary
// compactions that outrun the follower (forcing the ErrCompacted
// snapshot-bootstrap path), and a follower crash mid-stream.
func buildFailoverSchedule() (steps []replStep, acked []Observation) {
	apps := []string{"alpha", "beta", "gamma", "delta"}
	obsIdx := 0
	for round := 0; round < 8; round++ {
		var batch []Observation
		for j := 0; j <= round%3; j++ {
			batch = append(batch, Observation{
				App:         apps[(round+j)%len(apps)],
				Concurrency: float64(obsIdx)*1.25 + 0.0625,
			})
			obsIdx++
		}
		steps = append(steps, replStep{kind: "append", batch: batch})
		if round%2 == 1 {
			steps = append(steps, replStep{kind: "fetch"})
		}
		if round == 3 || round == 6 {
			steps = append(steps, replStep{kind: "compact"})
		}
		if round == 4 {
			steps = append(steps, replStep{kind: "frestart"})
		}
	}
	steps = append(steps, replStep{kind: "fetch"})
	for _, s := range steps {
		acked = append(acked, s.batch...)
	}
	return steps, acked
}

// runFailoverSchedule replays steps[:upTo] against fresh stores in pdir
// and fdir. It returns the live stores plus bookkeeping about what the
// follower must now hold: ackedCount is how many observations the
// primary acknowledged, fetchedCount how many the follower had fetched
// at its last completed fetch step.
func runFailoverSchedule(t *testing.T, steps []replStep, pdir, fdir string) (primary, follower *Store, ackedCount, fetchedCount int) {
	t.Helper()
	opt := Options{Sync: SyncNever, SegmentBytes: 256, CompactEvery: -1}
	primary = mustOpen(t, pdir, opt)
	follower = mustOpen(t, fdir, opt)
	for _, s := range steps {
		switch s.kind {
		case "append":
			if err := primary.AppendBatch(s.batch); err != nil {
				t.Fatal(err)
			}
			ackedCount += len(s.batch)
		case "fetch":
			catchUp(t, primary, follower)
			fetchedCount = ackedCount
		case "compact":
			if err := primary.Compact(); err != nil {
				t.Fatal(err)
			}
		case "frestart":
			// Follower crash mid-stream: abandon and reopen.
			follower = mustOpen(t, fdir, opt)
		default:
			t.Fatalf("unknown step kind %q", s.kind)
		}
	}
	return primary, follower, ackedCount, fetchedCount
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

// failoverForecasters is the fixed panel used for the Float64bits
// forecast-identity assertions. A cross-section of the paper's set:
// window statistics, autoregression, and smoothing all consume the
// restored window differently.
func failoverForecasters() []forecast.Forecaster {
	return []forecast.Forecaster{
		forecast.NewMovingAverage(6),
		forecast.NewCeilPeak(4),
		forecast.NewAR(5),
		forecast.NewExpSmoothing(),
	}
}

// assertForecastsIdentical requires every forecaster in the panel to
// produce Float64bits-identical forecasts from both stores' windows.
func assertForecastsIdentical(t *testing.T, control, promoted *Store, horizon int) {
	t.Helper()
	fcs := failoverForecasters()
	cw, pw := control.Windows(), promoted.Windows()
	if len(cw) != len(pw) {
		t.Fatalf("control tracks %d apps, promoted %d", len(cw), len(pw))
	}
	for app, hist := range cw {
		ph, ok := pw[app]
		if !ok {
			t.Fatalf("app %q missing from promoted store", app)
		}
		for _, fc := range fcs {
			want := fc.Forecast(hist, horizon)
			got := fc.Forecast(ph, horizon)
			if len(want) != len(got) {
				t.Fatalf("app %q %s: horizon %d vs %d", app, fc.Name(), len(want), len(got))
			}
			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
					t.Fatalf("app %q %s forecast[%d] diverges after failover: %x vs %x",
						app, fc.Name(), i, math.Float64bits(want[i]), math.Float64bits(got[i]))
				}
			}
		}
	}
}

// TestFailoverKillAtEveryReplicationStep kills the primary after every
// step of the replication schedule and proves promotion is safe: the
// follower holds an exact acknowledged prefix, and serving from it
// (including new writes) is Float64bits-forecast-identical to a control
// store that never saw a failure.
func TestFailoverKillAtEveryReplicationStep(t *testing.T) {
	steps, acked := buildFailoverSchedule()
	for k := 0; k <= len(steps); k++ {
		k := k
		t.Run(fmt.Sprintf("kill=%d", k), func(t *testing.T) {
			_, follower, _, fetched := runFailoverSchedule(t, steps[:k], t.TempDir(), t.TempDir())
			// The primary dies here. The follower must hold EXACTLY the
			// acknowledged observations up to its last completed fetch —
			// a prefix, never a gap or reorder.
			prefix := acked[:fetched]
			assertExactPrefix(t, follower, prefix)

			// Promote: the follower now takes writes directly. A control
			// store is fed the identical sequence (prefix + post-failover
			// traffic) with no failure; forecasts must be bit-identical.
			post := []Observation{
				{App: "alpha", Concurrency: 9.5},
				{App: "epsilon", Concurrency: 1.0 / 3.0},
				{App: "beta", Concurrency: 7.25},
				{App: "alpha", Concurrency: 0.875},
			}
			if err := follower.AppendBatch(post); err != nil {
				t.Fatalf("promoted follower rejects writes: %v", err)
			}
			control := mustOpen(t, t.TempDir(), Options{Sync: SyncNever, CompactEvery: -1})
			defer control.Close()
			if err := control.AppendBatch(append(append([]Observation(nil), prefix...), post...)); err != nil {
				t.Fatal(err)
			}
			assertStoresEqual(t, control, follower)
			assertForecastsIdentical(t, control, follower, 4)
			follower.Close()
		})
	}
}

// TestFailoverResumeAtEveryReplicationStep kills the primary after every
// schedule step, restarts it from its directory (crash recovery), and
// resumes replication: the pair must converge to bit-identical state and
// keep streaming new appends — the "kill-primary -> restart -> resume
// replay" path the CI smoke exercises end-to-end.
func TestFailoverResumeAtEveryReplicationStep(t *testing.T) {
	steps, acked := buildFailoverSchedule()
	for k := 0; k <= len(steps); k++ {
		k := k
		t.Run(fmt.Sprintf("kill=%d", k), func(t *testing.T) {
			pdir := t.TempDir()
			opt := Options{Sync: SyncNever, SegmentBytes: 256, CompactEvery: -1}
			_, follower, ackedCount, _ := runFailoverSchedule(t, steps[:k], pdir, t.TempDir())
			defer follower.Close()

			// Kill + restart the primary: recovery must resurrect every
			// acknowledged observation (SyncNever is crash-safe in this
			// in-process simulation because the page cache survives; the
			// daemon uses SyncAlways for power-loss safety).
			primary := mustOpen(t, pdir, opt)
			defer primary.Close()
			assertExactPrefix(t, primary, acked[:ackedCount])

			// The follower resumes from its durable cursor against the
			// restarted primary and converges.
			catchUp(t, primary, follower)
			assertStoresEqual(t, primary, follower)

			// Replication keeps working after the failover.
			if err := primary.Append("zeta", 3.5); err != nil {
				t.Fatal(err)
			}
			catchUp(t, primary, follower)
			assertStoresEqual(t, primary, follower)
			assertForecastsIdentical(t, primary, follower, 4)
		})
	}
}
