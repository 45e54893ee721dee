// Package experiments implements every table and figure of the paper's
// characterization and evaluation as a callable function returning a
// structured result. The benchmark harness (bench_test.go) and the CLI
// tools (cmd/characterize, cmd/femux-sim, cmd/knative-emu) both drive these
// functions, so the numbers printed by `go test -bench` and by the tools
// are produced by the same code.
//
// Scales default to laptop size (this repository runs its full suite on a
// single core); every experiment accepts a Scale to grow toward the
// paper's production sizes.
package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/femux"
	"github.com/ubc-cirrus-lab/femux-go/internal/memo"
	"github.com/ubc-cirrus-lab/femux-go/internal/timeseries"
	"github.com/ubc-cirrus-lab/femux-go/internal/trace"
)

// FEMUX_CACHE_DIR switches the process cache to a disk-backed one before
// any experiment runs, so repeated invocations — the nightly CI full tier
// restoring an actions/cache directory, or local `go test` reruns — warm-
// start from prior results. Entries are content-addressed (trace bytes,
// geometry, forecaster names), so a restored directory only ever hits for
// identical inputs; anything else recomputes and is added.
func init() {
	if dir := os.Getenv("FEMUX_CACHE_DIR"); dir != "" {
		if err := SetCacheDir(dir); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: FEMUX_CACHE_DIR %q unusable (%v); using in-memory cache\n", dir, err)
		}
	}
}

// sweepWorkers bounds the goroutines used by experiment sweeps and by the
// femux configs they construct (0 = one per CPU). It is a process-wide
// knob set once at CLI startup (femux-sim/knative-emu -workers); results
// are bit-identical for any value because every sweep writes results by
// index and reduces serially.
var sweepWorkers int

// SetWorkers sets the sweep worker bound (0 = one per CPU).
func SetWorkers(n int) { sweepWorkers = n }

// sweepCache memoizes the pure pipeline stages (per-pair simulations,
// feature extraction, per-app evaluations) across every experiment in the
// process. The studies deliberately share fleets and geometry while
// varying the RUM metric, feature subset, or classifier — exactly the axes
// the cache keys exclude — so most trainings after the first reuse the
// bulk of their work. Cached results are bit-identical to uncached ones
// (internal/femux/cache_equiv_test.go), so sharing is safe by
// construction.
var sweepCache = memo.New()

// SetCacheDir switches the process cache to one that spills to dir, so
// repeated CLI runs warm-start across processes. Call before running
// experiments.
func SetCacheDir(dir string) error {
	c, err := memo.NewDisk(dir)
	if err != nil {
		return err
	}
	sweepCache = c
	return nil
}

// CacheStats reports the process cache's hit/miss counters.
func CacheStats() memo.Stats { return sweepCache.Stats() }

// Scale bounds an experiment's workload size.
type Scale struct {
	Seed int64
	Apps int
	Days float64
}

// AzureFleet synthesizes an Azure-2019-shape dataset and converts it to
// FeMux training apps: per-minute average concurrency derived from the
// published per-minute counts and daily-average execution times, with
// app-level memory (§5.1's transformation).
func AzureFleet(s Scale) []femux.TrainApp {
	ds := trace.GenerateAzure(trace.AzureGenConfig{
		Seed:    s.Seed,
		Apps:    s.Apps,
		Days:    int(s.Days + 0.5),
		Workers: sweepWorkers,
	})
	return AzureToTrainApps(ds)
}

// AzureToTrainApps converts an Azure-shape dataset to FeMux training apps.
func AzureToTrainApps(ds *trace.AzureDataset) []femux.TrainApp {
	apps := make([]femux.TrainApp, 0, len(ds.Apps))
	for _, a := range ds.Apps {
		exec := time.Duration(a.AvgExecSec * float64(time.Second))
		conc := timeseries.CountsToConcurrency(a.CountsPerMinute, time.Minute, exec)
		apps = append(apps, femux.TrainApp{
			Name:        a.Name,
			Demand:      conc,
			Invocations: a.CountsPerMinute,
			ExecSec:     a.AvgExecSec,
			MemoryGB:    a.MemoryGB,
		})
	}
	return apps
}

// ReadTrainApps reads a tracegen CSV pair (apps, invocations) and
// converts its millisecond events to FeMux training apps: per-minute
// average concurrency (queueing-free, every invocation counted from its
// arrival to its end) and per-minute arrival counts, over the minutes up
// to the trace's last invocation end, or over the first maxMinutes of
// them if that is fewer (0 = no cap): a caller that needs a window of a
// long trace builds no series past it.
func ReadTrainApps(appsPath, invPath string, maxMinutes int) ([]femux.TrainApp, error) {
	af, err := os.Open(appsPath)
	if err != nil {
		return nil, err
	}
	defer af.Close()
	inf, err := os.Open(invPath)
	if err != nil {
		return nil, err
	}
	defer inf.Close()
	ds, err := trace.ReadDataset(af, inf, 62*24*time.Hour)
	if err != nil {
		return nil, err
	}
	var maxEnd time.Duration
	for _, a := range ds.Apps {
		for _, inv := range a.Invocations {
			maxEnd = max(maxEnd, inv.Arrival+inv.Duration)
		}
	}
	minutes := int(maxEnd/time.Minute) + 1
	if maxMinutes > 0 {
		minutes = min(minutes, maxMinutes)
	}
	apps := make([]femux.TrainApp, 0, len(ds.Apps))
	for _, a := range ds.Apps {
		spans := make([]timeseries.Interval, len(a.Invocations))
		counts := make([]float64, minutes)
		var execSum float64
		for i, inv := range a.Invocations {
			spans[i] = timeseries.Interval{Start: inv.Arrival, End: inv.Arrival + inv.Duration}
			if m := int(inv.Arrival / time.Minute); m >= 0 && m < minutes {
				counts[m]++
			}
			execSum += inv.Duration.Seconds()
		}
		apps = append(apps, femux.TrainApp{
			Name:            a.Name,
			Demand:          timeseries.AverageConcurrency(spans, time.Minute, minutes),
			Invocations:     counts,
			ExecSec:         execSum / float64(max(len(a.Invocations), 1)),
			MemoryGB:        a.Config.MemoryGB,
			UnitConcurrency: a.Config.Concurrency,
		})
	}
	return apps, nil
}

// SplitTrainTest partitions apps into train and test sets with the paper's
// 70-30 split, shuffled deterministically.
func SplitTrainTest(apps []femux.TrainApp, seed int64) (train, test []femux.TrainApp) {
	idx := rand.New(rand.NewSource(seed)).Perm(len(apps))
	cut := len(apps) * 7 / 10
	for i, j := range idx {
		if i < cut {
			train = append(train, apps[j])
		} else {
			test = append(test, apps[j])
		}
	}
	return train, test
}

// VolumeClasses partitions apps into the three §4.2.2 popularity tiers by
// total invocation count, using dataset-relative thresholds (the paper's
// absolute 1M/100M thresholds scaled to the synthetic volume): the top
// ~15% of apps by volume are "high", the next ~35% "mid", the rest "low".
func VolumeClasses(apps []femux.TrainApp) map[string][]femux.TrainApp {
	type appVol struct {
		app femux.TrainApp
		vol float64
	}
	vols := make([]appVol, len(apps))
	for i, a := range apps {
		var v float64
		for _, c := range a.Invocations {
			v += c
		}
		vols[i] = appVol{app: a, vol: v}
	}
	// Sort descending by volume (insertion; fleets are small).
	for i := 1; i < len(vols); i++ {
		for j := i; j > 0 && vols[j].vol > vols[j-1].vol; j-- {
			vols[j], vols[j-1] = vols[j-1], vols[j]
		}
	}
	out := map[string][]femux.TrainApp{}
	hi := len(vols) * 15 / 100
	mid := len(vols) * 50 / 100
	for i, av := range vols {
		switch {
		case i < hi:
			out["high"] = append(out["high"], av.app)
		case i < mid:
			out["mid"] = append(out["mid"], av.app)
		default:
			out["low"] = append(out["low"], av.app)
		}
	}
	return out
}
