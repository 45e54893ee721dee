package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/femux"
	"github.com/ubc-cirrus-lab/femux-go/internal/lifecycle"
	"github.com/ubc-cirrus-lab/femux-go/internal/rum"
	"github.com/ubc-cirrus-lab/femux-go/internal/timeseries"
)

// The regime-change study: the paper trains FeMux offline and ships a
// static classifier, which quietly assumes the fleet's block-feature
// distribution is stationary. This experiment breaks that assumption on
// purpose — every app's demand switches character partway through the
// trace — and compares a frozen model against the retrain lifecycle
// (drift detection -> retrain on recent windows -> shadow evaluation ->
// promotion) epoch by epoch. The headline: the static model's RUM
// degrades after the shift and stays degraded, while the lifecycle
// detects the drift, promotes a retrained candidate, and holds RUM flat.

// RegimeChangeFleet synthesizes s.Apps applications whose demand changes
// character at minute shiftMin: a smooth periodic regime before the
// shift, a spiky on/off regime at a much higher level after it. Per-app
// seeds follow the SparseFleet convention (s.Seed*1000003 + index), so
// the population is deterministic for a given Scale.
func RegimeChangeFleet(s Scale, shiftMin int) []femux.TrainApp {
	minutes := int(s.Days*1440 + 0.5)
	if minutes < 1 {
		minutes = 1
	}
	apps := make([]femux.TrainApp, 0, s.Apps)
	for a := 0; a < s.Apps; a++ {
		rng := rand.New(rand.NewSource(s.Seed*1000003 + int64(a)))
		base := 2 + 4*rng.Float64()             // regime-A level
		period := float64(240 + 60*rng.Intn(5)) // regime-A seasonality
		phase := rng.Float64() * period         //
		gap := 20 + rng.Intn(21)                // regime-B burst spacing
		burst := 2 + rng.Intn(3)                // regime-B burst width
		hi := 30 + 30*rng.Float64()             // regime-B burst height
		execSec := 0.5 + 1.5*rng.Float64()      // 0.5s..2s executions
		memGB := 0.25 * float64(1+rng.Intn(4))  // 256MB..1GB
		offset := rng.Intn(gap)                 // desynchronize bursts
		counts := make([]float64, minutes)
		for m := 0; m < minutes; m++ {
			if m < shiftMin {
				lam := base * (1 + 0.25*math.Sin(2*math.Pi*(float64(m)+phase)/period))
				counts[m] = math.Max(0, lam+0.3*rng.NormFloat64())
			} else if (m+offset)%gap < burst {
				counts[m] = hi * (1 + 0.1*rng.NormFloat64())
			}
		}
		conc := timeseries.CountsToConcurrency(counts, time.Minute,
			time.Duration(execSec*float64(time.Second)))
		apps = append(apps, femux.TrainApp{
			Name:        fmt.Sprintf("regime-%d", a),
			Demand:      conc,
			Invocations: counts,
			ExecSec:     execSec,
			MemoryGB:    memGB,
		})
	}
	return apps
}

// driftServing adapts the study's window bookkeeping to the
// lifecycle.Serving interface: snapshots are batch-recomputed from the
// windows accumulated so far, promotions just replace the live model.
type driftServing struct {
	model     *femux.Model
	windows   []lifecycle.AppWindow
	blockSize int
	swaps     int
}

func (d *driftServing) LifecycleSnapshot(driftThreshold float64) lifecycle.Snapshot {
	return lifecycle.SnapshotFromWindows(d.model, d.windows, d.blockSize, driftThreshold)
}

func (d *driftServing) SwapModel(m *femux.Model) { d.model = m; d.swaps++ }

// DriftEpochRow is one evaluation epoch of the study.
type DriftEpochRow struct {
	Epoch        int
	Regime       string // "A" before the shift, "B" after
	MaxDrift     float64
	Outcome      lifecycle.Outcome
	StaticRUM    float64
	LifecycleRUM float64
}

// DriftStudyResult compares the frozen model against the retrain
// lifecycle across the regime change.
type DriftStudyResult struct {
	Rows           []DriftEpochRow
	StaticTotal    float64
	LifecycleTotal float64
	Promotions     int
}

// Improvement is the fraction of the static model's post-shift RUM the
// lifecycle sheds (1 - lifecycle/static over regime-B epochs).
func (r DriftStudyResult) Improvement() float64 {
	var static, lc float64
	for _, row := range r.Rows {
		if row.Regime == "B" {
			static += row.StaticRUM
			lc += row.LifecycleRUM
		}
	}
	if static <= 0 {
		return 0
	}
	return 1 - lc/static
}

// String renders the epoch table plus totals.
func (r DriftStudyResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  %-6s %-7s %9s %-16s %12s %14s\n",
		"epoch", "regime", "maxDrift", "outcome", "static RUM", "lifecycle RUM")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-6d %-7s %9.2f %-16s %12.1f %14.1f\n",
			row.Epoch, row.Regime, row.MaxDrift, string(row.Outcome),
			row.StaticRUM, row.LifecycleRUM)
	}
	fmt.Fprintf(&b, "  %-6s %-7s %9s %-16s %12.1f %14.1f\n",
		"total", "", "", "", r.StaticTotal, r.LifecycleTotal)
	fmt.Fprintf(&b, "  promotions: %d, post-shift RUM reduction: %.1f%%\n",
		r.Promotions, 100*r.Improvement())
	return b.String()
}

// DriftStudy trains a model on the pre-shift epoch, then walks both arms
// through the remaining epochs: the static arm keeps the initial model
// forever; the lifecycle arm hands each epoch's windows to a
// lifecycle.Manager, whose cycle retrains on the trailing epoch when
// drift crosses the threshold and promotes candidates that win shadow
// evaluation. Epochs are evaluated before the cycle runs, so the
// lifecycle reacts one epoch behind the shift — exactly as it would live.
// The whole study is deterministic for a fixed Scale.
func DriftStudy(s Scale, epochs, shiftEpoch int) (DriftStudyResult, error) {
	var res DriftStudyResult
	if epochs < 3 || shiftEpoch < 1 || shiftEpoch >= epochs {
		return res, fmt.Errorf("drift: need 1 <= shiftEpoch < epochs (>= 3), got %d/%d", shiftEpoch, epochs)
	}
	minutes := int(s.Days*1440 + 0.5)
	epochMin := minutes / epochs
	cfg := expConfig(rum.Default())
	cfg.BlockSize = 60
	cfg.Window = 60
	cfg.K = 4
	cfg.Seed = s.Seed
	if epochMin < 2*cfg.BlockSize {
		return res, fmt.Errorf("drift: epochs of %d min too short for block size %d", epochMin, cfg.BlockSize)
	}
	fleet := RegimeChangeFleet(s, shiftEpoch*epochMin)

	// One epoch's slice of the fleet, sharing the precomputed concurrency.
	epochApps := func(e int) []femux.TrainApp {
		lo, hi := e*epochMin, (e+1)*epochMin
		apps := make([]femux.TrainApp, len(fleet))
		for i, a := range fleet {
			apps[i] = femux.TrainApp{
				Name:        a.Name,
				Demand:      timeseries.New(time.Minute, a.Demand.Values[lo:hi]),
				Invocations: a.Invocations[lo:hi],
				ExecSec:     a.ExecSec,
				MemoryGB:    a.MemoryGB,
			}
		}
		return apps
	}

	static, err := femux.Train(epochApps(0), cfg)
	if err != nil {
		return res, err
	}

	sv := &driftServing{model: static, blockSize: cfg.BlockSize}
	sv.windows = make([]lifecycle.AppWindow, len(fleet))
	for i, a := range fleet {
		sv.windows[i] = lifecycle.AppWindow{Name: a.Name, Window: a.Demand.Values[:epochMin]}
	}
	mgr := lifecycle.New(sv, lifecycle.Config{
		DriftThreshold: 1,
		ShadowWindow:   epochMin, // retrain and shadow-evaluate on the trailing epoch
		MinImprove:     0.01,
		Seed:           s.Seed,
		Workers:        sweepWorkers,
		Cache:          sweepCache,
	})

	for e := 1; e < epochs; e++ {
		apps := epochApps(e)
		row := DriftEpochRow{Epoch: e, Regime: "A"}
		if e >= shiftEpoch {
			row.Regime = "B"
		}
		row.StaticRUM = femux.Evaluate(static, apps).RUM
		row.LifecycleRUM = femux.Evaluate(sv.model, apps).RUM
		res.StaticTotal += row.StaticRUM
		res.LifecycleTotal += row.LifecycleRUM

		// The lifecycle now sees this epoch's observations and reacts.
		for i, a := range fleet {
			sv.windows[i].Window = a.Demand.Values[:(e+1)*epochMin]
		}
		cycle := mgr.RunCycle()
		row.MaxDrift, row.Outcome = cycle.MaxDrift, cycle.Outcome
		if cycle.Outcome == lifecycle.OutcomeFailed {
			return res, fmt.Errorf("drift: epoch %d cycle failed: %s", e, cycle.Error)
		}
		res.Rows = append(res.Rows, row)
	}
	res.Promotions = sv.swaps
	return res, nil
}
