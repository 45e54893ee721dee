// Package femux implements the paper's primary contribution: a serverless
// lifetime-management system that multiplexes lightweight forecasters per
// application (§4.3). Offline, FeMux simulates every candidate forecaster
// over every block of the training traces, scores each (block, forecaster)
// pair under a RUM objective, clusters blocks by statistical features, and
// assigns each cluster the forecaster with the lowest summed RUM. Online,
// each application accumulates average-concurrency observations; when a
// block completes, its features are extracted and the pre-trained
// classifier selects the forecaster for the next block.
package femux

import (
	"errors"
	"fmt"

	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/cluster"
	"github.com/ubc-cirrus-lab/femux-go/internal/features"
	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
	"github.com/ubc-cirrus-lab/femux-go/internal/memo"
	"github.com/ubc-cirrus-lab/femux-go/internal/parallel"
	"github.com/ubc-cirrus-lab/femux-go/internal/rum"
	"github.com/ubc-cirrus-lab/femux-go/internal/sim"
	"github.com/ubc-cirrus-lab/femux-go/internal/timeseries"
)

// TrainApp is one application's training trace.
type TrainApp struct {
	Name            string
	Demand          timeseries.Series // per-interval average concurrency
	Invocations     []float64         // per-interval invocation counts (optional)
	ExecSec         float64           // mean execution seconds per invocation
	MemoryGB        float64           // per-unit memory (0 -> config default)
	UnitConcurrency int               // container concurrency limit (0 -> 1)
}

// Config parameterizes training and online operation.
type Config struct {
	BlockSize   int                   // intervals per block (paper: 504 minutes)
	Window      int                   // forecast input window (paper: 120 minutes)
	Horizon     int                   // forecast horizon in intervals (paper: 1 minute)
	K           int                   // K-means cluster count
	Seed        int64                 // clustering seed
	Metric      rum.Metric            // the RUM to optimize
	Forecasters []forecast.Forecaster // candidate set
	Features    []string              // feature names (default: all four)
	Sim         sim.ConcConfig        // simulation defaults (memory, cold start, limits)
	// Classifier selects the block->forecaster mapper: "kmeans" (default),
	// "tree", or "forest" — the supervised baselines of §4.3.4.
	Classifier string
	// Workers bounds the goroutines used for the training sweeps and fleet
	// evaluation (0 = one per CPU). Output is bit-identical for any worker
	// count: the per-(app, forecaster) simulations and per-block feature
	// extractions are independent, and all reductions run serially in
	// block-index order.
	Workers int
	// Cache, when non-nil, memoizes the pipeline's pure stages (per-pair
	// block simulations, per-block feature extraction, per-app
	// evaluations) by content hash. Sharing one cache across trainings and
	// evaluations deduplicates the bulk of a sweep's work; results are
	// bit-identical to an uncached run (see cache.go). nil disables
	// caching.
	Cache *memo.Cache
}

// DefaultConfig returns the paper's settings, with a block size suited to
// minute-interval traces.
func DefaultConfig(metric rum.Metric) Config {
	return Config{
		BlockSize:   504,
		Window:      120,
		Horizon:     1,
		K:           8,
		Seed:        1,
		Metric:      metric,
		Forecasters: forecast.DefaultSet(),
		Features:    features.AllFeatureNames,
		Sim:         sim.DefaultConcConfig(),
		Classifier:  "kmeans",
	}
}

// Model is a trained FeMux classifier: it maps a completed block's features
// to the forecaster to use for the following block.
type Model struct {
	cfg       Config
	scaler    *cluster.Scaler
	kmeans    *cluster.KMeans
	tree      *cluster.DecisionTree
	forest    *cluster.RandomForest
	perGroup  []string // group -> forecaster name
	defaultFC string   // forecaster for apps without a completed block
	fcIndex   []int    // see index
	fcNames   []string // cfg.Forecasters[i].Name(), formatted once

	// Diagnostics from training.
	Diag Diagnostics
}

// Diagnostics summarizes a training for logs and the sensitivity studies.
// Its size depends on the forecaster set and the cluster count, never on
// how many blocks were trained: a served model carries no per-block state.
type Diagnostics struct {
	Blocks          int
	Clusters        int
	TrainTime       time.Duration
	ForecasterWins  map[string]int // blocks where each forecaster was per-block best
	GroupForecaster []string
}

// blockTables are a training's per-block intermediates, in training input
// order: rum[i][f] is the RUM of forecaster f on global block i and
// groupOf[i] is block i's assigned group. Both are deterministic for a
// fixed seed and independent of Workers; only the tests read them.
type blockTables struct {
	rum     [][]float64
	groupOf []int
}

// Train builds a FeMux model from training apps. It follows §4.3.3-4.3.4:
// per-block RUM simulation for every forecaster, feature extraction and
// standardization, clustering (or a supervised classifier), and per-group
// forecaster assignment by lowest summed RUM.
func Train(apps []TrainApp, cfg Config) (*Model, error) {
	m, _, err := train(apps, cfg)
	return m, err
}

func train(apps []TrainApp, cfg Config) (*Model, blockTables, error) {
	start := time.Now()
	if len(apps) == 0 {
		return nil, blockTables{}, errors.New("femux: no training apps")
	}
	if cfg.BlockSize < 8 {
		return nil, blockTables{}, fmt.Errorf("femux: block size %d too small", cfg.BlockSize)
	}
	if n := len(cfg.Forecasters); n == 0 || n > maxForecasters {
		return nil, blockTables{}, fmt.Errorf("femux: forecaster set of %d, want 1..%d", n, maxForecasters)
	}
	if cfg.Horizon < 1 {
		cfg.Horizon = 1
	}
	if cfg.Window < cfg.Horizon {
		cfg.Window = max(120, cfg.Horizon)
	}
	if len(cfg.Features) == 0 {
		cfg.Features = features.AllFeatureNames
	}
	if cfg.K < 1 {
		cfg.K = 8
	}

	nf := len(cfg.Forecasters)
	workers := parallel.Workers(cfg.Workers)

	// Lay out the global block index space in input order: only apps with
	// at least one completed block contribute training units.
	type trainUnit struct {
		app    TrainApp
		blocks []timeseries.Series
		row0   int // global index of the unit's first block
	}
	var units []trainUnit
	nBlocks := 0
	for _, app := range apps {
		blocks := app.Demand.Blocks(cfg.BlockSize)
		if len(blocks) == 0 {
			continue
		}
		units = append(units, trainUnit{app: app, blocks: blocks, row0: nBlocks})
		nBlocks += len(blocks)
	}
	if nBlocks == 0 {
		return nil, blockTables{}, errors.New("femux: no completed blocks in training data")
	}

	// Sweep 1 — the hot path (§4.3.3): one full-series simulation per
	// (app, forecaster) pair. Every pair is independent, so the flat job
	// space fans out across workers; each job writes only its own slot.
	// With a cache, each app's trace is hashed once up front and the pairs
	// derive cheap sub-keys from it.
	appKeys := make([]memo.Key, len(units))
	if cfg.Cache != nil {
		for ui := range units {
			appKeys[ui] = appTraceKey(units[ui].app)
		}
	}
	perForecaster := make([][][]rum.Sample, len(units)) // [unit][forecaster] -> per-block samples
	for ui := range perForecaster {
		perForecaster[ui] = make([][]rum.Sample, nf)
	}
	parallel.ForEach(workers, len(units)*nf, func(j int) {
		ui, fi := j/nf, j%nf
		perForecaster[ui][fi] = cachedBlockSamples(cfg.Cache, appKeys[ui], units[ui].app, cfg.Forecasters[fi], cfg)
	})

	// Sweep 2: per-block feature extraction and RUM scoring over global
	// block indices. unitOf[i] locates block i's unit. Every block is the
	// same length, so worker w takes every ew-th block, all with one
	// Extractor.
	unitOf := make([]int, nBlocks)
	for ui, u := range units {
		for bi := range u.blocks {
			unitOf[u.row0+bi] = ui
		}
	}
	rows := make([][]float64, nBlocks)
	rumByBlock := make([][]float64, nBlocks) // rumByBlock[i][f]: RUM of forecaster f on block i
	execFeature := hasExecFeature(cfg.Features)
	ew := min(workers, nBlocks)
	parallel.ForEach(ew, ew, func(w int) {
		ext := features.NewExtractor()
		for i := w; i < nBlocks; i += ew {
			u := units[unitOf[i]]
			bi := i - u.row0
			execFeat := 0.0
			if execFeature {
				execFeat = u.app.ExecSec
			}
			vec := cachedExtract(cfg.Cache, ext, u.blocks[bi].Values, execFeat)
			rows[i] = vec.Select(cfg.Features)
			scores := make([]float64, nf)
			for fi := 0; fi < nf; fi++ {
				scores[fi] = cfg.Metric.Eval(perForecaster[unitOf[i]][fi][bi])
			}
			rumByBlock[i] = scores
		}
	})

	// Serial reduction in block-index order: float summation order is
	// fixed, so totals are bit-identical for any worker count.
	totalRUM := make([]float64, nf)
	for _, scores := range rumByBlock {
		for fi, s := range scores {
			totalRUM[fi] += s
		}
	}

	scaler, err := cluster.FitScaler(rows)
	if err != nil {
		return nil, blockTables{}, fmt.Errorf("femux: %w", err)
	}
	scaled := scaler.TransformAll(rows)

	m := &Model{cfg: cfg, scaler: scaler}
	m.Diag.Blocks = len(rows)
	m.Diag.ForecasterWins = map[string]int{}
	for _, scores := range rumByBlock {
		best := argmin(scores)
		m.Diag.ForecasterWins[cfg.Forecasters[best].Name()]++
	}

	// Group blocks.
	var groupOf []int
	var nGroups int
	switch cfg.Classifier {
	case "", "kmeans":
		km, err := cluster.FitKMeans(scaled, cfg.K, cfg.Seed, 100)
		if err != nil {
			return nil, blockTables{}, fmt.Errorf("femux: %w", err)
		}
		m.kmeans = km
		nGroups = km.K()
		groupOf = make([]int, len(scaled))
		for i, r := range scaled {
			groupOf[i] = km.Predict(r)
		}
	case "tree", "forest":
		// Supervised: label each block with its per-block best forecaster,
		// then train the classifier on those labels.
		labels := make([]int, len(scaled))
		for i, scores := range rumByBlock {
			labels[i] = argmin(scores)
		}
		nGroups = nf
		if cfg.Classifier == "tree" {
			tr, err := cluster.FitTree(scaled, labels, cluster.DefaultTreeConfig())
			if err != nil {
				return nil, blockTables{}, fmt.Errorf("femux: %w", err)
			}
			m.tree = tr
			groupOf = make([]int, len(scaled))
			for i, r := range scaled {
				groupOf[i] = tr.Predict(r)
			}
		} else {
			fo, err := cluster.FitForest(scaled, labels, 15, cfg.Seed)
			if err != nil {
				return nil, blockTables{}, fmt.Errorf("femux: %w", err)
			}
			m.forest = fo
			groupOf = make([]int, len(scaled))
			for i, r := range scaled {
				groupOf[i] = fo.Predict(r)
			}
		}
	default:
		return nil, blockTables{}, fmt.Errorf("femux: unknown classifier %q", cfg.Classifier)
	}

	// Assign each group the forecaster with the lowest RUM sum across its
	// blocks; empty groups inherit the global best.
	groupRUM := make([][]float64, nGroups)
	for g := range groupRUM {
		groupRUM[g] = make([]float64, nf)
	}
	for i, scores := range rumByBlock {
		g := groupOf[i]
		for fi, s := range scores {
			groupRUM[g][fi] += s
		}
	}
	globalBest := argmin(totalRUM)
	m.defaultFC = cfg.Forecasters[globalBest].Name()
	m.perGroup = make([]string, nGroups)
	for g := range m.perGroup {
		empty := true
		for _, s := range groupRUM[g] {
			if s != 0 {
				empty = false
				break
			}
		}
		if empty {
			m.perGroup[g] = m.defaultFC
			continue
		}
		// Shrink toward the global default: a cluster-specific forecaster
		// must beat the default's in-cluster RUM by a clear margin, or the
		// apparent win is likely training noise on a thin cluster — the
		// misclassification tolerance K-means is chosen for (§4.3.4).
		const overrideMargin = 0.92
		winner := argmin(groupRUM[g])
		if groupRUM[g][winner] <= overrideMargin*groupRUM[g][globalBest] {
			m.perGroup[g] = cfg.Forecasters[winner].Name()
		} else {
			m.perGroup[g] = m.defaultFC
		}
	}
	if cfg.Classifier == "tree" || cfg.Classifier == "forest" {
		// Supervised groups are forecaster indices directly; keep the
		// per-group RUM assignment anyway (it coincides when the label
		// dominated its group, and repairs mislabel-dominated groups).
		for g := range m.perGroup {
			if groupRUM[g] == nil {
				m.perGroup[g] = cfg.Forecasters[g].Name()
			}
		}
	}
	m.Diag.Clusters = nGroups
	m.Diag.GroupForecaster = append([]string(nil), m.perGroup...)
	m.Diag.TrainTime = time.Since(start)
	return m.index(), blockTables{rum: rumByBlock, groupOf: groupOf}, nil
}

// blockSamples simulates one forecaster over the app's whole series and
// returns per-block accounting samples.
func blockSamples(app TrainApp, fc forecast.Forecaster, cfg Config) []rum.Sample {
	simCfg := appSimConfig(app, cfg.Sim)
	policy := sim.ForecastPolicy{Forecaster: fc, Window: cfg.Window, Horizon: cfg.Horizon}
	res := sim.SimulateApp(sim.AppTrace{
		Demand:      app.Demand,
		Invocations: app.Invocations,
		ExecSec:     app.ExecSec,
	}, policy, simCfg, true)

	nBlocks := app.Demand.Len() / cfg.BlockSize
	out := make([]rum.Sample, nBlocks)
	for b := 0; b < nBlocks; b++ {
		var s rum.Sample
		for t := b * cfg.BlockSize; t < (b+1)*cfg.BlockSize; t++ {
			iv := res.Intervals[t]
			s.ColdStarts += iv.ColdStarts
			s.ColdStartSec += float64(iv.ColdStarts) * simCfg.ColdStartSec
			s.WastedGBSec += iv.WastedGBs
			if app.Invocations != nil && t < len(app.Invocations) {
				s.Invocations += int(app.Invocations[t])
				s.ExecSec += app.Invocations[t] * app.ExecSec
			}
		}
		out[b] = s
	}
	return out
}

// Classify returns the group index for a feature vector.
func (m *Model) Classify(vec features.Vector) int {
	row := m.scaler.Transform(vec.Select(m.cfg.Features))
	switch {
	case m.kmeans != nil:
		return m.kmeans.Predict(row)
	case m.tree != nil:
		return m.tree.Predict(row)
	default:
		return m.forest.Predict(row)
	}
}

// index resolves the assignment table (perGroup, then defaultFC) to
// positions in cfg.Forecasters, so no policy looks one up by name, and
// keeps each forecaster's name (Name formats on every call). An unknown
// name falls back to the first.
func (m *Model) index() *Model {
	m.fcNames = make([]string, len(m.cfg.Forecasters))
	for i, fc := range m.cfg.Forecasters {
		m.fcNames[i] = fc.Name()
	}
	names := append(m.perGroup[:len(m.perGroup):len(m.perGroup)], m.defaultFC)
	m.fcIndex = make([]int, len(names))
	for g, name := range names {
		for i, fcName := range m.fcNames {
			if fcName == name {
				m.fcIndex[g] = i
				break
			}
		}
	}
	return m
}

// forecasterOf indexes a group's forecaster; outside the table, the default's.
func (m *Model) forecasterOf(group int) int {
	if group < 0 || group >= len(m.perGroup) {
		group = len(m.perGroup)
	}
	return m.fcIndex[group]
}

// DefaultForecaster returns the globally best forecaster, used before an
// app completes its first block.
func (m *Model) DefaultForecaster() forecast.Forecaster {
	return m.cfg.Forecasters[m.forecasterOf(-1)]
}

// Config returns the model's training configuration.
func (m *Model) Config() Config { return m.cfg }

func argmin(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v < xs[best] {
			best = i
		}
	}
	return best
}

func hasExecFeature(names []string) bool {
	for _, n := range names {
		if n == features.FeatExecTime {
			return true
		}
	}
	return false
}
