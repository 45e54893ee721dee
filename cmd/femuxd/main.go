// Command femuxd runs the FeMux forecasting microservice (Fig 13): it
// trains a model (on a synthetic fleet by default, or on a CSV trace pair
// produced by tracegen) and serves the REST API that Knative's autoscaler
// integration queries for predictive scale targets.
//
// Usage:
//
//	femuxd -addr :8080
//	femuxd -addr :8080 -apps ibm_apps.csv -invocations ibm_invocations.csv
//	femuxd -addr :8080 -data-dir /var/lib/femux -fsync always
//	femuxd -addr :8081 -model shared/model.json \
//	       -data-dir /var/lib/femux-0 -shards 2 -shard-id 0
//
// Endpoints: POST /v1/apps/{app}/observe, POST /v1/observe/batch,
// GET /v1/apps/{app}/target, GET /v1/apps/{app}/forecast, GET /healthz,
// GET /metrics (Prometheus text), POST /v1/admin/reload (hot-swap a
// retrained model; SIGHUP does the same), and /debug/pprof.
// SIGINT/SIGTERM drain in-flight requests before exiting. A bad flag is
// refused before anything trains, opens or listens. No request has a
// server-side deadline: the caller owns it (Knative's autoscaler falls
// back to its reactive logic), so every reply reports what was done.
//
// With -data-dir, every acknowledged observation is persisted through a
// CRC-framed write-ahead log before it is applied, and the per-app
// sliding windows are restored on boot — a restart or reload-from-disk
// loses no state. The directory also holds the serving model: every
// install (boot, SIGHUP, admin reload, lifecycle promotion) is written
// there before it serves, and a restart serves it without training;
// -model, the CSV pair and synthetic training only seed an empty
// directory. The directory is opened before anything trains, so one
// this build does not read fails at once, naming its upgrade path.
// Restart is the recovery path: /healthz answers 503 once the WAL has
// failed, and a supervisor that kills and restarts femuxd on the same
// -data-dir gets back every acknowledged observation. Without it the
// same store is held in memory: same tiering, no files, nothing
// survives the process. -max-hot-apps and
// -max-warm-apps bound the hot and in-memory-window tiers so a
// million-app fleet serves in bounded RSS: the LRU excess is demoted to
// compact windows and, past the warm budget, paged to disk, then
// restored transparently (and bit-identically) on first touch. Forecast
// workspaces are per-request scratch, not per-app state, so no flag
// bounds them. With -shards/-shard-id the instance owns only its FNV-1a
// hash partition of the apps (see cmd/femux-shard for the router, whose
// POST /v1/admin/reload reloads every shard's -model).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/experiments"
	"github.com/ubc-cirrus-lab/femux-go/internal/femux"
	"github.com/ubc-cirrus-lab/femux-go/internal/knative"
	"github.com/ubc-cirrus-lab/femux-go/internal/lifecycle"
	"github.com/ubc-cirrus-lab/femux-go/internal/rum"
	"github.com/ubc-cirrus-lab/femux-go/internal/serving"
	"github.com/ubc-cirrus-lab/femux-go/internal/store"
	"github.com/ubc-cirrus-lab/femux-go/internal/timeseries"
	"github.com/ubc-cirrus-lab/femux-go/internal/trace"
)

// config is femuxd's command line. parseConfig fills it and validate
// refuses every bad value or combination, so a refusal comes before
// any training, store open or listen. A boot on a store that holds no
// model, SIGHUP and POST /v1/admin/reload all build the model from the
// same config.
type config struct {
	addr, appsCSV, invCSV      string
	modelPath, savePath        string // -model loads instead of training
	fleet, blockMin, workers   int
	days                       float64
	seed                       int64
	shutdownTimeout            time.Duration
	dataDir, fsync             string
	sync                       store.SyncPolicy // parsed from fsync by validate
	maxHotApps, maxWarmApps    int
	quantile                   float64
	shards, shardID            int
	retrainEvery               time.Duration
	driftThreshold, minImprove float64
}

// parseConfig parses femuxd's flags from args and validates them. -h
// prints the flag list and returns flag.ErrHelp.
func parseConfig(args []string) (config, error) {
	var c config
	fs := flag.NewFlagSet("femuxd", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // the caller reports the error
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.StringVar(&c.appsCSV, "apps", "", "apps CSV from tracegen (optional)")
	fs.StringVar(&c.invCSV, "invocations", "", "invocations CSV from tracegen (optional)")
	fs.IntVar(&c.fleet, "fleet", 48, "synthetic training fleet size when no CSV is given")
	fs.Float64Var(&c.days, "days", 2, "synthetic training trace length in days")
	fs.Int64Var(&c.seed, "seed", 1, "seed for synthetic training")
	fs.IntVar(&c.blockMin, "block", 144, "block size in minutes")
	fs.IntVar(&c.workers, "workers", 0, "training worker goroutines (0 = one per CPU)")
	fs.StringVar(&c.modelPath, "model", "", "load a trained model instead of training (a -data-dir that holds a model serves that one)")
	fs.StringVar(&c.savePath, "save", "", "save the trained model to this path")
	fs.DurationVar(&c.shutdownTimeout, "shutdown-timeout", 15*time.Second, "drain deadline on SIGINT/SIGTERM")
	fs.StringVar(&c.dataDir, "data-dir", "", "durable observation store directory (empty = the same store held in memory only: no WAL, no paging, nothing survives a restart)")
	fs.StringVar(&c.fsync, "fsync", "always", "WAL fsync policy: always, interval (every 100ms), or never")
	fs.IntVar(&c.maxHotApps, "max-hot-apps", 0, "apps with materialized serving state; LRU excess is demoted to compact windows (0 = unlimited)")
	fs.IntVar(&c.maxWarmApps, "max-warm-apps", 0, "apps with in-memory compact windows in the store; excess is paged to disk (0 = unlimited, requires -data-dir)")
	fs.Float64Var(&c.quantile, "quantile-level", 0, "provision pod targets for this forecast quantile of demand (e.g. 0.95) instead of the point forecast (0 = off)")
	fs.IntVar(&c.shards, "shards", 1, "total femuxd instances in the fleet (hash-partitioned by app)")
	fs.IntVar(&c.shardID, "shard-id", 0, "this instance's shard index in [0, shards)")
	fs.DurationVar(&c.retrainEvery, "retrain-every", 0, "run a drift-aware retrain cycle this often: retrain on recent windows, shadow-evaluate, auto-promote winners (0 = disabled)")
	fs.Float64Var(&c.driftThreshold, "drift-threshold", 0.5, "minimum per-app drift score before a retrain cycle trains a candidate (0 = retrain every cycle)")
	fs.Float64Var(&c.minImprove, "min-improve", 0.01, "fractional shadow-RUM improvement a candidate needs to be auto-promoted")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(os.Stderr)
			fs.PrintDefaults()
		}
		return config{}, err
	}
	err := c.validate() // before reading c: it sets c.sync
	return c, err
}

// validate refuses what would otherwise fail later: after a model was
// trained, or while serving.
func (c *config) validate() error {
	if c.shards < 1 || c.shardID < 0 || c.shardID >= c.shards {
		return fmt.Errorf("invalid shard config: -shard-id %d must be in [0, %d)", c.shardID, c.shards)
	}
	if c.maxWarmApps > 0 && c.dataDir == "" {
		return errors.New("-max-warm-apps requires -data-dir (paging needs a store)")
	}
	var err error
	if c.sync, err = store.ParseSyncPolicy(c.fsync); err != nil {
		return fmt.Errorf("-fsync: %w", err)
	}
	if !(c.quantile >= 0 && c.quantile < 1) {
		return fmt.Errorf("-quantile-level must be in [0, 1), got %g", c.quantile)
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("femuxd: ")
	cfg, err := parseConfig(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		log.Fatal(err)
	}

	// The store opens before any training: a data directory this build
	// refuses fails in milliseconds.
	var st *store.Store
	if cfg.dataDir == "" {
		st = store.OpenMemory()
	} else {
		if st, err = store.Open(cfg.dataDir, store.Options{Sync: cfg.sync, InlineBudget: cfg.maxWarmApps}); err != nil {
			log.Fatalf("-data-dir %s: %v", cfg.dataDir, err)
		}
		stats := st.Stats()
		log.Printf("durable store %s: restored %d observations across %d apps (fsync=%s)",
			cfg.dataDir, stats.Restored, stats.Apps, cfg.sync)
		if stats.TornTail {
			log.Printf("durable store: truncated a torn WAL tail (crash recovery)")
		}
	}

	model, err := bootModel(cfg, st)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("model ready: %d clusters, default forecaster %s",
		model.Diag.Clusters, model.DefaultForecaster().Name())
	if cfg.savePath != "" {
		if err := writeModel(cfg.savePath, model); err != nil {
			log.Fatal(err)
		}
		log.Printf("saved model to %s", cfg.savePath)
	}

	svc := knative.NewServiceWith(model, knative.ServiceOptions{
		Store: st, ShardID: cfg.shardID, Shards: cfg.shards,
		MaxHotApps: cfg.maxHotApps, QuantileLevel: cfg.quantile,
	})
	if cfg.quantile > 0 {
		log.Printf("SLO-aware provisioning: pod targets use the p%g demand quantile", cfg.quantile*100)
	}
	reg := serving.NewRegistry()
	reg.RegisterGoMetrics()
	svc.InstrumentWith(reg)
	registerStoreMetrics(reg, st.Stats)

	if cfg.shards > 1 {
		shardInfo := reg.NewGauge("femux_shard_info",
			"Constant 1, labeled with this instance's shard assignment.",
			"shard", "shards")
		shardInfo.Set(1, fmt.Sprint(cfg.shardID), fmt.Sprint(cfg.shards))
		log.Printf("serving shard %d of %d (FNV-1a partition by app)", cfg.shardID, cfg.shards)
	}

	var lcm *lifecycle.Manager
	if cfg.retrainEvery > 0 {
		lcm = lifecycle.New(svc, lifecycle.Config{
			RetrainEvery:   cfg.retrainEvery,
			DriftThreshold: cfg.driftThreshold,
			MinImprove:     cfg.minImprove,
			Workers:        cfg.workers,
			Seed:           cfg.seed,
			Logf:           log.Printf,
		})
		lcm.InstrumentWith(reg)
		lcm.Start()
		log.Printf("lifecycle: retraining every %s (drift threshold %g, min improvement %g)",
			cfg.retrainEvery, cfg.driftThreshold, cfg.minImprove)
	}

	reload := func() (*femux.Model, error) { return buildModel(cfg) }
	server := &http.Server{
		Addr:        cfg.addr,
		Handler:     newHandler(svc, reg, reload, log.Default(), lcm),
		ReadTimeout: 10 * time.Second, // no WriteTimeout: the caller owns the deadline
	}

	stop := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		for sig := range sigc {
			if sig == syscall.SIGHUP {
				log.Printf("SIGHUP: reloading model")
				go func() {
					if err := reloadAndSwap(svc, reload); err != nil {
						log.Printf("reload failed: %v", err)
					} else {
						log.Printf("reload complete: %d total", svc.Reloads())
					}
				}()
				continue
			}
			log.Printf("received %s", sig)
			close(stop)
			return
		}
	}()

	log.Printf("serving FeMux API on %s", cfg.addr)
	err = serving.Run(server, stop, cfg.shutdownTimeout, log.Printf)
	if lcm != nil {
		lcm.Stop()
	}
	if cerr := st.Close(); cerr != nil {
		log.Printf("closing durable store: %v", cerr)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// registerStoreMetrics exposes the store's state from one stats read
// per scrape: each read walks every app under the store's lock and
// lists its directory. With -data-dir the counters are derived from
// on-disk state, so femux_store_observations survives SIGKILL and
// restart — the CI crash smoke test cross-checks it against the number
// of replayed observations; the file gauges of a memory store read 0.
func registerStoreMetrics(reg *serving.Registry, stats func() store.Stats) {
	var last atomic.Pointer[store.Stats]
	last.Store(&store.Stats{})
	reg.OnScrape(func() { s := stats(); last.Store(&s) })
	gauge, counter := reg.NewGaugeFunc, reg.NewCounterFunc
	for _, m := range []struct {
		register   func(name, help string, fn func() float64)
		name, help string
		value      func(s *store.Stats) int64
	}{
		{gauge, "femux_store_observations", "Lifetime observations in the durable store (restored + appended).",
			func(s *store.Stats) int64 { return s.Observations }},
		{gauge, "femux_store_apps", "Applications with durable observation history.",
			func(s *store.Stats) int64 { return int64(s.Apps) }},
		{gauge, "femux_store_wal_bytes", "Bytes across live WAL segments.",
			func(s *store.Stats) int64 { return s.WALBytes }},
		{gauge, "femux_store_wal_segments", "Live WAL segment files.",
			func(s *store.Stats) int64 { return int64(s.Segments) }},
		{counter, "femux_store_fsyncs_total", "WAL fsyncs since process start.",
			func(s *store.Stats) int64 { return s.Fsyncs }},
		{gauge, "femux_store_paged_apps", "Cold apps whose window is paged to disk.",
			func(s *store.Stats) int64 { return int64(s.PagedApps) }},
		{gauge, "femux_store_page_bytes", "Bytes across live page files.",
			func(s *store.Stats) int64 { return s.PageBytes }},
		{gauge, "femux_store_window_bytes", "Heap bytes retained by in-memory compact windows.",
			func(s *store.Stats) int64 { return s.WindowBytes }},
		{counter, "femux_store_page_outs_total", "Lifetime warm-to-cold demotions (windows paged to disk).",
			func(s *store.Stats) int64 { return s.PageOuts }},
		{counter, "femux_store_page_errors_total", "Page-in failures (window lost, durable total conserved).",
			func(s *store.Stats) int64 { return s.PageErrors }},
	} {
		m.register(m.name, m.help, func() float64 { return float64(m.value(last.Load())) })
	}
}

// bootModel returns the model femuxd serves at boot: the one st holds,
// so that a restart serves what was served, or, for a store that holds
// none, the one c builds, which it stores. A -model that is not the
// stored one is logged, not served: serving it would undo a promotion.
func bootModel(c config, st *store.Store) (*femux.Model, error) {
	stored := st.Model()
	if stored == nil {
		m, err := buildModel(c)
		if err != nil {
			return nil, err
		}
		var b bytes.Buffer
		if err := m.Save(&b); err != nil {
			return nil, err
		}
		return m, st.SaveModel(b.Bytes())
	}
	m, err := femux.Load(bytes.NewReader(stored))
	if err != nil {
		return nil, fmt.Errorf("the model stored in %s: %w", c.dataDir, err)
	}
	log.Printf("serving the model stored in %s", c.dataDir)
	if c.modelPath != "" {
		if b, err := os.ReadFile(c.modelPath); err != nil || !bytes.Equal(b, stored) {
			log.Printf("-model %s is not the stored model: POST /v1/admin/reload or SIGHUP serves it", c.modelPath)
		}
	}
	return m, nil
}

// buildModel loads or trains the serving model the config names.
func buildModel(c config) (*femux.Model, error) {
	if c.modelPath != "" {
		m, err := loadModelFile(c.modelPath)
		if err != nil {
			return nil, err
		}
		log.Printf("loaded model from %s", c.modelPath)
		return m, nil
	}
	var train []femux.TrainApp
	if c.appsCSV != "" && c.invCSV != "" {
		ds, err := loadDataset(c.appsCSV, c.invCSV)
		if err != nil {
			return nil, err
		}
		train = trainAppsFromDataset(ds)
		log.Printf("loaded %d apps from %s", len(train), c.appsCSV)
	} else {
		train = experiments.AzureFleet(experiments.Scale{Seed: c.seed, Apps: c.fleet, Days: c.days})
		log.Printf("training on synthetic fleet of %d apps", len(train))
	}
	cfg := femux.DefaultConfig(rum.Default())
	cfg.BlockSize = c.blockMin
	cfg.Window = 120
	cfg.Workers = c.workers
	return femux.Train(train, cfg)
}

// loadModelFile reads a model serialized by femux.Model.Save.
func loadModelFile(path string) (*femux.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return femux.Load(f)
}

// writeModel saves the model, reporting Close errors: on a full disk the
// final flush is what fails, and ignoring it would ship a truncated model.
func writeModel(path string, m *femux.Model) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("femuxd: closing %s: %w", path, err)
	}
	return nil
}

// reloadBusy serializes hot reloads: a second reload while one is in
// flight is rejected with errReloadBusy rather than queued (the newest
// model wins anyway).
var (
	reloadBusy    atomic.Bool
	errReloadBusy = errors.New("reload already in progress")
)

// reloadAndSwap rebuilds the model and atomically swaps it into the
// service. In-flight requests keep the old model until they finish.
func reloadAndSwap(svc *knative.Service, rebuild func() (*femux.Model, error)) error {
	if !reloadBusy.CompareAndSwap(false, true) {
		return errReloadBusy
	}
	defer reloadBusy.Store(false)
	m, err := rebuild()
	if err != nil {
		return err
	}
	return svc.SwapModel(m)
}

// reloadResponse is the admin reload reply.
type reloadResponse struct {
	Reloads           int    `json:"reloads"`
	DefaultForecaster string `json:"defaultForecaster"`
	Clusters          int    `json:"clusters"`
	DurationMs        int64  `json:"durationMs"`
}

// newHandler assembles the production middleware stack:
//
//	logging -> instrumentation -> { API, /metrics, /v1/admin/reload,
//	                               /v1/admin/lifecycle, /debug/pprof }
//
// No route has a server-side deadline: the caller owns it (femux-shard
// bounds each hop with its -timeout), so an observe answered 200 is
// committed and one that is committed is answered 200.
func newHandler(svc *knative.Service, reg *serving.Registry, rebuild func() (*femux.Model, error), logger *log.Logger, lcm *lifecycle.Manager) http.Handler {
	root := http.NewServeMux()
	root.Handle("/", svc.Handler())
	root.Handle("/metrics", reg.Handler())
	root.HandleFunc("/v1/admin/reload", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "reload requires POST", http.StatusMethodNotAllowed)
			return
		}
		start := time.Now()
		if err := reloadAndSwap(svc, rebuild); err != nil {
			status := http.StatusInternalServerError
			if errors.Is(err, errReloadBusy) {
				status = http.StatusConflict
			}
			http.Error(w, err.Error(), status)
			return
		}
		m := svc.Model()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(reloadResponse{
			Reloads:           svc.Reloads(),
			DefaultForecaster: m.DefaultForecaster().Name(),
			Clusters:          m.Diag.Clusters,
			DurationMs:        time.Since(start).Milliseconds(),
		})
	})
	// Lifecycle admin: GET reports status, POST triggers one synchronous
	// retrain cycle (the same injectable trigger the ticker and the tests
	// use).
	root.HandleFunc("/v1/admin/lifecycle", func(w http.ResponseWriter, r *http.Request) {
		if lcm == nil {
			http.Error(w, "lifecycle disabled (-retrain-every 0)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		switch r.Method {
		case http.MethodGet:
			json.NewEncoder(w).Encode(lcm.Status())
		case http.MethodPost:
			res := lcm.RunCycle()
			logger.Printf("lifecycle: admin-triggered cycle: %s", res.Outcome)
			json.NewEncoder(w).Encode(res)
		default:
			http.Error(w, "lifecycle requires GET or POST", http.StatusMethodNotAllowed)
		}
	})
	root.HandleFunc("/debug/pprof/", pprof.Index)
	root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	root.HandleFunc("/debug/pprof/profile", pprof.Profile)
	root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	root.HandleFunc("/debug/pprof/trace", pprof.Trace)

	hm := serving.NewHTTPMetrics(reg)
	return serving.LogRequests(logger, hm.Instrument(root))
}

func loadDataset(appsPath, invPath string) (*trace.Dataset, error) {
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
	return trace.ReadDataset(af, inf, 62*24*time.Hour)
}

// trainAppsFromDataset converts millisecond events into per-minute average
// concurrency for training.
func trainAppsFromDataset(d *trace.Dataset) []femux.TrainApp {
	var maxEnd time.Duration
	for _, a := range d.Apps {
		for _, inv := range a.Invocations {
			if end := inv.Arrival + inv.Duration; end > maxEnd {
				maxEnd = end
			}
		}
	}
	minutes := int(maxEnd/time.Minute) + 1
	out := make([]femux.TrainApp, 0, len(d.Apps))
	for _, a := range d.Apps {
		spans := make([]timeseries.Interval, len(a.Invocations))
		counts := make([]float64, minutes)
		var execSum float64
		for i, inv := range a.Invocations {
			spans[i] = timeseries.Interval{Start: inv.Arrival, End: inv.Arrival + inv.Duration}
			m := int(inv.Arrival / time.Minute)
			if m >= 0 && m < minutes {
				counts[m]++
			}
			execSum += inv.Duration.Seconds()
		}
		exec := 0.0
		if len(a.Invocations) > 0 {
			exec = execSum / float64(len(a.Invocations))
		}
		out = append(out, femux.TrainApp{
			Name:            a.Name,
			Demand:          timeseries.AverageConcurrency(spans, time.Minute, minutes),
			Invocations:     counts,
			ExecSec:         exec,
			MemoryGB:        a.Config.MemoryGB,
			UnitConcurrency: a.Config.Concurrency,
		})
	}
	return out
}
