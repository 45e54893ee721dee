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
//	femuxd -addr :8081 -model shared/model.json -watch-model \
//	       -data-dir /var/lib/femux-0 -shards 2 -shard-id 0
//
// Endpoints: POST /v1/apps/{app}/observe, POST /v1/observe/batch,
// GET /v1/apps/{app}/target, GET /v1/apps/{app}/forecast, GET /healthz,
// GET /metrics (Prometheus text), POST /v1/admin/reload (hot-swap a
// retrained model; SIGHUP does the same), and /debug/pprof.
// SIGINT/SIGTERM drain in-flight requests before exiting.
//
// With -data-dir, every acknowledged observation is persisted through a
// CRC-framed write-ahead log before it is applied, and the per-app
// sliding windows are restored on boot — a restart or reload-from-disk
// loses no state. Restart is the recovery path: /healthz answers 503
// once the WAL has failed, and a supervisor that kills and restarts
// femuxd on the same -data-dir gets back every acknowledged observation. Without it the same store is held in memory: same
// tiering, no files, nothing survives the process. -max-hot-apps and
// -max-warm-apps bound the hot and in-memory-window tiers so a
// million-app fleet serves in bounded RSS: the LRU excess is demoted to
// compact windows and, past the warm budget, paged to disk, then
// restored transparently (and bit-identically) on first touch. Forecast
// workspaces are per-request scratch, not per-app state, so no flag
// bounds them. With -shards/-shard-id the instance
// owns only its FNV-1a hash partition of the apps (see cmd/femux-shard
// for the router), and -watch-model hot-reloads the -model file whenever
// it changes, so one retrain in a shared model directory propagates
// across the fleet.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
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

// buildOpts captures everything needed to (re)build the serving model, so
// startup, SIGHUP, and POST /v1/admin/reload share one code path.
type buildOpts struct {
	modelPath string // load a serialized model instead of training
	appsCSV   string
	invCSV    string
	fleet     int
	days      float64
	seed      int64
	blockMin  int
	window    int
	workers   int
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("femuxd: ")
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		appsCSV   = flag.String("apps", "", "apps CSV from tracegen (optional)")
		invCSV    = flag.String("invocations", "", "invocations CSV from tracegen (optional)")
		fleet     = flag.Int("fleet", 48, "synthetic training fleet size when no CSV is given")
		days      = flag.Float64("days", 2, "synthetic training trace length in days")
		seed      = flag.Int64("seed", 1, "seed for synthetic training")
		blockMin  = flag.Int("block", 144, "block size in minutes")
		workers   = flag.Int("workers", 0, "training worker goroutines (0 = one per CPU)")
		modelPath = flag.String("model", "", "load a trained model instead of training")
		savePath  = flag.String("save", "", "save the trained model to this path")

		reqTimeout      = flag.Duration("request-timeout", 10*time.Second, "per-request handler timeout on the API path")
		shutdownTimeout = flag.Duration("shutdown-timeout", 15*time.Second, "drain deadline on SIGINT/SIGTERM")

		dataDir       = flag.String("data-dir", "", "durable observation store directory (empty = the same store held in memory only: no WAL, no paging, nothing survives a restart)")
		fsyncPolicy   = flag.String("fsync", "always", "WAL fsync policy: always, interval, or never")
		fsyncInterval = flag.Duration("fsync-interval", 100*time.Millisecond, "flush period for -fsync interval")
		compactEvery  = flag.Int("compact-every", 1<<16, "snapshot-compact the WAL after this many observations (-1 = never)")

		maxHotApps = flag.Int("max-hot-apps", 0,
			"apps with materialized serving state; LRU excess is demoted to compact windows (0 = unlimited)")
		maxWarmApps = flag.Int("max-warm-apps", 0,
			"apps with in-memory compact windows in the store; excess is paged to disk (0 = unlimited, requires -data-dir)")
		quantileLevel = flag.Float64("quantile-level", 0,
			"provision pod targets for this forecast quantile of demand (e.g. 0.95) instead of the point forecast (0 = off)")

		shards     = flag.Int("shards", 1, "total femuxd instances in the fleet (hash-partitioned by app)")
		shardID    = flag.Int("shard-id", 0, "this instance's shard index in [0, shards)")
		watchModel = flag.Bool("watch-model", false, "poll the -model file and hot-reload when it changes")
		watchEvery = flag.Duration("watch-interval", 2*time.Second, "poll period for -watch-model")

		retrainEvery = flag.Duration("retrain-every", 0,
			"run a drift-aware retrain cycle this often: retrain on recent windows, shadow-evaluate, auto-promote winners (0 = disabled)")
		driftThreshold = flag.Float64("drift-threshold", 0.5,
			"minimum per-app drift score before a retrain cycle trains a candidate (0 = retrain every cycle)")
		shadowWindow = flag.Int("shadow-window", 0,
			"trailing observations per app used for retraining and shadow evaluation (0 = full window)")
		minImprove = flag.Float64("min-improve", 0.01,
			"fractional shadow-RUM improvement a candidate needs to be auto-promoted")
		promoteSave = flag.String("promote-save", "",
			"write auto-promoted models to this path (atomic rename; feeds -watch-model fleets)")
	)
	flag.Parse()
	if *shards < 1 || *shardID < 0 || *shardID >= *shards {
		log.Fatalf("invalid shard config: -shard-id %d must be in [0, %d)", *shardID, *shards)
	}
	if *watchModel && *modelPath == "" {
		log.Fatal("-watch-model requires -model")
	}
	// A ticker panics on a period of 0.
	if *watchEvery <= 0 {
		log.Fatalf("-watch-interval must be positive, got %s", *watchEvery)
	}

	opts := buildOpts{
		modelPath: *modelPath, appsCSV: *appsCSV, invCSV: *invCSV,
		fleet: *fleet, days: *days, seed: *seed, blockMin: *blockMin,
		window: 120, workers: *workers,
	}
	model, err := buildModel(opts)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("model ready: %d clusters, default forecaster %s",
		model.Diag.Clusters, model.DefaultForecaster().Name())
	if *savePath != "" {
		if err := writeModel(*savePath, model); err != nil {
			log.Fatal(err)
		}
		log.Printf("saved model to %s", *savePath)
	}

	if *maxWarmApps > 0 && *dataDir == "" {
		log.Fatal("-max-warm-apps requires -data-dir (paging needs a store)")
	}
	pol, err := store.ParseSyncPolicy(*fsyncPolicy)
	if err != nil {
		log.Fatal(err)
	}
	storeOpt := store.Options{
		Sync:         pol,
		SyncInterval: *fsyncInterval,
		CompactEvery: *compactEvery,
		InlineBudget: *maxWarmApps,
	}
	var st *store.Store
	if *dataDir == "" {
		st = store.OpenMemory()
	} else {
		if st, err = store.Open(*dataDir, storeOpt); err != nil {
			log.Fatal(err)
		}
		stats := st.Stats()
		log.Printf("durable store %s: restored %d observations across %d apps (fsync=%s)",
			*dataDir, stats.Restored, stats.Apps, pol)
		if stats.TornTail {
			log.Printf("durable store: truncated a torn WAL tail (crash recovery)")
		}
	}

	if *quantileLevel < 0 || *quantileLevel >= 1 {
		log.Fatalf("-quantile-level must be in [0, 1), got %g", *quantileLevel)
	}
	svc := knative.NewServiceWith(model, knative.ServiceOptions{
		Store: st, ShardID: *shardID, Shards: *shards,
		MaxHotApps: *maxHotApps, QuantileLevel: *quantileLevel,
	})
	if *quantileLevel > 0 {
		log.Printf("SLO-aware provisioning: pod targets use the p%g demand quantile", *quantileLevel*100)
	}
	reg := serving.NewRegistry()
	reg.RegisterGoMetrics()
	svc.InstrumentWith(reg)
	registerStoreMetrics(reg, st)

	if *shards > 1 {
		shardInfo := reg.NewGauge("femux_shard_info",
			"Constant 1, labeled with this instance's shard assignment.",
			"shard", "shards")
		shardInfo.Set(1, fmt.Sprint(*shardID), fmt.Sprint(*shards))
		log.Printf("serving shard %d of %d (FNV-1a partition by app)", *shardID, *shards)
	}

	var lcm *lifecycle.Manager
	if *retrainEvery > 0 {
		lcm = lifecycle.New(svc, lifecycle.Config{
			RetrainEvery:   *retrainEvery,
			DriftThreshold: *driftThreshold,
			ShadowWindow:   *shadowWindow,
			MinImprove:     *minImprove,
			Workers:        *workers,
			Seed:           *seed,
			SaveTo:         *promoteSave,
			Logf:           log.Printf,
		})
		lcm.InstrumentWith(reg)
		lcm.Start()
		log.Printf("lifecycle: retraining every %s (drift threshold %g, shadow window %d, min improvement %g)",
			*retrainEvery, *driftThreshold, *shadowWindow, *minImprove)
	}

	reload := func() (*femux.Model, error) { return buildModel(opts) }
	handler := newHandler(svc, reg, reload, log.Default(), *reqTimeout, lcm)

	server := &http.Server{
		Addr:         *addr,
		Handler:      handler,
		ReadTimeout:  10 * time.Second,
		WriteTimeout: 0, // per-route deadlines come from http.TimeoutHandler
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

	if *watchModel {
		go watchModelFile(*modelPath, *watchEvery, stop, func() {
			if err := reloadAndSwap(svc, reload); err != nil {
				log.Printf("model watch: reload failed: %v", err)
			} else {
				log.Printf("model watch: %s changed, reloaded (%d total)", *modelPath, svc.Reloads())
			}
		})
	}

	log.Printf("serving FeMux API on %s", *addr)
	err = serving.Run(server, stop, *shutdownTimeout, log.Printf)
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

// registerStoreMetrics exposes the store's state. With -data-dir the
// counters are derived from on-disk state, so femux_store_observations
// survives SIGKILL and restart — the CI crash smoke test cross-checks it
// against the number of replayed observations; the file gauges of a
// memory store read 0.
func registerStoreMetrics(reg *serving.Registry, st *store.Store) {
	reg.NewGaugeFunc("femux_store_observations",
		"Lifetime observations in the durable store (restored + appended).",
		func() float64 { return float64(st.TotalObservations()) })
	reg.NewGaugeFunc("femux_store_apps",
		"Applications with durable observation history.",
		func() float64 { return float64(st.Apps()) })
	reg.NewGaugeFunc("femux_store_wal_bytes",
		"Bytes across live WAL segments.",
		func() float64 { return float64(st.Stats().WALBytes) })
	reg.NewGaugeFunc("femux_store_wal_segments",
		"Live WAL segment files.",
		func() float64 { return float64(st.Stats().Segments) })
	reg.NewCounterFunc("femux_store_fsyncs_total",
		"WAL fsyncs since process start.",
		func() float64 { return float64(st.Stats().Fsyncs) })
	reg.NewGaugeFunc("femux_store_paged_apps",
		"Cold apps whose window is paged to disk.",
		func() float64 { return float64(st.PagedApps()) })
	reg.NewGaugeFunc("femux_store_page_bytes",
		"Bytes across live page files.",
		func() float64 { return float64(st.Stats().PageBytes) })
	reg.NewGaugeFunc("femux_store_window_bytes",
		"Heap bytes retained by in-memory compact windows.",
		func() float64 { return float64(st.Stats().WindowBytes) })
	reg.NewCounterFunc("femux_store_page_outs_total",
		"Lifetime warm-to-cold demotions (windows paged to disk).",
		func() float64 { return float64(st.Stats().PageOuts) })
	reg.NewCounterFunc("femux_store_page_errors_total",
		"Page-in failures (window lost, durable total conserved).",
		func() float64 { return float64(st.Stats().PageErrors) })
}

// watchModelFile polls path and fires onChange whenever its (mtime, size)
// pair moves — the shared-model-directory hot-reload path: the offline
// trainer writes a retrained model into the directory every instance
// watches, and the whole fleet picks it up without being touched.
// Polling (rather than inotify) keeps it dependency-free and works on
// network filesystems; transient stat errors (the trainer's atomic
// rename window) are skipped.
func watchModelFile(path string, every time.Duration, stop <-chan struct{}, onChange func()) {
	var lastMod time.Time
	var lastSize int64
	if fi, err := os.Stat(path); err == nil {
		lastMod, lastSize = fi.ModTime(), fi.Size()
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			fi, err := os.Stat(path)
			if err != nil {
				continue
			}
			if fi.ModTime().Equal(lastMod) && fi.Size() == lastSize {
				continue
			}
			lastMod, lastSize = fi.ModTime(), fi.Size()
			onChange()
		}
	}
}

// buildModel loads or trains the serving model according to opts.
func buildModel(opts buildOpts) (*femux.Model, error) {
	if opts.modelPath != "" {
		m, err := loadModelFile(opts.modelPath)
		if err != nil {
			return nil, err
		}
		log.Printf("loaded model from %s", opts.modelPath)
		return m, nil
	}
	var train []femux.TrainApp
	if opts.appsCSV != "" && opts.invCSV != "" {
		ds, err := loadDataset(opts.appsCSV, opts.invCSV)
		if err != nil {
			return nil, err
		}
		train = trainAppsFromDataset(ds)
		log.Printf("loaded %d apps from %s", len(train), opts.appsCSV)
	} else {
		train = experiments.AzureFleet(experiments.Scale{Seed: opts.seed, Apps: opts.fleet, Days: opts.days})
		log.Printf("training on synthetic fleet of %d apps", len(train))
	}
	cfg := femux.DefaultConfig(rum.Default())
	cfg.BlockSize = opts.blockMin
	cfg.Window = opts.window
	cfg.Workers = opts.workers
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

// reloadState serializes hot reloads: a second reload while one is in
// flight is rejected rather than queued (the newest model wins anyway).
var reloadBusy atomic.Bool

// reloadAndSwap rebuilds the model and atomically swaps it into the
// service. In-flight requests keep the old model until they finish.
func reloadAndSwap(svc *knative.Service, rebuild func() (*femux.Model, error)) error {
	if !reloadBusy.CompareAndSwap(false, true) {
		return fmt.Errorf("reload already in progress")
	}
	defer reloadBusy.Store(false)
	m, err := rebuild()
	if err != nil {
		return err
	}
	svc.SwapModel(m)
	return nil
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
//	logging -> instrumentation -> { API (timeout-bounded), /metrics,
//	                               /v1/admin/reload, /debug/pprof }
//
// The admin reload and pprof routes sit outside the request timeout:
// retraining and CPU profiles legitimately run for longer than an API
// request is allowed to.
func newHandler(svc *knative.Service, reg *serving.Registry, rebuild func() (*femux.Model, error), logger *log.Logger, timeout time.Duration, lcm *lifecycle.Manager) http.Handler {
	var api http.Handler = svc.Handler()
	if timeout > 0 {
		api = http.TimeoutHandler(api, timeout, "request timed out\n")
	}

	root := http.NewServeMux()
	root.Handle("/", api)
	root.Handle("/metrics", reg.Handler())
	root.HandleFunc("/v1/admin/reload", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "reload requires POST", http.StatusMethodNotAllowed)
			return
		}
		start := time.Now()
		if err := reloadAndSwap(svc, rebuild); err != nil {
			status := http.StatusInternalServerError
			if err.Error() == "reload already in progress" {
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
	// use). Outside the request timeout: a cycle legitimately retrains.
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
