// Command femuxd runs the FeMux forecasting microservice (Fig 13): it
// serves a model trained offline by cmd/femux-train over the REST API
// that Knative's autoscaler integration queries for predictive scale
// targets. It trains nothing.
//
// Usage:
//
//	femux-train -o model.json
//	femuxd -addr :8080 -model model.json
//	femuxd -addr :8080 -model model.json -data-dir /var/lib/femux -fsync always
//	femuxd -addr :8081 -model shared/model.json \
//	       -data-dir /var/lib/femux-0 -shards 2 -shard-id 0
//
// Endpoints: POST /v1/apps/{app}/observe, POST /v1/observe/batch,
// GET /v1/apps/{app}/target, GET /v1/apps/{app}/forecast, GET /healthz,
// GET /metrics (Prometheus text), POST /v1/admin/reload (re-read
// -model; SIGHUP does the same), and /debug/pprof. SIGINT/SIGTERM drain
// in-flight requests before exiting. A bad flag is refused before
// anything loads, opens or listens. No request has a server-side
// deadline: the caller owns it (Knative's autoscaler falls back to its
// reactive logic), so every reply reports what was done.
//
// With -data-dir, every acknowledged observation is persisted through a
// CRC-framed write-ahead log before it is applied, and the per-app
// sliding windows are restored on boot — a restart or reload-from-disk
// loses no state. The directory also holds the serving model: every
// install (boot, SIGHUP, admin reload, lifecycle promotion) is written
// there before it serves, and a restart serves it: -model only seeds an
// empty directory, and an empty one without -model is refused. The
// directory is opened first, so one this build does not read fails at
// once, naming its upgrade path.
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

	"github.com/ubc-cirrus-lab/femux-go/internal/femux"
	"github.com/ubc-cirrus-lab/femux-go/internal/knative"
	"github.com/ubc-cirrus-lab/femux-go/internal/lifecycle"
	"github.com/ubc-cirrus-lab/femux-go/internal/serving"
	"github.com/ubc-cirrus-lab/femux-go/internal/store"
)

// config is femuxd's command line. parseConfig fills it and validate
// refuses every bad value or combination, so a refusal comes before
// any model load, store open or listen. A boot on a store that holds no
// model, SIGHUP and POST /v1/admin/reload all read -model (loadModel).
type config struct {
	addr, modelPath            string
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
	fs.StringVar(&c.modelPath, "model", "", "model file from femux-train: served at boot when the store holds none (required without -data-dir), and reloaded by SIGHUP and POST /v1/admin/reload")
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

// validate refuses what would otherwise fail later: after the store was
// opened, or while serving.
func (c *config) validate() error {
	if c.modelPath == "" && c.dataDir == "" {
		return errors.New("-model is required without -data-dir (train one with femux-train)")
	}
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

	// The store opens before the model is read: a data directory this
	// build refuses fails in milliseconds.
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
			Logf:           log.Printf,
		})
		lcm.InstrumentWith(reg)
		lcm.Start()
		log.Printf("lifecycle: retraining every %s (drift threshold %g, min improvement %g)",
			cfg.retrainEvery, cfg.driftThreshold, cfg.minImprove)
	}

	server := &http.Server{
		Addr:        cfg.addr,
		Handler:     newHandler(svc, reg, cfg.loadModel, log.Default(), lcm),
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
					if err := reloadAndSwap(svc, cfg.loadModel); err != nil {
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
// none, the -model file, which it stores. A -model that is not the
// stored one is logged, not served: serving it would undo a promotion.
func bootModel(c config, st *store.Store) (*femux.Model, error) {
	stored := st.Model()
	if stored == nil {
		m, err := c.loadModel()
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

// loadModel reads the -model file, a model serialized by femux.Model.Save.
func (c config) loadModel() (*femux.Model, error) {
	if c.modelPath == "" {
		return nil, errors.New("no -model given: train one with femux-train -o model.json and pass -model model.json")
	}
	b, err := os.ReadFile(c.modelPath)
	if err != nil {
		return nil, fmt.Errorf("-model: %w", err)
	}
	m, err := femux.Load(bytes.NewReader(b))
	if err != nil {
		return nil, fmt.Errorf("-model %s: %w", c.modelPath, err)
	}
	log.Printf("loaded model from %s", c.modelPath)
	return m, nil
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
