// Package knative is the FeMux forecasting service that a Knative
// Serving cluster consults in place of its reactive autoscaler (§5.2,
// Fig 13): a net/http REST API that takes each app's per-interval average
// concurrency and answers the pod target for the next interval. Service
// holds the API, the per-app policies in hot, warm and cold tiers
// (tier.go) over a durable observation store, the batched commit path
// (batch.go) and its wire codec (wire.go), and the lifecycle's snapshot
// (lifecycle.go); ShardRouter (router.go) spreads apps over several
// instances; HTTPProvider is the client the Knative emulator
// (sim.Emulate) calls the service through.
package knative

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/femux"
	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
	"github.com/ubc-cirrus-lab/femux-go/internal/serving"
	"github.com/ubc-cirrus-lab/femux-go/internal/store"
)

// Service is the FeMux forecasting microservice (Fig 13): a REST API that
// receives per-interval average concurrency from the metrics collector and
// returns predictive scaling targets that override the default Autoscaler.
// Each application is served by a dedicated AppPolicy (the "thread in the
// FeMux pod"); the paper measures 7 ms mean / 25 ms p99 forecasting latency
// and ~1,200 applications per 1-vCPU pod at one forecast per app-minute.
//
// Endpoints:
//
//	POST /v1/apps/{app}/observe   {"concurrency": 1.5}
//	    append one completed interval's average concurrency; responds with
//	    the scale target for the next interval.
//	GET  /v1/apps/{app}/target?concurrency=100
//	    recompute the target without recording a new observation.
//	GET  /v1/apps/{app}/forecast?horizon=5&quantiles=0.5,0.9,0.95
//	    raw concurrency forecast from the app's current forecaster,
//	    optionally with one curve per requested quantile level.
//	GET  /healthz
//	    200, or 503 once the store's WAL has failed (store.Store.Err).
type Service struct {
	// live is the serving model; SwapModel replaces it, under mu.
	live atomic.Pointer[liveModel]
	mu   sync.RWMutex
	// qlevel, when positive, makes every scale decision provision for
	// that forecast quantile of demand instead of the point forecast
	// (the -quantile-level knob; immutable after construction).
	qlevel  float64
	reloads int

	// st holds every acknowledged observation before it is applied in
	// memory, and is the warm tier hot state is restored from (tier.go). A
	// directory-backed store also makes observations durable and seeds
	// per-app history on construction (zero-state-loss restart). Never nil
	// and never reassigned.
	st *store.Store
	// shardID/shards make this instance own only its hash partition of
	// apps, fixed for the process's lifetime; requests for foreign apps
	// are rejected with 421 so a misconfigured client cannot split one
	// app's history across instances.
	shardID, shards int
	restored        int // apps the store held at construction; never changes

	// tier bounds how much of the fleet is materialized and owns the app
	// map (see tier.go): a cache of the hot tier, not the fleet roster.
	tier tiers

	// driftBlock is the block geometry drift is scored in, fixed at boot
	// from the initial model's BlockSize so scores stay comparable across
	// model hot-swaps (the lifecycle retrains with the live geometry, so a
	// promoted model never changes it).
	driftBlock int

	// metrics is nil until InstrumentWith stores it, under mu. It is an
	// atomic pointer so a request reads it without taking mu.
	metrics atomic.Pointer[ServiceMetrics]
}

// ServiceOptions configure the durable, shard-aware deployment mode.
type ServiceOptions struct {
	// Store persists observations and restores per-app windows on boot.
	// Nil means a memory store (store.OpenMemory): same service, nothing
	// survives the process.
	Store *store.Store
	// ShardID/Shards enable hash-partition ownership (Shards <= 1 means
	// unsharded). The partition function is store.ShardOf.
	ShardID, Shards int
	// MaxHotApps bounds how many apps keep materialized serving state
	// (history + policy); the LRU excess is demoted to the warm tier.
	// 0 means unlimited (every touched app stays hot).
	MaxHotApps int
	// MaxWorkspaces is ignored: no app holds a forecast workspace, each
	// request takes one from forecast.GetWorkspace (see tiers).
	//
	// Deprecated: kept so that existing callers still compile.
	MaxWorkspaces int
	// QuantileLevel, when positive (e.g. 0.95), converts forecasts to
	// pod targets at that demand quantile instead of the point forecast
	// — SLO-aware provisioning. 0 keeps the point × headroom default.
	QuantileLevel float64
}

// liveModel is a serving model and the modelVersions stamp of its
// installation.
type liveModel struct {
	model   *femux.Model
	version int64
}

type svcApp struct {
	mu      sync.Mutex
	name    string
	policy  *femux.AppPolicy
	version int64 // of the liveModel policy was built from
	// due is the count at which policy's next block is due (see view), or
	// 0 while history does not hold min(n, lookback) values: after a
	// restore, a model swap or a lost page, the next call reads the store.
	due int32
	// pins counts the requests that hold or wait for the app, guarded by
	// tier.mu: eviction takes only entries at 0 (see tier.go). It shares
	// due's word: 96 bytes keep svcApp in the 96-byte size class.
	pins int32
	// history is a ring of exactly lookback values for policy's
	// forecaster (femux.RingTail): value i of the app's history lives at
	// history[i % lookback], so it holds the last min(n, lookback). n
	// counts every value the app has observed — the length replies, memos
	// and block boundaries use, and where the ring starts.
	history []float64
	n       int

	// prev and next link the tier's LRU (prev toward the most recently
	// touched end), guarded by tier.mu.
	prev, next *svcApp
}

// maxObserveBody bounds the observe POST body; real observations are a
// few dozen bytes, so anything near the cap is a client bug or abuse.
const maxObserveBody = 1 << 20

// NewService returns a Service backed by a trained model.
func NewService(model *femux.Model) *Service {
	return NewServiceWith(model, ServiceOptions{})
}

// push stores v, value n of the history, in its ring slot.
func (a *svcApp) push(v float64) {
	a.history[a.n%len(a.history)] = v
	a.n++
}

// NewServiceWith returns a Service with durability and sharding wired
// in. When opts.Store holds restored state, apps stay in the warm tier
// (compact windows inside the store) until first touched — boot cost and
// RSS scale with the store's compacted state, not with a materialized
// tail+policy per app — and the first request for an app
// restores it lazily, forecasting from the same history an uninterrupted
// process would hold. It serves model and writes nothing: the caller
// chooses it, from the model the store holds (Store.Model) or not.
func NewServiceWith(model *femux.Model, opts ServiceOptions) *Service {
	if opts.Store == nil {
		opts.Store = store.OpenMemory()
	}
	s := &Service{
		st: opts.Store, shardID: opts.ShardID, shards: opts.Shards,
		qlevel:     opts.QuantileLevel,
		driftBlock: model.Config().BlockSize,
		tier: tiers{
			maxHot: opts.MaxHotApps,
			apps:   map[string]*svcApp{},
		},
	}
	s.live.Store(&liveModel{model, modelVersions.Add(1)})
	s.restored = s.st.Apps()
	return s
}

// Restored reports how many apps were seeded from the durable store.
func (s *Service) Restored() int { return s.restored }

// Model returns the model currently serving requests.
func (s *Service) Model() *femux.Model { return s.live.Load().model }

// Reloads reports how many times the model has been hot-swapped.
func (s *Service) Reloads() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.reloads
}

// modelVersions numbers model installations (service start, swap)
// across the process, so a memo one Service left in a Store
// never matches the model another serves it with.
var modelVersions atomic.Int64

// memoGen maps a version onto a memo's generation stamp. 0 is "no memo",
// also for every version past the stamp's width (the conversion wraps
// 1<<32 to 0): a wrapped stamp could alias an old model's.
func memoGen(version int64) uint32 { return uint32(min(version, 1<<32)) }

// policyFor builds the policy a restored app serves with, from its window
// of n observations and memo m. A memo of this generation and this window
// length names the group of the window's last completed block — a record
// keeps its memo only across appends, which change n — so the policy
// resumes instead of extracting; otherwise it starts fresh. Callers
// count resumed once no tier lock is held.
func policyFor(model *femux.Model, gen uint32, m store.Memo, n int) (p *femux.AppPolicy, resumed bool) {
	if gen == 0 || m.Gen != gen || int(m.Len) != n {
		return model.NewAppPolicy(0), false
	}
	return model.ResumeAppPolicy(0, n, int(m.Group))
}

// countExtract counts the feature extraction, if any, that p's next call
// on an n-observation history will perform.
func (s *Service) countExtract(p *femux.AppPolicy, n int) {
	if _, ok := p.Classified(n); !ok {
		if sm := s.metrics.Load(); sm != nil {
			sm.Classifications.Inc("extract")
		}
	}
}

// apply is the in-memory half of one observation: once c is durable it
// joins the history, and the app's policy takes its step on the grown
// history (see decide). Its one caller, observe,
// holds a.mu from before c's commit until after this call, so no other
// observation of the app can commit or apply in between: in-memory
// order is WAL order per app. skip counts the app's later items in the
// same commit, which the store holds ahead of a. ws is the request's
// borrowed workspace.
func (s *Service) apply(a *svcApp, ws *forecast.Workspace, c float64, unitC, skip int, sm *ServiceMetrics) (target int, forecaster string) {
	a.push(c)
	return s.decide(a, ws, unitC, skip, sm)
}

// decide is the app's scale decision on its history as it stands — one
// policy call that re-classifies on a completed block, forecasts and
// names the forecaster — with a feature extraction counted if that call
// performed one, computed in ws. skip is as for apply. Callers hold a.mu.
func (s *Service) decide(a *svcApp, ws *forecast.Workspace, unitC, skip int, sm *ServiceMetrics) (target int, forecaster string) {
	view, due := s.view(a, skip, ws)
	target, forecaster, extracted := a.policy.Decide(view, a.n, unitC, s.qlevel, ws)
	if due {
		a.refill(view)
	}
	if extracted && sm != nil {
		sm.Classifications.Inc("extract")
	}
	return target, forecaster
}

// view returns, in ws and oldest first, the end of a's history its
// policy's next call reads (femux.AppPolicy.Reads): the ring's values
// until the count reaches due. Past it, the caller refills the ring from
// the view after its policy calls, and a view the ring does not hold is
// decoded from the store, skip values before its end (see apply).
// Callers hold a.mu.
func (s *Service) view(a *svcApp, skip int, ws *forecast.Workspace) (view []float64, due bool) {
	k := min(a.n, len(a.history))
	if due = a.n >= int(a.due); due {
		if k, _, _ = a.policy.Reads(a.n); k > len(a.history) || a.due == 0 {
			return s.st.Recent(a.name, k, skip, ws.History(k)), true
		}
	}
	return femux.RingTail(a.history, a.n, ws.History(k)), due
}

// refill resets the ring, at the lookback of policy's forecaster, to the
// last min(n, lookback) values of view, an end of a's history, and due
// to where the policy's next block completes — or to 0 if view falls
// short (a lost page). Callers hold a.mu.
func (a *svcApp) refill(view []float64) {
	_, look, due := a.policy.Reads(a.n)
	if len(view) < min(a.n, look) {
		due = 0
	}
	if len(a.history) != look {
		a.history = make([]float64, look)
	}
	femux.RingFill(a.history, a.n, view)
	a.due = int32(min(due, math.MaxInt32))
}

// SwapModel atomically replaces the serving model (the paper retrains
// monthly offline and ships the classifier into the forecasting pods).
// It is the one install path: SIGHUP, the admin reload and a lifecycle
// promotion all come through it. It writes m through the store before it
// publishes it, so a restart on the same data directory serves m; a failed
// write publishes nothing and is returned. It only publishes the model,
// under a new version, and takes no app lock: each app's next acquire
// finds its policy stale and gives it a fresh one from the new model,
// keeping its observation history, so forecasting continuity survives the
// swap — the policy's first call reads the app's last completed block from
// the store, whatever the new block size and window. Requests already
// holding the old policy finish against the old model; nothing in flight
// is dropped or torn.
func (s *Service) SwapModel(m *femux.Model) error {
	var b bytes.Buffer
	if err := m.Save(&b); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.st.SaveModel(b.Bytes()); err != nil {
		return err
	}
	s.live.Store(&liveModel{m, modelVersions.Add(1)})
	s.reloads++
	if sm := s.metrics.Load(); sm != nil {
		sm.Reloads.Inc()
		sm.setModelInfo(m)
	}
	return nil
}

// ServiceMetrics are the FeMux-semantic metric families exported next to
// the generic HTTP metrics: observation/decision counters, tier movement
// and model metadata. No family has an app label: per-app state lives in
// the tiers, and each reply's historyLen is the app's observation count.
type ServiceMetrics struct {
	Observes    *serving.Counter // femux_observations_total
	Targets     *serving.Counter // femux_targets_total
	Forecasts   *serving.Counter // femux_forecasts_total
	Reloads     *serving.Counter // femux_model_reloads_total
	ModelInfo   *serving.Gauge   // femux_model_info{default_forecaster,clusters}
	BatchReqs   *serving.Counter // femux_batch_requests_total
	Misrouted   *serving.Counter // femux_shard_misrouted_total
	StoreErrors *serving.Counter // femux_store_errors_total

	Classifications *serving.Counter   // femux_classifications_total{source}
	Evictions       *serving.Counter   // femux_tier_evictions_total
	Restores        *serving.Counter   // femux_tier_restores_total{from}
	RestoreSeconds  *serving.Histogram // femux_tier_restore_seconds{from}
}

func (sm *ServiceMetrics) setModelInfo(m *femux.Model) {
	sm.ModelInfo.Reset()
	sm.ModelInfo.Set(1, m.DefaultForecaster().Name(), strconv.Itoa(m.Diag.Clusters))
}

// InstrumentWith registers the service's metric families on reg and
// starts recording. Call once, before serving traffic.
func (s *Service) InstrumentWith(reg *serving.Registry) *ServiceMetrics {
	sm := &ServiceMetrics{
		Observes: reg.NewCounter("femux_observations_total",
			"Concurrency observations ingested."),
		Targets: reg.NewCounter("femux_targets_total",
			"Scale-target decisions served."),
		Forecasts: reg.NewCounter("femux_forecasts_total",
			"Raw forecasts served."),
		Reloads: reg.NewCounter("femux_model_reloads_total",
			"Model hot-swaps since process start."),
		ModelInfo: reg.NewGauge("femux_model_info",
			"Constant 1, labeled with the serving model's metadata.",
			"default_forecaster", "clusters"),
		BatchReqs: reg.NewCounter("femux_batch_requests_total",
			"Batched observe requests accepted (each covers many observations)."),
		Misrouted: reg.NewCounter("femux_shard_misrouted_total",
			"Requests rejected because the app belongs to another shard."),
		StoreErrors: reg.NewCounter("femux_store_errors_total",
			"Observations rejected because the durable store failed to append."),
		Classifications: reg.NewCounter("femux_classifications_total",
			"Block classifications, by source: a feature extraction, or a demoted app's memo resumed on restore.", "source"),
		Evictions: reg.NewCounter("femux_tier_evictions_total",
			"Hot apps demoted to the warm tier by the LRU budget."),
		Restores: reg.NewCounter("femux_tier_restores_total",
			"Apps rematerialized on first touch, by source tier.", "from"),
		RestoreSeconds: reg.NewHistogram("femux_tier_restore_seconds",
			"Latency of rematerializing a warm or cold app.",
			serving.DefaultLatencyBuckets, "from"),
	}
	reg.NewGaugeFunc("femux_apps",
		"Applications currently tracked by the service.",
		func() float64 { return float64(s.Apps()) })
	reg.NewGaugeFunc("femux_apps_hot",
		"Apps with materialized serving state (hot tier).",
		func() float64 { h, _, _ := s.TierCounts(); return float64(h) })
	reg.NewGaugeFunc("femux_apps_warm",
		"Apps held only as compact windows in memory (warm tier).",
		func() float64 { _, wm, _ := s.TierCounts(); return float64(wm) })
	reg.NewGaugeFunc("femux_apps_cold",
		"Apps paged to disk with an in-memory stub (cold tier).",
		func() float64 { _, _, c := s.TierCounts(); return float64(c) })
	reg.NewCounterFunc("femux_tier_count_anomalies_total",
		"Tier gauge samples whose store-backed warm count was internally inconsistent.",
		func() float64 { return float64(s.TierCountAnomalies()) })
	s.mu.Lock()
	sm.setModelInfo(s.Model())
	s.metrics.Store(sm)
	s.mu.Unlock()
	return sm
}

// ObserveRequest is the POST body for observations.
type ObserveRequest struct {
	Concurrency float64 `json:"concurrency"`
	// UnitConcurrency is the app's container concurrency limit (default 1).
	UnitConcurrency int `json:"unitConcurrency,omitempty"`
}

// TargetResponse reports a scaling decision.
type TargetResponse struct {
	App        string `json:"app"`
	Target     int    `json:"target"`
	Forecaster string `json:"forecaster"`
	History    int    `json:"historyLen"`
}

// ForecastResponse reports a raw forecast, plus one curve per requested
// quantile level when the request carried ?quantiles=.
type ForecastResponse struct {
	App        string         `json:"app"`
	Forecaster string         `json:"forecaster"`
	Values     []float64      `json:"values"`
	Quantiles  []QuantileBand `json:"quantiles,omitempty"`
}

// QuantileBand is one quantile curve of a forecast: at each step, demand
// is predicted to stay at or below Values[t] with probability Level.
type QuantileBand struct {
	Level  float64   `json:"level"`
	Values []float64 `json:"values"`
}

// restore fills a, just installed by acquire and locked, from the store:
// a genuinely new app starts empty, a demoted one takes its count and memo
// (it may page the app in from disk). Its ring starts empty and awaiting a
// refill, so the first call reads from the store exactly the values its
// policy needs. It returns the store's key of a known app, "" for a new
// one.
func (s *Service) restore(a *svcApp) (key string) {
	start := time.Now()
	m := s.live.Load()
	key, n, memo, paged, ok := s.st.RestoreMemo(a.name)
	var resumed bool
	a.policy, resumed = policyFor(m.model, memoGen(m.version), memo, n)
	a.n, a.version = n, m.version
	a.refill(nil)
	sm := s.metrics.Load()
	if !ok || sm == nil {
		return key
	}
	from := "warm"
	if paged {
		from = "cold"
	}
	sm.Restores.Inc(from)
	sm.RestoreSeconds.Observe(time.Since(start).Seconds(), from)
	if resumed {
		sm.Classifications.Inc("resumed")
	}
	return key
}

// foreign reports, for an app another shard owns, why this instance
// refuses it and which shard owns it; msg is empty for an app of its own.
// shardID and shards never change, so no lock is needed.
func (s *Service) foreign(name string) (msg string, owner int) {
	if s.shards <= 1 {
		return "", 0
	}
	if owner = store.ShardOf(name, s.shards); owner == s.shardID {
		return "", 0
	}
	return fmt.Sprintf("app %q belongs to shard %d, this instance is shard %d of %d",
		name, owner, s.shardID, s.shards), owner
}

// misrouted enforces shard ownership: when sharding is on and the app
// hashes to a different instance, the request is answered with 421
// (Misdirected Request) and an X-Femux-Owner header naming the owning
// shard, so clients and routers learn the correct owner instead of
// silently splitting one app's history across the fleet.
func (s *Service) misrouted(w http.ResponseWriter, name string) bool {
	msg, owner := s.foreign(name)
	if msg == "" {
		return false
	}
	if sm := s.metrics.Load(); sm != nil {
		sm.Misrouted.Inc()
	}
	w.Header().Set("X-Femux-Owner", strconv.Itoa(owner))
	http.Error(w, msg, http.StatusMisdirectedRequest)
	return true
}

// Handler returns the service's HTTP handler.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		// A failed WAL takes no more writes: report unhealthy, so a
		// supervisor restarts the process on its data directory.
		if err := s.st.Err(); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/v1/apps/", s.appsHandler)
	mux.HandleFunc("/v1/observe/batch", s.batchHandler)
	return mux
}

func (s *Service) appsHandler(w http.ResponseWriter, r *http.Request) {
	name, action, ok := serving.AppPath(r.URL.EscapedPath())
	if !ok || strings.Contains(action, "/") {
		http.Error(w, "expected /v1/apps/{app}/{observe|target|forecast}", http.StatusNotFound)
		return
	}
	if s.misrouted(w, name) {
		return
	}
	switch action {
	case "observe":
		if r.Method != http.MethodPost {
			http.Error(w, "observe requires POST", http.StatusMethodNotAllowed)
			return
		}
		var req ObserveRequest
		if !decodeBody(w, r, maxObserveBody, &req) {
			return
		}
		item := [1]BatchObservation{{App: name, Concurrency: req.Concurrency, UnitConcurrency: req.UnitConcurrency}}
		var res [1]BatchItemResult
		switch _, err := s.observe(item[:], res[:]); {
		case err != nil:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		case res[0].Error != "":
			http.Error(w, res[0].Error, http.StatusBadRequest)
		default:
			writeJSON(w, &TargetResponse{
				App: name, Target: res[0].Target,
				Forecaster: res[0].Forecaster, History: res[0].History,
			})
		}
	case "target":
		s.targetHandler(w, r, name)
	case "forecast":
		s.forecastHandler(w, r, name)
	default:
		http.Error(w, "unknown action "+action, http.StatusNotFound)
	}
}

// targetHandler answers GET /v1/apps/{app}/target. The read endpoints
// are methods of their own so that appsHandler's frame, which every
// observe's deep commit path sits on, stays small: femuxd serves each
// request on a fresh goroutine, whose stack grows by copying.
func (s *Service) targetHandler(w http.ResponseWriter, r *http.Request, name string) {
	if r.Method != http.MethodGet {
		http.Error(w, "target requires GET", http.StatusMethodNotAllowed)
		return
	}
	unitC := 1
	if v := r.URL.Query().Get("concurrency"); v != "" {
		var err error
		if unitC, err = strconv.Atoi(v); err != nil || unitC < 1 {
			http.Error(w, "bad concurrency", http.StatusBadRequest)
			return
		}
	}
	a := s.acquire(name)
	ws := forecast.GetWorkspace()
	sm := s.metrics.Load()
	target, fcName := s.decide(a, ws, unitC, 0, sm)
	forecast.PutWorkspace(ws)
	histLen := a.n
	s.releaseApp(a)
	if sm != nil {
		sm.Targets.Inc()
	}
	writeJSON(w, &TargetResponse{
		App: name, Target: target,
		Forecaster: fcName, History: histLen,
	})
}

// forecastHandler answers GET /v1/apps/{app}/forecast.
func (s *Service) forecastHandler(w http.ResponseWriter, r *http.Request, name string) {
	if r.Method != http.MethodGet {
		http.Error(w, "forecast requires GET", http.StatusMethodNotAllowed)
		return
	}
	query := r.URL.Query()
	horizon := 1
	if v := query.Get("horizon"); v != "" {
		var err error
		if horizon, err = strconv.Atoi(v); err != nil || horizon < 1 || horizon > 1440 {
			http.Error(w, "bad horizon", http.StatusBadRequest)
			return
		}
	}
	levels, ok := parseQuantileLevels(query.Get("quantiles"))
	if !ok {
		http.Error(w, "bad quantiles", http.StatusBadRequest)
		return
	}
	a := s.acquire(name)
	ws := forecast.GetWorkspace()
	// dst is nil: the response slices escape into the JSON encoder
	// after the workspace is given back, so they must not alias it.
	s.countExtract(a.policy, a.n)
	view, due := s.view(a, 0, ws)
	values := a.policy.ForecastTail(view, a.n, horizon, nil, ws)
	var bands []QuantileBand
	if len(levels) > 0 {
		flat := a.policy.ForecastQuantilesTail(view, a.n, horizon, levels, nil, ws)
		bands = make([]QuantileBand, len(levels))
		for q, lv := range levels {
			bands[q] = QuantileBand{
				Level:  lv,
				Values: flat[q*horizon : (q+1)*horizon : (q+1)*horizon],
			}
		}
	}
	if due {
		a.refill(view)
	}
	forecast.PutWorkspace(ws)
	fcName := a.policy.CurrentForecaster()
	s.releaseApp(a)
	if sm := s.metrics.Load(); sm != nil {
		sm.Forecasts.Inc()
	}
	writeJSON(w, ForecastResponse{
		App: name, Forecaster: fcName,
		Values: values, Quantiles: bands,
	})
}

// parseQuantileLevels parses the ?quantiles= query parameter: a
// comma-separated list of probability levels, each strictly inside
// (0, 1). Returns ok=false on malformed input; an absent parameter is
// simply no levels. The count is capped so a request cannot inflate the
// response arbitrarily.
func parseQuantileLevels(raw string) ([]float64, bool) {
	if raw == "" {
		return nil, true
	}
	parts := strings.Split(raw, ",")
	if len(parts) > 16 {
		return nil, false
	}
	levels := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || !(v > 0 && v < 1) {
			return nil, false
		}
		levels = append(levels, v)
	}
	return levels, true
}

// decodeBody decodes r's body, capped at limit bytes, into m. On failure
// it has answered 413 or 400 and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, m wireRequest) bool {
	return bodyOK(w, decodeWire(http.MaxBytesReader(w, r.Body, limit), m))
}

// bodyOK reports whether a body decoded without err; otherwise it has
// answered 413 or 400.
func bodyOK(w http.ResponseWriter, err error) bool {
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		http.Error(w, fmt.Sprintf("body exceeds %d bytes", tooBig.Limit),
			http.StatusRequestEntityTooLarge)
	} else {
		http.Error(w, "bad body: "+err.Error(), http.StatusBadRequest)
	}
	return false
}

// writeJSON answers 200 with v as a JSON document: the two hot replies
// through the wire codec, everything else through encoding/json.
func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	// A failed write means the client is gone; headers are already sent
	// and there is nothing more to do.
	if m, ok := v.(wireReply); ok {
		_ = encodeWire(w, m)
		return
	}
	_ = json.NewEncoder(w).Encode(v)
}

// Apps returns the number of applications the service tracks across every
// tier: the store's fleet, i.e. apps with at least one observation.
func (s *Service) Apps() int { return s.st.Apps() }

// HTTPProvider adapts a running FeMux service to the emulator's
// sim.ScaleProvider interface, exercising the real REST path end-to-end.
type HTTPProvider struct {
	BaseURL string
	Client  *http.Client
}

// Target implements sim.ScaleProvider.
func (p *HTTPProvider) Target(app string, minuteAvg float64, unitConcurrency int) (int, bool) {
	body, err := json.Marshal(&ObserveRequest{Concurrency: minuteAvg, UnitConcurrency: unitConcurrency})
	if err != nil {
		return 0, false
	}
	client := p.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Post(p.BaseURL+"/v1/apps/"+url.PathEscape(app)+"/observe", "application/json",
		bytes.NewReader(body))
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, false
	}
	var tr TargetResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		return 0, false
	}
	return tr.Target, true
}
