package knative

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/serving"
	"github.com/ubc-cirrus-lab/femux-go/internal/store"
)

// Replication and resharding over HTTP. Every femuxd instance exposes
// the same endpoints; roles are a matter of who calls whom:
//
//	GET  /v1/replication/wal?seq=&off=&max=   stream framed WAL records
//	GET  /v1/replication/state                full-state snapshot (bootstrap)
//	GET  /v1/replication/status               position/cursor/epoch JSON
//	GET  /v1/replication/apps                 durable app list
//	GET  /v1/replication/app?name=            one app's history (migration read)
//	POST /v1/replication/import               adopt one app's history
//	POST /v1/admin/drain                      stop writes to an app (421 + owner)
//	POST /v1/admin/handoff                    drop a drained app's state
//	POST /v1/admin/promote                    replica -> serving primary
//	POST /v1/admin/epoch                      install a new shard count/epoch
//
// A follower (femuxd -replica-of) runs a Replicator that polls
// /v1/replication/wal and applies chunks through the store's
// exactly-once AppendReplicated; the femux-shard router health-checks
// primaries and POSTs /v1/admin/promote on failure. Resharding drains
// each moving app on its old owner, copies its history to the new
// owner, drops it, and finally bumps the fleet-wide epoch.

// Header names carrying WAL positions on the replication endpoints.
const (
	hdrNextSeq = "X-Femux-Next-Seq"
	hdrNextOff = "X-Femux-Next-Off"
	hdrHeadSeq = "X-Femux-Head-Seq"
	hdrHeadOff = "X-Femux-Head-Off"
)

// ReplStatus is the /v1/replication/status reply.
type ReplStatus struct {
	Position store.ReplPos  `json:"position"`         // this store's WAL head
	Cursor   *store.ReplPos `json:"cursor,omitempty"` // last applied primary position (followers)
	Total    int64          `json:"total"`
	Apps     int            `json:"apps"`
	Epoch    int            `json:"epoch"`
	Shards   int            `json:"shards"`
	ShardID  int            `json:"shardID"`
	Replica  bool           `json:"replica"`
	Joining  bool           `json:"joining"`
}

// AppTransfer is one app's full durable history — the migration payload
// and the /v1/replication/app reply.
type AppTransfer struct {
	App    string    `json:"app"`
	Window []float64 `json:"window"`
	Total  int64     `json:"total"`
}

// Epoch reports the service's current ownership epoch.
func (s *Service) Epoch() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// IsReplica reports whether the serving path is still gated.
func (s *Service) IsReplica() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.replica
}

// Promotions reports how many times this service was promoted.
func (s *Service) Promotions() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.promotions
}

// Promote turns a gated replica into the serving primary: the app map
// is reset so every app rematerializes lazily from the replicated store
// on first touch (the first forecast after failover is computed from
// exactly the windows the WAL stream delivered — bit-identical to the
// dead primary's), and the 503 gate drops. The promoted fleet boots in
// the warm tier: failover cost does not scale with fleet size.
// Idempotent: promoting a primary is a no-op.
func (s *Service) Promote() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.replica {
		return s.st.Apps()
	}
	s.replica = false
	s.promotions++
	s.version = modelVersions.Add(1)
	t := &s.tier
	t.mu.Lock()
	t.apps = map[string]*svcApp{}
	t.hot.Init()
	t.ws.Init()
	t.mu.Unlock()
	s.restored = s.st.Apps()
	return s.restored
}

// SetShards installs a new fleet size under a strictly newer ownership
// epoch, clearing the per-epoch moved/adopted sets (the new shard map
// subsumes them). Stale epochs are rejected so a lagging resharding
// coordinator cannot roll ownership backwards.
func (s *Service) SetShards(shards, epoch int) error {
	if shards < 1 {
		return fmt.Errorf("knative: shards must be >= 1, got %d", shards)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch <= s.epoch {
		return fmt.Errorf("knative: stale epoch %d (current %d)", epoch, s.epoch)
	}
	if s.shardID >= shards {
		return fmt.Errorf("knative: shard %d does not exist in a fleet of %d", s.shardID, shards)
	}
	s.shards, s.epoch = shards, epoch
	s.moved = map[string]int{}
	s.adopted = map[string]bool{}
	s.joining = false
	return nil
}

// DrainApp freezes one app for migration: subsequent requests answer 421
// with owner in X-Femux-Owner. The write fence guarantees that once this
// returns, the app's durable history is final — no in-flight write can
// land after it.
func (s *Service) DrainApp(app string, owner int) {
	s.drainMu.Lock()
	s.mu.Lock()
	s.moved[app] = owner
	s.mu.Unlock()
	s.drainMu.Unlock()
}

// HandoffApp completes a migration away: the drained app's durable and
// in-memory state is dropped (the 421 marker stays until the epoch
// bump). Refuses apps that were not drained first — dropping live state
// would lose observations.
func (s *Service) HandoffApp(app string) error {
	s.mu.RLock()
	_, drained := s.moved[app]
	s.mu.RUnlock()
	if !drained {
		return fmt.Errorf("knative: handoff of %q without drain", app)
	}
	if err := s.st.DropApp(app); err != nil {
		return err
	}
	s.dropCached(app)
	if sm := s.svcMetrics(); sm != nil {
		sm.Handoffs.Inc()
	}
	return nil
}

// AdoptApp installs one app's migrated history on its new owner,
// durably, and whitelists it against the (still old-epoch) shard map so
// per-app cutover happens before the fleet-wide epoch bump. Replace
// semantics make re-running an interrupted migration idempotent.
func (s *Service) AdoptApp(app string, window []float64, total int64) error {
	if app == "" {
		return fmt.Errorf("knative: adopt: empty app name")
	}
	if err := s.st.ImportApp(app, window, total); err != nil {
		return err
	}
	// Any cached serving state predates the import (including a stale copy
	// from a misroute bounce during resharding); drop it so the next touch
	// rematerializes from the imported history.
	s.dropCached(app)
	s.mu.Lock()
	s.adopted[app] = true
	delete(s.moved, app)
	s.mu.Unlock()
	if sm := s.svcMetrics(); sm != nil {
		sm.Adoptions.Inc()
	}
	return nil
}

// Status returns the replication status snapshot.
func (s *Service) Status() ReplStatus {
	st := ReplStatus{}
	s.mu.RLock()
	st.Epoch, st.Shards, st.ShardID, st.Replica = s.epoch, s.shards, s.shardID, s.replica
	st.Joining = s.joining
	s.mu.RUnlock()
	st.Apps = s.Apps()
	st.Total = s.st.TotalObservations()
	if pos, err := s.st.Position(); err == nil {
		st.Position = pos
	}
	if cur, ok := s.st.ReplCursor(); ok {
		st.Cursor = &cur
	}
	return st
}

// mountReplication registers the replication and migration endpoints on
// the service mux.
func (s *Service) mountReplication(mux *http.ServeMux) {
	mux.HandleFunc("/v1/replication/wal", s.walHandler)
	mux.HandleFunc("/v1/replication/state", s.stateHandler)
	mux.HandleFunc("/v1/replication/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Status())
	})
	mux.HandleFunc("/v1/replication/apps", s.appListHandler)
	mux.HandleFunc("/v1/replication/app", s.appExportHandler)
	mux.HandleFunc("/v1/replication/import", s.appImportHandler)
	mux.HandleFunc("/v1/admin/drain", s.drainHandler)
	mux.HandleFunc("/v1/admin/handoff", s.handoffHandler)
	mux.HandleFunc("/v1/admin/promote", s.promoteHandler)
	mux.HandleFunc("/v1/admin/epoch", s.epochHandler)
}

// needStore reports whether the instance's store is durable, having
// answered 503 when it is memory-only: its state cannot be replicated or
// migrated. This is the one place the service asks which store it has.
func (s *Service) needStore(w http.ResponseWriter) bool {
	durable := s.st.Durable()
	if !durable {
		http.Error(w, "no durable store (-data-dir) on this instance", http.StatusServiceUnavailable)
	}
	return durable
}

func (s *Service) walHandler(w http.ResponseWriter, r *http.Request) {
	if !s.needStore(w) {
		return
	}
	q := r.URL.Query()
	seq, err1 := strconv.ParseUint(q.Get("seq"), 10, 64)
	off, err2 := strconv.ParseInt(q.Get("off"), 10, 64)
	if err1 != nil || err2 != nil || off < 0 {
		http.Error(w, "need seq= and off= (non-negative integers)", http.StatusBadRequest)
		return
	}
	maxBytes := 1 << 20
	if v := q.Get("max"); v != "" {
		if m, err := strconv.Atoi(v); err == nil && m > 0 {
			maxBytes = m
		}
	}
	data, next, err := s.st.ReadWALFrom(store.ReplPos{Seq: seq, Off: off}, maxBytes)
	switch {
	case errors.Is(err, store.ErrCompacted):
		http.Error(w, err.Error(), http.StatusGone)
		return
	case errors.Is(err, store.ErrOutOfRange):
		http.Error(w, err.Error(), http.StatusRequestedRangeNotSatisfiable)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	head, _ := s.st.Position()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(hdrNextSeq, strconv.FormatUint(next.Seq, 10))
	w.Header().Set(hdrNextOff, strconv.FormatInt(next.Off, 10))
	w.Header().Set(hdrHeadSeq, strconv.FormatUint(head.Seq, 10))
	w.Header().Set(hdrHeadOff, strconv.FormatInt(head.Off, 10))
	w.Write(data)
}

func (s *Service) stateHandler(w http.ResponseWriter, r *http.Request) {
	if !s.needStore(w) {
		return
	}
	data, pos, err := s.st.ExportState()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(hdrNextSeq, strconv.FormatUint(pos.Seq, 10))
	w.Header().Set(hdrNextOff, strconv.FormatInt(pos.Off, 10))
	w.Write(data)
}

func (s *Service) appListHandler(w http.ResponseWriter, r *http.Request) {
	if !s.needStore(w) {
		return
	}
	writeJSON(w, struct {
		Apps []string `json:"apps"`
	}{Apps: s.st.AppNames()})
}

func (s *Service) appExportHandler(w http.ResponseWriter, r *http.Request) {
	if !s.needStore(w) {
		return
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		http.Error(w, "need name=", http.StatusBadRequest)
		return
	}
	win, total, ok := s.st.ExportApp(name)
	if !ok {
		http.Error(w, fmt.Sprintf("app %q has no durable state here", name), http.StatusNotFound)
		return
	}
	writeJSON(w, AppTransfer{App: name, Window: win, Total: total})
}

func (s *Service) appImportHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "import requires POST", http.StatusMethodNotAllowed)
		return
	}
	if s.replicaGated(w) {
		return
	}
	if !s.needStore(w) {
		return
	}
	var req AppTransfer
	if err := json.NewDecoder(io.LimitReader(r.Body, maxBatchBody)).Decode(&req); err != nil {
		http.Error(w, "bad body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.AdoptApp(req.App, req.Window, req.Total); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, struct {
		App     string `json:"app"`
		History int    `json:"historyLen"`
	}{App: req.App, History: len(req.Window)})
}

func (s *Service) drainHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "drain requires POST", http.StatusMethodNotAllowed)
		return
	}
	if s.replicaGated(w) {
		return
	}
	var req struct {
		App   string `json:"app"`
		Owner int    `json:"owner"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, maxObserveBody)).Decode(&req); err != nil || req.App == "" {
		http.Error(w, "need {app, owner}", http.StatusBadRequest)
		return
	}
	s.DrainApp(req.App, req.Owner)
	writeJSON(w, struct {
		App   string `json:"app"`
		Owner int    `json:"owner"`
	}{req.App, req.Owner})
}

func (s *Service) handoffHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "handoff requires POST", http.StatusMethodNotAllowed)
		return
	}
	if s.replicaGated(w) {
		return
	}
	var req struct {
		App string `json:"app"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, maxObserveBody)).Decode(&req); err != nil || req.App == "" {
		http.Error(w, "need {app}", http.StatusBadRequest)
		return
	}
	if err := s.HandoffApp(req.App); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, struct {
		App string `json:"app"`
	}{req.App})
}

func (s *Service) promoteHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "promote requires POST", http.StatusMethodNotAllowed)
		return
	}
	apps := s.Promote()
	writeJSON(w, struct {
		Apps       int `json:"apps"`
		Promotions int `json:"promotions"`
	}{apps, s.Promotions()})
}

func (s *Service) epochHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "epoch requires POST", http.StatusMethodNotAllowed)
		return
	}
	var req struct {
		Shards int `json:"shards"`
		Epoch  int `json:"epoch"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, maxObserveBody)).Decode(&req); err != nil {
		http.Error(w, "need {shards, epoch}", http.StatusBadRequest)
		return
	}
	if err := s.SetShards(req.Shards, req.Epoch); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, struct {
		Shards int `json:"shards"`
		Epoch  int `json:"epoch"`
	}{req.Shards, req.Epoch})
}

// Replicator tails a primary femuxd's WAL into a local store: the
// follower half of -replica-of. Chunks are applied through the store's
// exactly-once AppendReplicated; a position that compaction deleted
// falls back to the /state snapshot bootstrap. Safe to Stop at any time;
// after Stop returns no further writes reach the store.
type Replicator struct {
	st       *store.Store
	primary  string
	client   *http.Client
	Interval time.Duration // poll period when caught up (default 100ms)
	MaxBytes int           // per-fetch budget (default 1 MiB)

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	mu       sync.Mutex
	lastErr  error
	caughtUp bool

	fetches    *serving.Counter
	bootstraps *serving.Counter
	errsC      *serving.Counter
	bytesC     *serving.Counter
	lagBytes   *serving.Gauge
	up         *serving.Gauge
}

// NewReplicator returns a stopped Replicator; call Start.
func NewReplicator(st *store.Store, primaryURL string, client *http.Client) *Replicator {
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return &Replicator{
		st: st, primary: primaryURL, client: client,
		Interval: 100 * time.Millisecond, MaxBytes: 1 << 20,
		stop: make(chan struct{}), done: make(chan struct{}),
	}
}

// InstrumentWith registers replication metrics on reg. Call before Start.
func (r *Replicator) InstrumentWith(reg *serving.Registry) {
	r.fetches = reg.NewCounter("femux_replication_fetches_total",
		"WAL chunks fetched from the primary.")
	r.bootstraps = reg.NewCounter("femux_replication_bootstraps_total",
		"Snapshot bootstraps after falling behind compaction.")
	r.errsC = reg.NewCounter("femux_replication_errors_total",
		"Failed replication fetch/apply attempts.")
	r.bytesC = reg.NewCounter("femux_replication_bytes_total",
		"WAL bytes replicated from the primary.")
	r.lagBytes = reg.NewGauge("femux_replication_lag_bytes",
		"Bytes between the follower's cursor and the primary's WAL head (same segment; 0 when caught up).")
	r.up = reg.NewGauge("femux_replication_caught_up",
		"1 when the follower's cursor is at the primary's WAL head.")
}

// Start launches the pull loop.
func (r *Replicator) Start() {
	go func() {
		defer close(r.done)
		for {
			select {
			case <-r.stop:
				return
			default:
			}
			progress, err := r.step()
			r.mu.Lock()
			r.lastErr = err
			r.mu.Unlock()
			if err != nil && r.errsC != nil {
				r.errsC.Inc()
			}
			if progress && err == nil {
				continue // drain the backlog without sleeping
			}
			select {
			case <-r.stop:
				return
			case <-time.After(r.Interval):
			}
		}
	}()
}

// Stop halts the loop and waits for it to exit. Idempotent.
func (r *Replicator) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
}

// CaughtUp reports whether the last fetch found the follower at the
// primary's WAL head, plus the last error if any.
func (r *Replicator) CaughtUp() (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.caughtUp, r.lastErr
}

func (r *Replicator) setCaughtUp(v bool, lag int64) {
	r.mu.Lock()
	r.caughtUp = v
	r.mu.Unlock()
	if r.up != nil {
		if v {
			r.up.Set(1)
		} else {
			r.up.Set(0)
		}
	}
	if r.lagBytes != nil && lag >= 0 {
		r.lagBytes.Set(float64(lag))
	}
}

func parsePosHeaders(h http.Header, seqKey, offKey string) (store.ReplPos, error) {
	seq, err1 := strconv.ParseUint(h.Get(seqKey), 10, 64)
	off, err2 := strconv.ParseInt(h.Get(offKey), 10, 64)
	if err1 != nil || err2 != nil {
		return store.ReplPos{}, fmt.Errorf("knative: bad position headers %q/%q", h.Get(seqKey), h.Get(offKey))
	}
	return store.ReplPos{Seq: seq, Off: off}, nil
}

// step performs one fetch+apply. progress means a chunk or snapshot was
// applied and the loop should immediately fetch again.
func (r *Replicator) step() (progress bool, err error) {
	pos, ok := r.st.ReplCursor()
	if !ok {
		pos = store.ReplPos{Seq: 1}
	}
	url := fmt.Sprintf("%s/v1/replication/wal?seq=%d&off=%d&max=%d",
		r.primary, pos.Seq, pos.Off, r.MaxBytes)
	resp, err := r.client.Get(url)
	if err != nil {
		r.setCaughtUp(false, -1)
		return false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		if r.fetches != nil {
			r.fetches.Inc()
		}
		next, err := parsePosHeaders(resp.Header, hdrNextSeq, hdrNextOff)
		if err != nil {
			return false, err
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, int64(r.MaxBytes)+(2<<20)))
		if err != nil {
			return false, err
		}
		head, herr := parsePosHeaders(resp.Header, hdrHeadSeq, hdrHeadOff)
		lag := int64(-1)
		if herr == nil && head.Seq == next.Seq {
			lag = head.Off - next.Off
		}
		if len(body) == 0 && next == pos {
			r.setCaughtUp(true, 0)
			return false, nil
		}
		if _, err := r.st.AppendReplicated(body, next); err != nil {
			r.setCaughtUp(false, lag)
			return false, err
		}
		if r.bytesC != nil {
			r.bytesC.Add(float64(len(body)))
		}
		r.setCaughtUp(herr == nil && next == head, lag)
		return true, nil
	case http.StatusGone:
		// The primary compacted past our cursor: full snapshot bootstrap.
		io.Copy(io.Discard, resp.Body)
		if r.bootstraps != nil {
			r.bootstraps.Inc()
		}
		sresp, err := r.client.Get(r.primary + "/v1/replication/state")
		if err != nil {
			return false, err
		}
		defer sresp.Body.Close()
		if sresp.StatusCode != http.StatusOK {
			return false, fmt.Errorf("knative: state fetch: HTTP %d", sresp.StatusCode)
		}
		spos, err := parsePosHeaders(sresp.Header, hdrNextSeq, hdrNextOff)
		if err != nil {
			return false, err
		}
		data, err := io.ReadAll(io.LimitReader(sresp.Body, 1<<30))
		if err != nil {
			return false, err
		}
		if err := r.st.ImportState(data, spos); err != nil {
			return false, err
		}
		return true, nil
	default:
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		r.setCaughtUp(false, -1)
		return false, fmt.Errorf("knative: replication fetch: HTTP %d: %s",
			resp.StatusCode, bytes.TrimSpace(b))
	}
}
