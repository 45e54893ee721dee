package knative

import (
	"bytes"
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

// Replication over HTTP. Every femuxd instance exposes the same
// endpoints; roles are a matter of who calls whom:
//
//	GET  /v1/replication/wal?seq=&off=&max=   stream framed WAL records
//	GET  /v1/replication/state                full-state snapshot (bootstrap)
//	GET  /v1/replication/status               position/cursor/shard JSON
//	POST /v1/admin/promote                    replica -> serving primary
//
// A follower (femuxd -replica-of) runs a Replicator that polls
// /v1/replication/wal and applies chunks through the store's
// exactly-once AppendReplicated; the femux-shard router health-checks
// primaries and POSTs /v1/admin/promote on failure. Shard ownership never
// changes while a process runs: a fleet is resized offline, by
// store.Split over the stopped shards' data directories.

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
	Shards   int            `json:"shards"`
	ShardID  int            `json:"shardID"`
	Replica  bool           `json:"replica"`
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
	t.mu.Unlock()
	s.restored = s.st.Apps()
	return s.restored
}

// Status returns the replication status snapshot.
func (s *Service) Status() ReplStatus {
	st := ReplStatus{Shards: s.shards, ShardID: s.shardID, Replica: s.IsReplica()}
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

// mountReplication registers the replication endpoints on the service
// mux.
func (s *Service) mountReplication(mux *http.ServeMux) {
	mux.HandleFunc("/v1/replication/wal", s.walHandler)
	mux.HandleFunc("/v1/replication/state", s.stateHandler)
	mux.HandleFunc("/v1/replication/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Status())
	})
	mux.HandleFunc("/v1/admin/promote", s.promoteHandler)
}

// needStore reports whether the instance's store is durable, having
// answered 503 when it is memory-only: its state cannot be replicated.
// This is the one place the service asks which store it has.
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
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Header().Set(hdrNextSeq, strconv.FormatUint(pos.Seq, 10))
	w.Header().Set(hdrNextOff, strconv.FormatInt(pos.Off, 10))
	w.Write(data)
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

// maxStateBytes caps the /v1/replication/state body a follower reads.
var maxStateBytes int64 = 1 << 30

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
		data, err := io.ReadAll(io.LimitReader(sresp.Body, maxStateBytes+1))
		if err != nil {
			return false, err
		}
		if int64(len(data)) > maxStateBytes {
			// A cut body can end on a record boundary and import as a
			// smaller fleet: refuse it whole.
			return false, fmt.Errorf("knative: state body of %d bytes is over the %d-byte read cap",
				sresp.ContentLength, maxStateBytes)
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
