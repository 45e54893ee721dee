package knative

import (
	"bytes"
	"fmt"
	"net/http"

	"github.com/ubc-cirrus-lab/femux-go/internal/store"
)

// The batched observe path: the metrics collector completes a whole
// interval for many apps at once, so POSTing them one by one pays one
// HTTP round trip and (with durability on) one fsync per app. The batch
// endpoint takes N observations in a single body and group-commits them
// under a single fsync, which is what keeps the observe path cheap while
// it becomes durable.

// maxBatchBody bounds the batch POST body; maxBatchItems bounds the
// per-request observation count so a single request cannot monopolize
// the WAL lock.
const (
	maxBatchBody  = 8 << 20
	maxBatchItems = 10000
)

// BatchObservation is one app-interval sample inside a batch.
type BatchObservation struct {
	App         string  `json:"app"`
	Concurrency float64 `json:"concurrency"`
	// UnitConcurrency is the app's container concurrency limit (default 1).
	UnitConcurrency int `json:"unitConcurrency,omitempty"`
}

// BatchObserveRequest is the POST /v1/observe/batch body.
type BatchObserveRequest struct {
	Observations []BatchObservation `json:"observations"`
}

// BatchItemResult reports one observation's outcome, in input order.
// Error is set (and the decision fields zero) for items that were
// rejected — invalid values or apps owned by another shard; the rest of
// the batch still lands. Status distinguishes why: 503 means the shard
// is temporarily unavailable (replica awaiting promotion, dead backend —
// retry the same item), 421 means the app lives on another shard
// (Owner, when set, names it — resend there). Zero Status with a
// non-empty Error is a permanent validation failure.
type BatchItemResult struct {
	App        string `json:"app"`
	Target     int    `json:"target"`
	Forecaster string `json:"forecaster,omitempty"`
	History    int    `json:"historyLen,omitempty"`
	Error      string `json:"error,omitempty"`
	Status     int    `json:"status,omitempty"`
	// Owner is the shard that owns the app, for Status 421 redirects.
	// A pointer because shard 0 is a valid owner.
	Owner *int `json:"owner,omitempty"`
}

// BatchObserveResponse is the batch reply. The request succeeds as a
// whole (HTTP 200) even when individual items were rejected; clients
// must check Rejected / per-item Error — femux-load exits non-zero on
// any partial failure.
type BatchObserveResponse struct {
	Results  []BatchItemResult `json:"results"`
	Accepted int               `json:"accepted"`
	Rejected int               `json:"rejected"`
}

// batchHandler implements POST /v1/observe/batch. Item validation happens
// first; all valid observations are group-committed to the durable store
// with one fsync, then applied in memory and answered with per-item scale
// targets. A malformed body changes no counters and no state.
func (s *Service) batchHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "batch observe requires POST", http.StatusMethodNotAllowed)
		return
	}
	if s.replicaGated(w) {
		return
	}
	var req BatchObserveRequest
	if !decodeBody(w, r, maxBatchBody, &req) {
		return
	}
	if !batchSizeOK(w, len(req.Observations)) {
		return
	}

	// The drain fence covers validation (the moved-app check) and the
	// group commit together, exactly like the single-observe path: a
	// concurrent DrainApp either lands before an item's ownership check
	// (the item 421s) or after the batch append (the export sees it).
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()

	resp := BatchObserveResponse{Results: make([]BatchItemResult, len(req.Observations))}
	valid := make([]int, 0, len(req.Observations))
	durable := make([]store.Observation, 0, len(req.Observations))
	// One read lock spans the ownership checks of the whole batch (pure
	// CPU, at most maxBatchItems of them) instead of one per item.
	s.mu.RLock()
	sm := s.metrics
	for i, obs := range req.Observations {
		res := &resp.Results[i]
		res.App = obs.App
		switch {
		case obs.App == "":
			res.Error = "missing app"
		case obs.Concurrency < 0:
			res.Error = "concurrency must be non-negative"
		default:
			if msg, status, owner := s.rejectAppLocked(obs.App); msg != "" {
				res.Error = msg
				res.Status = status
				if status == http.StatusMisdirectedRequest {
					o := owner
					res.Owner = &o
				}
				if sm != nil {
					sm.Misrouted.Inc()
				}
				break
			}
			valid = append(valid, i)
			durable = append(durable, store.Observation{App: obs.App, Concurrency: obs.Concurrency})
			continue
		}
		resp.Rejected++
	}
	s.mu.RUnlock()

	// Materialize and pin every app BEFORE the group commit. Ordering
	// matters under tiering: a lazily-restored window is read from the
	// store, so restoring after the commit would hand back a window that
	// already contains this batch's observations and the in-memory apply
	// below would double-count them. The pin holds off LRU eviction in
	// the window between commit and apply, where hot state is ahead of
	// nothing but could otherwise be demoted and re-restored post-commit.
	// pinned runs parallel to valid: an app the batch names twice is
	// pinned twice and unpinned twice (pins is a count), which costs no
	// hashing.
	pinned := make([]*svcApp, len(valid))
	for k, i := range valid {
		a := s.acquire(req.Observations[i].App)
		a.pins++
		a.mu.Unlock()
		pinned[k] = a
	}
	unpin := func() {
		for _, a := range pinned {
			a.mu.Lock()
			a.pins--
			a.mu.Unlock()
		}
	}

	// Group commit: the whole batch becomes durable under one fsync
	// before any of it is applied or acknowledged.
	if len(durable) > 0 {
		if err := s.st.AppendBatch(durable); err != nil {
			unpin()
			if sm != nil {
				sm.StoreErrors.Add(float64(len(durable)))
			}
			http.Error(w, "durable store append failed: "+err.Error(),
				http.StatusInternalServerError)
			return
		}
	}

	for k, i := range valid {
		obs := req.Observations[i]
		unitC := obs.UnitConcurrency
		if unitC < 1 {
			unitC = 1
		}
		a := pinned[k]
		a.mu.Lock()
		res := &resp.Results[i]
		res.Target, res.Forecaster = s.apply(a, obs.Concurrency, unitC, sm)
		res.History = len(a.history)
		a.mu.Unlock()
		resp.Accepted++
	}
	unpin()
	// One budget-enforcement pass for the whole batch: eviction work is
	// amortized the same way the fsync is.
	s.enforceTiers()
	if sm != nil {
		sm.BatchReqs.Inc()
	}
	writeJSON(w, &resp)
}

// batchSizeOK reports whether a batch of n items may be taken; otherwise
// it has answered 400. The router asks it too, before forwarding anything.
func batchSizeOK(w http.ResponseWriter, n int) bool {
	switch {
	case n == 0:
		http.Error(w, "empty batch", http.StatusBadRequest)
	case n > maxBatchItems:
		http.Error(w, fmt.Sprintf("batch exceeds %d observations", maxBatchItems), http.StatusBadRequest)
	default:
		return true
	}
	return false
}

// ObserveBatch posts a batch of observations through the real REST path
// (used by knative-emu's scalability study and tests).
func (p *HTTPProvider) ObserveBatch(items []BatchObservation) (*BatchObserveResponse, error) {
	body, err := marshalWire(&BatchObserveRequest{Observations: items})
	if err != nil {
		return nil, err
	}
	client := p.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Post(p.BaseURL+"/v1/observe/batch", "application/json",
		bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("batch observe: HTTP %d", resp.StatusCode)
	}
	var out BatchObserveResponse
	if err := decodeWire(resp.Body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
