package knative

import (
	"bytes"
	"fmt"
	"net/http"
	"slices"
	"strings"

	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
	"github.com/ubc-cirrus-lab/femux-go/internal/store"
)

// The commit path. A single observe is a batch of one: both handlers
// decode their own bodies, run observe, and map its results onto their
// own replies. A batch group-commits its items under one fsync, where a
// POST per app would pay a round trip and an fsync each.
//
// No lock spans the fleet: ownership is fixed for the process's lifetime,
// so it is checked without one. Lock order, outermost first: each item's
// app.mu in app-name order, then the tier or store mutex, never held
// while waiting on an app. Everything else that locks app state holds
// one app lock at a time.

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
// is temporarily unavailable (a dead backend — retry the same item), 421
// means the app lives on another shard (Owner, when set, names it —
// resend there). Zero Status with a non-empty Error is a permanent
// validation failure.
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

// batchHandler implements POST /v1/observe/batch: every valid item is
// group-committed under one fsync, then answered with its scale target;
// an invalid or foreign item is answered with its error while the rest
// land. A malformed body changes no counters and no state.
func (s *Service) batchHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "batch observe requires POST", http.StatusMethodNotAllowed)
		return
	}
	var req BatchObserveRequest
	if !decodeBody(w, r, maxBatchBody, &req) {
		return
	}
	if !batchSizeOK(w, len(req.Observations)) {
		return
	}
	resp := BatchObserveResponse{Results: make([]BatchItemResult, len(req.Observations))}
	accepted, err := s.observe(req.Observations, resp.Results)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	resp.Accepted, resp.Rejected = accepted, len(resp.Results)-accepted
	if sm := s.svcMetrics(); sm != nil {
		sm.BatchReqs.Inc()
	}
	writeJSON(w, &resp)
}

// observe is the one commit path. Every valid item is durable before any
// is applied or answered in results (same index); it reports how many it
// applied, none on a store error.
//
// Each valid item's app stays locked from before its restore (a window
// restored after the commit would count the item twice) until after its
// apply, so no other observation of the app lands in between: the hot
// tail grows in WAL order, and eviction, which locks the app first,
// cannot demote it mid-commit. The budget is enforced once per request,
// after every app is unlocked; with one still held, eviction could pick
// it and wait on its own lock.
func (s *Service) observe(items []BatchObservation, results []BatchItemResult) (accepted int, err error) {
	// held[i] is item i's app (nil if invalid), later[i] how many items
	// after it name the same app, byName the valid items' indices in
	// app-name order, durable their records in input order. A single
	// observe keeps all four on the stack.
	var (
		heldBuf   [1]*svcApp
		laterBuf  [1]int
		byNameBuf [1]int
		durBuf    [1]store.Observation
	)
	held := append(heldBuf[:0], make([]*svcApp, len(items))...)
	later := append(laterBuf[:0], make([]int, len(items))...)
	byName, durable := byNameBuf[:0], durBuf[:0]

	sm := s.svcMetrics()
	for i, obs := range items {
		res := &results[i]
		res.App = obs.App
		switch {
		case obs.App == "":
			res.Error = "missing app"
		case obs.Concurrency < 0:
			res.Error = "concurrency must be non-negative"
		default:
			msg, owner := s.foreign(obs.App)
			if msg == "" {
				byName = append(byName, i)
				durable = append(durable, store.Observation{App: obs.App, Concurrency: obs.Concurrency})
				continue
			}
			o := owner // escapes: declared only on this path
			res.Error, res.Status, res.Owner = msg, http.StatusMisdirectedRequest, &o
			if sm != nil {
				sm.Misrouted.Inc()
			}
		}
	}

	// Name order keeps two requests that share apps from deadlocking.
	if len(byName) > 1 {
		slices.SortStableFunc(byName, func(x, y int) int { return strings.Compare(items[x].App, items[y].App) })
	}
	// One borrowed workspace serves every item: they restore and apply
	// in turn.
	ws := forecast.GetWorkspace()
	for j, i := range byName {
		if j > 0 && items[i].App == items[byName[j-1]].App {
			held[i] = held[byName[j-1]]
		} else {
			held[i] = s.acquire(items[i].App, ws)
		}
	}
	// The sort is stable, so an app's items keep input order.
	for j := len(byName) - 2; j >= 0; j-- {
		if i, next := byName[j], byName[j+1]; held[i] == held[next] {
			later[i] = later[next] + 1
		}
	}
	if err = s.st.AppendBatch(durable); err != nil {
		if sm != nil {
			sm.StoreErrors.Add(float64(len(durable)))
		}
		err = fmt.Errorf("durable store append failed: %w", err)
	} else {
		for i, a := range held {
			if a != nil {
				res := &results[i]
				res.Target, res.Forecaster = s.apply(a, ws, items[i].Concurrency, max(items[i].UnitConcurrency, 1), later[i], sm)
				res.History = a.n
			}
		}
		accepted = len(durable)
	}
	for j, i := range byName {
		if j == 0 || held[i] != held[byName[j-1]] {
			held[i].mu.Unlock()
		}
	}
	forecast.PutWorkspace(ws)
	s.enforceBudget()
	return accepted, err
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
