package knative

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/serving"
	"github.com/ubc-cirrus-lab/femux-go/internal/store"
)

// ShardRouter fans FeMux API traffic out to a fleet of femuxd instances
// that each own a hash partition of the apps (store.ShardOf — the same
// function the instances use to enforce ownership, so router and fleet
// can never disagree). Per-app requests are proxied to the owning shard;
// batch observes are split into per-shard sub-batches, forwarded
// concurrently, and merged back into input order; admin reloads fan out
// to every instance so one retrain propagates fleet-wide.
//
// Each shard is one backend, fixed for the router's lifetime: a crashed
// instance is restarted on its data directory, and a fleet changes size
// offline (store.Split), never under the router.
type ShardRouter struct {
	shards []string // shard i's base URL
	client *http.Client

	reg    *serving.Registry
	routed *serving.Counter // femux_route_requests_total{shard}
	errs   *serving.Counter // femux_route_errors_total{shard}
}

// NewShardRouter returns a router over the given backend base URLs, one
// per shard in shard order. client may be nil for a default with a 10 s
// timeout.
func NewShardRouter(backends []string, client *http.Client) (*ShardRouter, error) {
	if len(backends) == 0 {
		return nil, errors.New("knative: router needs at least one backend")
	}
	shards := make([]string, len(backends))
	for i, spec := range backends {
		if strings.Contains(spec, "|") {
			return nil, fmt.Errorf("knative: backend %q names replicas; a shard is one backend, and its recovery is a restart on the same data directory", spec)
		}
		if shards[i] = strings.TrimRight(strings.TrimSpace(spec), "/"); shards[i] == "" {
			return nil, fmt.Errorf("knative: empty backend for shard %d", i)
		}
	}
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	rt := &ShardRouter{shards: shards, client: client, reg: serving.NewRegistry()}
	rt.reg.RegisterGoMetrics()
	rt.routed = rt.reg.NewCounter("femux_route_requests_total",
		"Requests routed, per owning shard.", "shard")
	rt.errs = rt.reg.NewCounter("femux_route_errors_total",
		"Requests that failed at the backend, per shard.", "shard")
	rt.reg.NewGaugeFunc("femux_route_shards",
		"Number of backend shards behind this router.",
		func() float64 { return float64(rt.Shards()) })
	return rt, nil
}

// Shards reports the fleet size.
func (rt *ShardRouter) Shards() int { return len(rt.shards) }

// Handler returns the router's HTTP handler.
func (rt *ShardRouter) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", rt.healthz)
	mux.HandleFunc("/v1/apps/", rt.proxyApp)
	mux.HandleFunc("/v1/observe/batch", rt.splitBatch)
	mux.HandleFunc("/v1/admin/reload", rt.fanoutReload)
	mux.Handle("/metrics", rt.reg.Handler())
	return mux
}

// healthz reports healthy only when every shard is.
func (rt *ShardRouter) healthz(w http.ResponseWriter, _ *http.Request) {
	var bad []string
	for i, url := range rt.shards {
		resp, err := rt.client.Get(url + "/healthz")
		if err != nil {
			bad = append(bad, fmt.Sprintf("shard %d: %v", i, err))
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			bad = append(bad, fmt.Sprintf("shard %d: HTTP %d", i, resp.StatusCode))
		}
	}
	if len(bad) > 0 {
		http.Error(w, strings.Join(bad, "\n"), http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// proxyApp forwards a per-app request to the shard owning the app and
// relays its reply, a 421 from a misconfigured shard included. It routes
// on the unescaped name and forwards the path as the client escaped it.
func (rt *ShardRouter) proxyApp(w http.ResponseWriter, r *http.Request) {
	app, _, ok := serving.AppPath(r.URL.EscapedPath())
	if !ok {
		http.Error(w, "expected /v1/apps/{app}/...", http.StatusNotFound)
		return
	}
	shard := store.ShardOf(app, len(rt.shards))
	label := strconv.Itoa(shard)
	rt.routed.Inc(label)

	// Per-app request bodies are tiny (maxObserveBody). A body over the cap
	// is refused as a shard refuses it, not cut to fit.
	var body []byte
	if r.Body != nil {
		var err error
		body, err = io.ReadAll(io.LimitReader(r.Body, maxObserveBody+1))
		if err != nil {
			http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
			return
		}
		if len(body) > maxObserveBody {
			http.Error(w, fmt.Sprintf("body exceeds %d bytes", maxObserveBody), http.StatusRequestEntityTooLarge)
			return
		}
	}
	uri := r.URL.EscapedPath()
	if r.URL.RawQuery != "" {
		uri += "?" + r.URL.RawQuery
	}
	resp, err := rt.forward(r, rt.shards[shard]+uri, body)
	if err != nil {
		rt.errs.Inc(label)
		http.Error(w, fmt.Sprintf("shard %d unavailable: %v", shard, err), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

func (rt *ShardRouter) forward(r *http.Request, target string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, target, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	return rt.client.Do(req)
}

// splitBatch partitions a batch body by owning shard, posts the
// sub-batches concurrently, and stitches the per-item results back into
// the caller's input order. A whole-shard failure surfaces as per-item
// 503s for that shard's slice of the batch (the rest of the fleet still
// commits), so partial outages degrade instead of failing the
// collector's entire interval. It moves bytes, not observations:
// sub-batches hold the caller's item objects as sent, and the reply the
// shards' result objects as sent, which is what decoding and encoding
// them again would write.
func (rt *ShardRouter) splitBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "batch observe requires POST", http.StatusMethodNotAllowed)
		return
	}
	n := len(rt.shards)
	doc := getWireBuf()
	defer putWireBuf(doc)
	err := doc.readFrom(http.MaxBytesReader(w, r.Body, maxBatchBody))
	items, ok := doc.scanRouted(n)
	if err != nil || !ok {
		// Not canonical: decode it as a shard would (a bad body gets its 400
		// or 413), then append each item encoded again.
		var req BatchObserveRequest
		if !bodyOK(w, doc.decode(err, &req)) {
			return
		}
		items = make([]routedItem, len(req.Observations))
		for i := range req.Observations {
			obs, start := &req.Observations[i], len(doc.b)
			b, _ := json.Marshal(obs) // cannot fail: no NaN decodes
			doc.b = append(doc.b, b...)
			items[i] = routedItem{start, len(doc.b), store.ShardOf(obs.App, n)}
		}
	}
	if !batchSizeOK(w, len(items)) {
		return
	}

	// subs[s] takes idx[at[s]:at[s+1]], shard s's items in input order.
	at := make([]int, n+1)
	for _, it := range items {
		at[it.shard+1]++
	}
	subs := make([]subBatch, n)
	idx, res := make([]int, len(items)), make([][]byte, len(items))
	for s := range subs {
		if at[s+1] > 0 {
			rt.routed.Inc(strconv.Itoa(s))
		}
		at[s+1] += at[s]
		subs[s] = subBatch{url: rt.shards[s], idx: idx[at[s]:at[s]:at[s+1]], results: res[at[s]:at[s]:at[s+1]]}
	}
	for i, it := range items {
		subs[it.shard].idx = append(subs[it.shard].idx, i)
	}
	defer func() {
		for _, sub := range subs {
			if sub.doc != nil {
				putWireBuf(sub.doc)
			}
		}
	}()
	rt.postAll(subs, doc.b, items)

	out := make([][]byte, len(items))
	accepted, rejected := 0, 0
	for s, sub := range subs {
		if sub.err != nil {
			rt.errs.Inc(strconv.Itoa(s))
			for _, i := range sub.idx {
				var obs BatchObservation
				_ = json.Unmarshal(doc.b[items[i].start:items[i].end], &obs) // valid: scanned or encoded above
				start := len(doc.b)
				doc.putItem(&BatchItemResult{App: obs.App, Error: fmt.Sprintf("shard %d: %v", s, sub.err),
					Status: http.StatusServiceUnavailable})
				out[i] = doc.b[start:]
			}
			rejected += len(sub.idx)
			continue
		}
		for j, i := range sub.idx {
			out[i] = sub.results[j]
		}
		accepted, rejected = accepted+sub.accepted, rejected+sub.rejected
	}

	// The reply goes behind everything in doc, which router-made results
	// alias.
	start := len(doc.b)
	doc.raw(`{"results":[`)
	for i, span := range out {
		if i > 0 {
			doc.raw(`,`)
		}
		doc.b = append(doc.b, span...)
	}
	doc.putInt(`],"accepted":`, accepted)
	doc.putInt(`,"rejected":`, rejected)
	doc.raw("}\n")
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(doc.b[start:]) // a failed write means the client is gone
}

// subBatch is one backend's share of a routed batch and, once posted, its
// reply: each result's span in doc, and the counts.
type subBatch struct {
	url                string
	idx                []int // input index of each item, in sub-batch order
	err                error
	doc                *wireBuf
	results            [][]byte
	accepted, rejected int
}

// postAll posts every non-empty sub-batch at once: on goroutines, but the
// last on the caller's, whose stack has already grown.
func (rt *ShardRouter) postAll(subs []subBatch, doc []byte, items []routedItem) {
	last := len(subs) - 1
	for last >= 0 && len(subs[last].idx) == 0 {
		last--
	}
	var wg sync.WaitGroup
	for k := 0; k < last; k++ {
		if sub := &subs[k]; len(sub.idx) > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sub.err = rt.post(sub, doc, items)
			}()
		}
	}
	if last >= 0 {
		subs[last].err = rt.post(&subs[last], doc, items)
	}
	wg.Wait()
}

// post forwards sub's items, framed as one batch, and scans the reply.
func (rt *ShardRouter) post(sub *subBatch, doc []byte, items []routedItem) error {
	size := len(`{"observations":[]}`)
	for _, i := range sub.idx {
		size += items[i].end - items[i].start + 1
	}
	// A body of its own: the transport may still read it after Do returns.
	body := append(make([]byte, 0, size), `{"observations":[`...)
	for k, i := range sub.idx {
		if k > 0 {
			body = append(body, ',')
		}
		body = append(body, doc[items[i].start:items[i].end]...)
	}
	body = append(body, `]}`...)
	resp, err := rt.client.Post(sub.url+"/v1/observe/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	sub.doc = getWireBuf()
	if err := sub.doc.readFrom(resp.Body); err != nil {
		return err
	}
	if !sub.doc.scanReply(sub) {
		return errors.New("malformed batch reply")
	}
	if len(sub.results) != len(sub.idx) {
		return fmt.Errorf("shard returned %d results for %d observations", len(sub.results), len(sub.idx))
	}
	return nil
}

// fanoutReload POSTs /v1/admin/reload to every shard, so one retrained
// model in the shared store directory goes live fleet-wide.
func (rt *ShardRouter) fanoutReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "reload requires POST", http.StatusMethodNotAllowed)
		return
	}
	type shardReload struct {
		Shard  int    `json:"shard"`
		Status int    `json:"status"`
		Error  string `json:"error,omitempty"`
	}
	results := make([]shardReload, len(rt.shards))
	var wg sync.WaitGroup
	failed := false
	var mu sync.Mutex
	for i, url := range rt.shards {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			resp, err := rt.client.Post(url+"/v1/admin/reload", "", nil)
			res := shardReload{Shard: i}
			if err != nil {
				res.Error = err.Error()
			} else {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				res.Status = resp.StatusCode
				if resp.StatusCode != http.StatusOK {
					res.Error = fmt.Sprintf("HTTP %d", resp.StatusCode)
				}
			}
			mu.Lock()
			results[i] = res
			if res.Error != "" {
				failed = true
			}
			mu.Unlock()
		}(i, url)
	}
	wg.Wait()
	if failed {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadGateway)
		json.NewEncoder(w).Encode(results)
		return
	}
	writeJSON(w, results)
}
