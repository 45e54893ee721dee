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
// Each shard is a backend GROUP — "primary|replica[|replica...]" — and
// the router is the failover controller: a health loop watches every
// shard's active backend and, after enough consecutive failures,
// promotes the next backend in the group (POST /v1/admin/promote) and
// fails traffic over to it. The shard list is fixed for the router's
// lifetime: a fleet changes size offline (store.Split), never under it.
type ShardRouter struct {
	shards []*shardBackend
	client *http.Client

	reg        *serving.Registry
	routed     *serving.Counter // femux_route_requests_total{shard}
	errs       *serving.Counter // femux_route_errors_total{shard}
	promotions *serving.Counter // femux_route_promotions_total{shard}
}

// shardBackend is one shard's ordered backend group. urls[active] serves
// traffic; the rest are replicas tailing it with -replica-of.
type shardBackend struct {
	urls []string

	mu     sync.Mutex
	active int
	fails  int // consecutive health-check failures of urls[active]
}

func (b *shardBackend) url() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.urls[b.active]
}

// parseBackendGroup splits a "primary|replica|..." spec.
func parseBackendGroup(spec string) (*shardBackend, error) {
	var urls []string
	for _, u := range strings.Split(spec, "|") {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			continue
		}
		urls = append(urls, u)
	}
	if len(urls) == 0 {
		return nil, fmt.Errorf("knative: empty backend group %q", spec)
	}
	return &shardBackend{urls: urls}, nil
}

// NewShardRouter returns a router over the given backend specs, one per
// shard in shard order; each spec is "primary[|replica...]". client may
// be nil for a default with a 10 s timeout.
func NewShardRouter(backends []string, client *http.Client) (*ShardRouter, error) {
	if len(backends) == 0 {
		return nil, errors.New("knative: router needs at least one backend")
	}
	shards := make([]*shardBackend, len(backends))
	for i, spec := range backends {
		b, err := parseBackendGroup(spec)
		if err != nil {
			return nil, err
		}
		shards[i] = b
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
	rt.promotions = rt.reg.NewCounter("femux_route_promotions_total",
		"Replica promotions triggered by the health loop, per shard.", "shard")
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
	mux.HandleFunc("/v1/admin/failover", rt.failoverHandler)
	mux.Handle("/metrics", rt.reg.Handler())
	return mux
}

// healthz reports healthy only when every shard's active backend is.
func (rt *ShardRouter) healthz(w http.ResponseWriter, _ *http.Request) {
	var bad []string
	for i, b := range rt.shards {
		resp, err := rt.client.Get(b.url() + "/healthz")
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

// StartHealthLoop launches the failover controller: every interval it
// health-checks each shard's active backend; after threshold consecutive
// failures it promotes the next backend in the group and fails traffic
// over. Returns a stop function.
func (rt *ShardRouter) StartHealthLoop(interval time.Duration, threshold int) (stop func()) {
	if threshold < 1 {
		threshold = 1
	}
	stopCh := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stopCh:
				return
			case <-time.After(interval):
			}
			for i, b := range rt.shards {
				rt.checkShard(i, b, threshold)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(stopCh) })
		<-done
	}
}

func (rt *ShardRouter) checkShard(i int, b *shardBackend, threshold int) {
	healthy := false
	resp, err := rt.client.Get(b.url() + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		healthy = resp.StatusCode == http.StatusOK
	}
	b.mu.Lock()
	if healthy {
		b.fails = 0
		b.mu.Unlock()
		return
	}
	b.fails++
	fails, nURLs := b.fails, len(b.urls)
	b.mu.Unlock()
	if fails < threshold || nURLs < 2 {
		return
	}
	if err := rt.failover(i, b); err == nil {
		b.mu.Lock()
		b.fails = 0
		b.mu.Unlock()
	}
	// On error: fails stays >= threshold, so the next tick retries the
	// promotion (Promote is idempotent on the target).
}

// failover promotes the next backend in shard i's group and moves
// traffic to it.
func (rt *ShardRouter) failover(i int, b *shardBackend) error {
	b.mu.Lock()
	candidate := (b.active + 1) % len(b.urls)
	url := b.urls[candidate]
	b.mu.Unlock()
	resp, err := rt.client.Post(url+"/v1/admin/promote", "application/json", nil)
	if err != nil {
		rt.errs.Inc(strconv.Itoa(i))
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rt.errs.Inc(strconv.Itoa(i))
		return fmt.Errorf("promote %s: HTTP %d", url, resp.StatusCode)
	}
	b.mu.Lock()
	b.active = candidate
	b.mu.Unlock()
	rt.promotions.Inc(strconv.Itoa(i))
	return nil
}

// failoverHandler manually promotes shard {shard}'s next backend —
// POST /v1/admin/failover {"shard": 1} — for operators and tests.
func (rt *ShardRouter) failoverHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "failover requires POST", http.StatusMethodNotAllowed)
		return
	}
	var req struct {
		Shard int `json:"shard"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, maxObserveBody)).Decode(&req); err != nil {
		http.Error(w, "need {shard}", http.StatusBadRequest)
		return
	}
	if req.Shard < 0 || req.Shard >= len(rt.shards) {
		http.Error(w, fmt.Sprintf("no shard %d in a fleet of %d", req.Shard, len(rt.shards)),
			http.StatusBadRequest)
		return
	}
	b := rt.shards[req.Shard]
	b.mu.Lock()
	nURLs := len(b.urls)
	b.mu.Unlock()
	if nURLs < 2 {
		http.Error(w, fmt.Sprintf("shard %d has no replica to fail over to", req.Shard),
			http.StatusConflict)
		return
	}
	if err := rt.failover(req.Shard, b); err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	writeJSON(w, struct {
		Shard  int    `json:"shard"`
		Active string `json:"active"`
	}{req.Shard, b.url()})
}

// proxyApp forwards a per-app request to the shard owning the app and
// relays its reply, a 421 from a misconfigured shard included.
func (rt *ShardRouter) proxyApp(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/apps/")
	app, _, _ := strings.Cut(rest, "/")
	if app == "" {
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
	uri := r.URL.Path
	if r.URL.RawQuery != "" {
		uri += "?" + r.URL.RawQuery
	}
	resp, err := rt.forward(r, rt.shards[shard].url()+uri, body)
	if err != nil {
		rt.errs.Inc(label)
		http.Error(w, fmt.Sprintf("shard %d unavailable: %v", shard, err), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
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
			doc.putItem(obs)
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
		subs[s] = subBatch{url: rt.shards[s].url(), idx: idx[at[s]:at[s]:at[s+1]], results: res[at[s]:at[s]:at[s+1]]}
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
	for i, b := range rt.shards {
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
		}(i, b.url())
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
