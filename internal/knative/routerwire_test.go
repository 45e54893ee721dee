package knative

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/ubc-cirrus-lab/femux-go/internal/store"
)

// inProcess is a RoundTripper that serves each host's requests with that
// host's handler, on the calling goroutine: a router over it reaches its
// shards without sockets.
type inProcess map[string]http.Handler

func (p inProcess) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	p[r.URL.Host].ServeHTTP(rec, r)
	if r.Body != nil {
		r.Body.Close()
	}
	return rec.Result(), nil
}

// inProcessFleet is newFleet without sockets: n shard Services sharing one
// model and the router's handler in front of them.
func inProcessFleet(t testing.TB, n int) ([]*Service, http.Handler) {
	t.Helper()
	model := trainTinyModel(t)
	svcs := make([]*Service, n)
	urls := make([]string, n)
	hosts := inProcess{}
	for i := range svcs {
		svcs[i] = NewServiceWith(model, ServiceOptions{ShardID: i, Shards: n})
		hosts[fmt.Sprintf("shard%d", i)] = svcs[i].Handler()
		urls[i] = fmt.Sprintf("http://shard%d", i)
	}
	rt, err := NewShardRouter(urls, &http.Client{Transport: hosts})
	if err != nil {
		t.Fatal(err)
	}
	return svcs, rt.Handler()
}

func serveBody(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// sameAnswer fails t unless the router and an unsharded service gave the
// same status and the same body bytes.
func sameAnswer(t *testing.T, body []byte, routed, single *httptest.ResponseRecorder) {
	t.Helper()
	if routed.Code != single.Code || !bytes.Equal(routed.Body.Bytes(), single.Body.Bytes()) {
		t.Fatalf("body %.200q:\nrouted    %d %.300q\nunsharded %d %.300q",
			body, routed.Code, routed.Body.Bytes(), single.Code, single.Body.Bytes())
	}
}

// oversizeBatch is a canonical batch of n items, each its own app.
func oversizeBatch(n int) []byte {
	var b strings.Builder
	b.WriteString(`{"observations":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"app":"big-%d","concurrency":1}`, i)
	}
	b.WriteString(`]}`)
	return []byte(b.String())
}

// TestRouterBatchTooMany: a batch over maxBatchItems is refused by the
// router exactly as one service refuses it, even when every shard's share
// is under the cap, and nothing is forwarded.
func TestRouterBatchTooMany(t *testing.T) {
	svcs, router := inProcessFleet(t, 2)
	single := NewService(trainTinyModel(t)).Handler()
	for _, n := range []int{maxBatchItems + 1, 2 * maxBatchItems} {
		body := oversizeBatch(n)
		routed := serveBody(router, "/v1/observe/batch", body)
		sameAnswer(t, body, routed, serveBody(single, "/v1/observe/batch", body))
		if routed.Code != http.StatusBadRequest {
			t.Errorf("%d items: status %d, want 400", n, routed.Code)
		}
	}
	if svcs[0].Apps()+svcs[1].Apps() != 0 {
		t.Errorf("a refused batch landed on the shards: %d + %d apps", svcs[0].Apps(), svcs[1].Apps())
	}
}

// TestRouterProxyOversizeBody: a per-app body over maxObserveBody is
// refused 413 by the router as by one service — not cut at the cap and
// committed — and no observation lands.
func TestRouterProxyOversizeBody(t *testing.T) {
	svcs, router := inProcessFleet(t, 2)
	svc := NewService(trainTinyModel(t))
	body := append([]byte(`{"concurrency":1}`), bytes.Repeat([]byte{' '}, maxObserveBody)...)
	routed := serveBody(router, "/v1/apps/padded/observe", body)
	sameAnswer(t, body, routed, serveBody(svc.Handler(), "/v1/apps/padded/observe", body))
	if routed.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d, want 413", routed.Code)
	}
	if n := svcs[0].Apps() + svcs[1].Apps() + svc.Apps(); n != 0 {
		t.Errorf("an oversize observe landed: %d apps", n)
	}
	// At the cap exactly, the body fits and commits on both.
	body = body[:maxObserveBody]
	sameAnswer(t, body, serveBody(router, "/v1/apps/padded/observe", body),
		serveBody(svc.Handler(), "/v1/apps/padded/observe", body))
}

// checkScanRouted holds the router's span scan to the full scan on one
// input: both accept it or both decline it, and when they accept, each
// span decodes to the item the full scan built and carries its app's shard.
func checkScanRouted(t *testing.T, data []byte) {
	t.Helper()
	items, ok := (&wireBuf{b: data}).scanRouted(3)
	var req BatchObserveRequest
	if full := req.scanWire(&wireBuf{b: data}); ok != full {
		t.Fatalf("%q: span scan says %v, full scan %v", data, ok, full)
	}
	if !ok {
		return
	}
	if len(items) != len(req.Observations) {
		t.Fatalf("%q: %d spans, %d items", data, len(items), len(req.Observations))
	}
	for i, it := range items {
		var got BatchObservation
		if err := json.Unmarshal(data[it.start:it.end], &got); err != nil || got != req.Observations[i] {
			t.Fatalf("%q: span %d %q is %+v (%v), want %+v", data, i, data[it.start:it.end], got, err, req.Observations[i])
		}
		if want := store.ShardOf(got.App, 3); it.shard != want {
			t.Fatalf("%q: item %d on shard %d, want %d", data, i, it.shard, want)
		}
	}
}

func TestScanRoutedMatchesScanWire(t *testing.T) {
	req, _ := wireBenchBatch(16)
	doc, err := marshalWire(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range append(nonCanonicalBodies, string(doc),
		`{"observations":[ {"app":"a","concurrency":1e308} , {"concurrency":2,"app":"b"}]}`,
		`{"observations":[{"app":"a","concurrency":`+strings.Repeat("9", 309)+`}]}`,
		`{"observations":[{"app":"a","concurrency":`+strings.Repeat("9", 308)+`}]}`,
		`{"observations":[{"app":"a","concurrency":1,"unitConcurrency":99999999999999999999}]}`) {
		checkScanRouted(t, []byte(body))
	}
}

// TestScanReplyRecordsSpans: the reply scan returns each result object's
// bytes and the counts, from a canonical reply and from one encoding/json
// wrote with escapes; anything else it declines.
func TestScanReplyRecordsSpans(t *testing.T) {
	owner := 0
	resp := &BatchObserveResponse{Results: []BatchItemResult{
		{App: "plain", Target: 2, Forecaster: "fft-10", History: 9},
		{App: `a<b>&"c"\`, Error: "moved to \u2028 shard", Status: http.StatusMisdirectedRequest, Owner: &owner},
		{App: "x", Error: "bad", Status: http.StatusServiceUnavailable},
		{App: "y", Status: http.StatusMisdirectedRequest},
	}, Accepted: 1, Rejected: 3}
	doc, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var sub subBatch
	if !(&wireBuf{b: doc}).scanReply(&sub) {
		t.Fatalf("declined %s", doc)
	}
	for i := range resp.Results {
		want, _ := json.Marshal(&resp.Results[i])
		if !bytes.Equal(sub.results[i], want) {
			t.Errorf("result %d: span %s, want %s", i, sub.results[i], want)
		}
	}
	if sub.accepted != 1 || sub.rejected != 3 {
		t.Errorf("accepted %d rejected %d", sub.accepted, sub.rejected)
	}
	for _, bad := range []string{`{"results":[{"app":"a\"}],"accepted":0,"rejected":0}`,
		`{"results":[{"app":"a","x":1}],"accepted":1,"rejected":0}`, `{"results":[],"accepted":0}x`, ``} {
		if (&wireBuf{b: []byte(bad)}).scanReply(&subBatch{}) {
			t.Errorf("accepted %q", bad)
		}
	}
}

// TestRouterBatchConcurrent: batches routed from several goroutines at
// once each get every item back in order, and every acknowledged
// observation lands exactly once (meaningful under -race).
func TestRouterBatchConcurrent(t *testing.T) {
	svcs, router := inProcessFleet(t, 2)
	const clients, batches, items = 4, 20, 16
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			obs := make([]BatchObservation, items)
			for b := 0; b < batches; b++ {
				for i := range obs {
					obs[i] = BatchObservation{App: fmt.Sprintf("c%d-app-%d", c, i), Concurrency: float64(b)}
				}
				body, _ := json.Marshal(BatchObserveRequest{Observations: obs})
				rec := serveBody(router, "/v1/observe/batch", body)
				var out BatchObserveResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out.Accepted != items {
					t.Errorf("client %d batch %d: %d %v %.200s", c, b, rec.Code, err, rec.Body.Bytes())
					return
				}
				for i, res := range out.Results {
					if res.App != obs[i].App || res.History != b+1 {
						t.Errorf("client %d batch %d item %d: %+v", c, b, i, res)
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := svcs[0].Apps() + svcs[1].Apps(); got != clients*items {
		t.Errorf("fleet holds %d apps, want %d", got, clients*items)
	}
}

// routerMixedBatch is TestRouterBatchMatchesUnsharded's batch: valid items,
// an empty app, a negative value, an item with unitConcurrency, and names
// only encoding/json can carry.
func routerMixedBatch(moving string) []byte {
	return []byte(`{"observations":[` +
		`{"app":"plain-a","concurrency":1.5},{"app":"","concurrency":1},` +
		`{"app":"plain-b","concurrency":-2},` +
		`{"app":"` + moving + `","concurrency":0.25,"unitConcurrency":2},` +
		`{"app":"\u0065scaped","concurrency":3},{"app":"café","concurrency":4},` +
		`{"app":"a<b>&\"c\"","concurrency":5},{"app":"plain-c","concurrency":1e-7},` +
		`{"app":"plain-a","concurrency":2}]}`)
}

// FuzzRouterBatch is the router's differential test: every body goes to a
// router over two shards and to one unsharded service, and the two must
// answer the same status with the same bytes. Both sides see the same stream, so their state stays in
// step from input to input.
func FuzzRouterBatch(f *testing.F) {
	for _, body := range nonCanonicalBodies {
		f.Add([]byte(body))
	}
	_, router := inProcessFleet(f, 2)
	moving := ""
	for i := 0; moving == ""; i++ {
		if name := fmt.Sprintf("mover-%d", i); store.ShardOf(name, 2) == 0 {
			moving = name
		}
	}
	f.Add(routerMixedBatch(moving))
	f.Add(oversizeBatch(maxBatchItems + 1))
	single := NewService(trainTinyModel(f)).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		checkScanRouted(t, body)
		sameAnswer(t, body, serveBody(router, "/v1/observe/batch", body),
			serveBody(single, "/v1/observe/batch", body))
	})
}

// poolDropsItems reports whether sync.Pool is discarding items, as it
// does at random under the race detector.
func poolDropsItems() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		x := new(int)
		p.Put(x)
		if p.Get() != any(x) {
			return true
		}
	}
	return false
}

// discardWriter is a ResponseWriter that allocates nothing once warm.
type discardWriter struct {
	h      http.Header
	status int
	body   []byte
}

func (d *discardWriter) Header() http.Header { return d.h }
func (d *discardWriter) WriteHeader(c int)   { d.status = c }
func (d *discardWriter) Write(b []byte) (int, error) {
	d.body = append(d.body, b...)
	return len(b), nil
}

// TestRouterSplitAllocs bounds what the router itself allocates to split a
// canonical 64-item batch over two shards and merge the replies: the
// whole routed request, against canned shards, less the same client round
// trips made alone.
func TestRouterSplitAllocs(t *testing.T) {
	if poolDropsItems() {
		t.Skip("sync.Pool is dropping items (race detector)")
	}
	const n, shards = 64, 2
	req, _ := wireBenchBatch(n)
	body, err := marshalWire(req)
	if err != nil {
		t.Fatal(err)
	}
	// Each shard's share, and a canned reply with one result per item.
	subs := make([]*BatchObserveRequest, shards)
	hosts, urls := inProcess{}, make([]string, shards)
	for s := range subs {
		subs[s] = &BatchObserveRequest{Observations: []BatchObservation{}}
		for _, o := range req.Observations {
			if store.ShardOf(o.App, shards) == s {
				subs[s].Observations = append(subs[s].Observations, o)
			}
		}
		_, resp := wireBenchBatch(len(subs[s].Observations))
		reply, err := marshalWire(resp)
		if err != nil {
			t.Fatal(err)
		}
		hosts[fmt.Sprint(s)] = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.Write(reply)
		})
		urls[s] = fmt.Sprintf("http://%d", s)
	}
	client := &http.Client{Transport: hosts}
	rt, err := NewShardRouter(urls, client)
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()
	w := &discardWriter{h: http.Header{}}
	r := httptest.NewRequest(http.MethodPost, "/v1/observe/batch", nil)
	route := func() {
		r.Body, w.body = io.NopCloser(bytes.NewReader(body)), w.body[:0]
		h.ServeHTTP(w, r)
	}
	route()
	var out BatchObserveResponse
	if err := json.Unmarshal(w.body, &out); err != nil || w.status != 0 || out.Accepted != n || len(out.Results) != n {
		t.Fatalf("routed reply: status %d, %v, %.200s", w.status, err, w.body)
	}
	total := testing.AllocsPerRun(50, route)

	subBodies := make([][]byte, shards)
	for s, sub := range subs {
		if subBodies[s], err = marshalWire(sub); err != nil {
			t.Fatal(err)
		}
	}
	alone := testing.AllocsPerRun(50, func() {
		r.Body = io.NopCloser(bytes.NewReader(body))
		for s, b := range subBodies {
			resp, err := client.Post(urls[s]+"/v1/observe/batch", "application/json", bytes.NewReader(b))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})
	own := total - alone
	t.Logf("routed batch %.0f allocs, its client round trips alone %.0f: router %.0f", total, alone, own)
	if own > 24 {
		t.Errorf("the router made %.0f allocations to split and merge a %d-item batch, want at most 24", own, n)
	}
}

// BenchmarkShardRouterBatch routes one canonical 64-item batch through the
// router's handler to two shards in this process, over loopback sockets as
// femux-shard reaches its fleet, and back.
func BenchmarkShardRouterBatch(b *testing.B) {
	model := trainTinyModel(b)
	urls := make([]string, 2)
	for i := range urls {
		srv := httptest.NewServer(NewServiceWith(model, ServiceOptions{ShardID: i, Shards: 2}).Handler())
		b.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	rt, err := NewShardRouter(urls, nil)
	if err != nil {
		b.Fatal(err)
	}
	router := rt.Handler()
	req, _ := wireBenchBatch(64)
	body, err := marshalWire(req)
	if err != nil {
		b.Fatal(err)
	}
	w := &discardWriter{h: http.Header{}}
	r := httptest.NewRequest(http.MethodPost, "/v1/observe/batch", nil)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Body, w.body = io.NopCloser(bytes.NewReader(body)), w.body[:0]
		router.ServeHTTP(w, r)
		if w.status != 0 {
			b.Fatalf("status %d: %s", w.status, w.body)
		}
	}
}
