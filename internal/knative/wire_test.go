package knative

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"testing/iotest"

	"github.com/ubc-cirrus-lab/femux-go/internal/store"
)

// nonCanonicalBodies are shapes the wire codec must decline (or decode
// exactly as encoding/json does): they seed both FuzzWireCodec and
// FuzzBatchObserve.
var nonCanonicalBodies = []string{
	`{"observations":[{"app":"a","concurrency":1.5,"unitConcurrency":2},{"app":"b","concurrency":0}]}`,
	"{ \"observations\" :\t[ {\"app\" : \"a\" ,\r\n \"concurrency\" : 1 } ] }\n",
	`{"observations":[{"app":"\u0061pp","concurrency":1}]}`,
	`{"observations":[{"App":"a","CONCURRENCY":1}]}`,
	`{"observations":[{"app":"a","app":"b","concurrency":1,"concurrency":2}]}`,
	`{"observations":[{"app":"a","concurrency":1}],"observations":[]}`,
	`{"observations":null}`,
	`{"observations":[{"app":null,"concurrency":null,"unitConcurrency":null}]}`,
	`{"observations":[null]}`,
	`{"observations":[{"app":"a","concurrency":1,"extra":{"x":[1,2]}}],"more":true}`,
	`{"observations":[{"app":"a","concurrency":1}]} trailing`,
	`{"observations":[{"app":"a","concurrency":1}]}{"observations":[]}`,
	"{\"observations\":[{\"app\":\"a\xffb\",\"concurrency\":1}]}",
	`{"observations":[{"app":"a","concurrency":1e400}]}`,
	`{"observations":[{"app":"a","concurrency":-0}]}`,
	`{"observations":[{"app":"a","concurrency":1,"unitConcurrency":1.0}]}`,
	`{"observations":[{"app":"a","concurrency":1,"unitConcurrency":1e2}]}`,
	`{"observations":[{"app":"a","concurrency":01}]}`,
	`{"observations":[{"app":"a","concurrency":1.}]}`,
	`{"observations":[{"app":"a","concurrency":.5}]}`,
	`{"observations":[{"app":"a","concurrency":+1}]}`,
	`{"observations":[{"app":"a","concurrency":1E+2},{"app":"b","concurrency":2e-7}]}`,
	`{"observations":[{"app":"a<b>&c","concurrency":1}]}`,
	`{"observations":[{"app":"say \"hi\"","concurrency":1}]}`,
	`{"observations":[{"app":"café","concurrency":1}]}`,
	"{\"observations\":[{\"app\":\"tab\there\",\"concurrency\":1}]}",
	`{"observations":[{"app":"a","concurrency":"1"}]}`,
	`{"observations":[{"app":7,"concurrency":1}]}`,
	`{"observations":[{"app":"a","concurrency":1},]}`,
	`{"observations":[{"app":"a","concurrency":1,}]}`,
	`{"observations":[`,
	`{"observations":{}}`,
	`[]`, `{}`, ``, ` `, `null`, `0`, "\xef\xbb\xbf{}",
	// A single observe, and the two replies, which FuzzWireCodec decodes
	// with encoding/json to encode again.
	`{"concurrency":1.5,"unitConcurrency":3}`,
	`{"concurrency":2}`,
	`{"unitConcurrency":-0,"concurrency":-0}`,
	`{"Concurrency":2}`,
	`{"concurrency":1,"unitConcurrency":9223372036854775808}`,
	`{"app":"a","target":3,"forecaster":"fft-10","historyLen":45}`,
	`{"app":"a","target":3,"forecaster":"fft-10","historyLen":45,"historyLen":46}`,
	`{"results":[{"app":"a","target":1,"forecaster":"ar","historyLen":9},{"app":"b","target":0,"error":"missing app"},` +
		`{"app":"c","target":0,"error":"moved","status":421,"owner":0}],"accepted":1,"rejected":2}`,
	`{"results":[],"accepted":0,"rejected":0}`,
	`{"results":null,"accepted":0,"rejected":0}`,
	`{"results":[{"app":"a","target":1,"owner":null}],"accepted":1,"rejected":0}`,
	`{"accepted":1e0,"rejected":0}`,
}

// wireRequests returns fresh zero values of the two requests a server
// scans.
func wireRequests() []wireRequest {
	return []wireRequest{&ObserveRequest{}, &BatchObserveRequest{}}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// sameMessage is reflect.DeepEqual plus the sign of zero, which DeepEqual
// cannot see and json.Marshal prints.
func sameMessage(a, b wireRequest) bool {
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return reflect.DeepEqual(a, b) && bytes.Equal(ja, jb)
}

// checkWireDecode holds every request decoder to encoding/json on one
// input: the scanner alone either declines, leaving its target untouched,
// or agrees with json.Decoder; decodeWire — scanner plus fallback —
// always agrees, error text included.
func checkWireDecode(t *testing.T, data []byte) {
	t.Helper()
	want := wireRequests()
	for i, got := range wireRequests() {
		refErr := json.NewDecoder(bytes.NewReader(data)).Decode(want[i])
		if got.scanWire(&wireBuf{b: data}) {
			if refErr != nil {
				t.Fatalf("%T: scanner accepted %q, encoding/json says %v", got, data, refErr)
			}
			if !sameMessage(got, want[i]) {
				t.Fatalf("%T from %q: scanner %+v, encoding/json %+v", got, data, got, want[i])
			}
		} else if zero := wireRequests()[i]; !reflect.DeepEqual(got, zero) {
			t.Fatalf("%T: scanner declined %q but left %+v behind", got, data, got)
		}
		full := wireRequests()[i]
		err := decodeWire(bytes.NewReader(data), full)
		if errText(err) != errText(refErr) || !sameMessage(full, want[i]) {
			t.Fatalf("%T from %q: decodeWire (%+v, %v), encoding/json (%+v, %v)",
				full, data, full, err, want[i], refErr)
		}
	}
}

// checkWireEncode holds one reply encoder to encoding/json on one value:
// the appender alone either declines or matches json.Marshal, and
// encodeWire always matches json.Encoder, errors included.
func checkWireEncode(t *testing.T, m wireReply) {
	t.Helper()
	ref, refErr := json.Marshal(m)
	w := &wireBuf{}
	if m.appendWire(w); !w.bad && (refErr != nil || !bytes.Equal(w.b, ref)) {
		t.Fatalf("%T %+v: appender %q, json.Marshal %q (%v)", m, m, w.b, ref, refErr)
	}
	var gotLine, refLine bytes.Buffer
	err, refErr := encodeWire(&gotLine, m), json.NewEncoder(&refLine).Encode(m)
	if errText(err) != errText(refErr) || !bytes.Equal(gotLine.Bytes(), refLine.Bytes()) {
		t.Fatalf("%T %+v: encodeWire (%q, %v), json.Encoder (%q, %v)",
			m, m, gotLine.Bytes(), err, refLine.Bytes(), refErr)
	}
}

// FuzzWireCodec is the differential test that lets the codec stand in for
// encoding/json where a server uses it: arbitrary bytes through both
// request decoders, and arbitrary replies — built from the fuzzer's
// scalars, plus whatever encoding/json decodes the bytes to — through both
// reply encoders.
func FuzzWireCodec(f *testing.F) {
	for i, body := range nonCanonicalBodies {
		f.Add([]byte(body), "app-"+body[:min(len(body), 3)], "fft-10", i-2)
	}
	f.Add([]byte(`{}`), "a<b", "é", 0)
	f.Add([]byte(`{}`), "q\"uote", "back\\slash", 421)
	f.Add([]byte(`{}`), "nul\x00", "\xff", -1)
	f.Add([]byte(`{}`), "del\x7f", " ", 1<<30) // an int on 32-bit builds too
	f.Fuzz(func(t *testing.T, data []byte, app, forecaster string, n int) {
		checkWireDecode(t, data)
		for _, m := range []wireReply{&TargetResponse{}, &BatchObserveResponse{}} {
			_ = json.Unmarshal(data, m) // on an error, whatever it filled in
			checkWireEncode(t, m)
		}
		owner := n / 3
		for _, m := range []wireReply{
			&TargetResponse{App: app, Target: n, Forecaster: forecaster, History: -n},
			&BatchObserveResponse{},
			&BatchObserveResponse{Results: []BatchItemResult{}, Accepted: n},
			&BatchObserveResponse{Results: []BatchItemResult{
				{App: app, Target: n, Forecaster: forecaster, History: n},
				{App: app, Error: forecaster, Status: n, Owner: &owner}, {}}, Rejected: n},
		} {
			checkWireEncode(t, m)
		}
	})
}

// TestWireBodyReadError: a body that breaks off mid-read reaches
// encoding/json as the bytes read so far followed by the same error, so
// a complete value in front of the break still decodes and an incomplete
// one reports the break.
func TestWireBodyReadError(t *testing.T) {
	boom := errors.New("boom")
	for _, prefix := range []string{`{"concurrency":2}`, `{"concurrency":`, ``} {
		body := func() io.Reader {
			return io.MultiReader(bytes.NewReader([]byte(prefix)), iotest.ErrReader(boom))
		}
		var got, want ObserveRequest
		err, refErr := decodeWire(body(), &got), json.NewDecoder(body()).Decode(&want)
		if errText(err) != errText(refErr) || got != want {
			t.Errorf("prefix %q: decodeWire (%+v, %v), encoding/json (%+v, %v)", prefix, got, err, want, refErr)
		}
	}
}

// TestWireBufPoolBound: a buffer a large body grew is not pooled.
func TestWireBufPoolBound(t *testing.T) {
	w := getWireBuf()
	w.b = make([]byte, 0, maxPooledWireBuf+1)
	putWireBuf(w)
	for i := 0; i < 100; i++ {
		g := getWireBuf()
		if g == w {
			t.Fatalf("a %d-byte buffer went back into the pool", cap(w.b))
		}
		defer putWireBuf(g)
	}
}

// TestRouterBatchMatchesUnsharded drives one mixed batch — valid items,
// an empty app, a negative value, an item with unitConcurrency, and names
// only encoding/json can carry — through ShardRouter -> two shards and
// straight into one unsharded service. The fast codec on four hops must
// not change a byte.
func TestRouterBatchMatchesUnsharded(t *testing.T) {
	single := httptest.NewServer(NewService(trainTinyModel(t)).Handler())
	defer single.Close()
	svcs, front := newFleet(t, 2)

	moving := ""
	for i := 0; moving == ""; i++ {
		if name := fmt.Sprintf("mover-%d", i); store.ShardOf(name, 2) == 0 {
			moving = name
		}
	}

	body := []byte(`{"observations":[` +
		`{"app":"plain-a","concurrency":1.5},` +
		`{"app":"","concurrency":1},` +
		`{"app":"plain-b","concurrency":-2},` +
		`{"app":"` + moving + `","concurrency":0.25,"unitConcurrency":2},` +
		`{"app":"\u0065scaped","concurrency":3},` +
		`{"app":"café","concurrency":4},` +
		`{"app":"a<b>&\"c\"","concurrency":5},` +
		`{"app":"plain-c","concurrency":1e-7},` +
		`{"app":"plain-a","concurrency":2}]}`)
	post := func(url string) ([]byte, BatchObserveResponse) {
		resp, err := http.Post(url+"/v1/observe/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, read error %v, body %s", url, resp.StatusCode, err, raw)
		}
		var out BatchObserveResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("%s: %v in %s", url, err, raw)
		}
		return raw, out
	}
	wantRaw, want := post(single.URL)
	gotRaw, got := post(front.URL)
	if want.Accepted != 7 || want.Rejected != 2 || want.Results[1].Error != "missing app" ||
		want.Results[4].App != "escaped" || want.Results[6].App != `a<b>&"c"` || want.Results[8].History != 2 {
		t.Fatalf("unsharded reply is not what the batch should produce: %s", wantRaw)
	}
	if got.Accepted != want.Accepted || got.Rejected != want.Rejected {
		t.Errorf("routed accepted/rejected %d/%d, unsharded %d/%d", got.Accepted, got.Rejected, want.Accepted, want.Rejected)
	}
	for i := range want.Results {
		if !reflect.DeepEqual(got.Results[i], want.Results[i]) {
			t.Errorf("item %d: routed %+v, unsharded %+v", i, got.Results[i], want.Results[i])
		}
	}
	if !bytes.Equal(gotRaw, wantRaw) {
		t.Errorf("reply bytes differ:\nrouted    %s\nunsharded %s", gotRaw, wantRaw)
	}
	if svcs[1].Apps() == 0 || svcs[0].Apps() == 0 {
		t.Errorf("both shards should hold apps: %d and %d", svcs[0].Apps(), svcs[1].Apps())
	}
}

// TestQueryIntegersStrict: ?concurrency= and ?horizon= take a whole
// decimal integer; a numeric prefix of something else is a 400, not the
// prefix.
func TestQueryIntegersStrict(t *testing.T) {
	srv := httptest.NewServer(NewService(trainTinyModel(t)).Handler())
	defer srv.Close()
	for _, tc := range []struct {
		query string
		want  int
	}{
		{"forecast?horizon=5junk", 400}, {"forecast?horizon=3.7", 400}, {"forecast?horizon=0x10", 400},
		{"forecast?horizon=1441", 400}, {"forecast?horizon=0", 400}, {"forecast?horizon=-1", 400},
		{"forecast?horizon=7", 200}, {"forecast?horizon=", 200}, {"forecast", 200}, {"forecast?horizon=1440", 200},
		{"target?concurrency=5junk", 400}, {"target?concurrency=3.7", 400}, {"target?concurrency=0x10", 400},
		{"target?concurrency=0", 400}, {"target?concurrency=7", 200}, {"target?concurrency=", 200}, {"target", 200},
	} {
		resp, err := http.Get(srv.URL + "/v1/apps/strict/" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		if tc.query == "forecast?horizon=7" && resp.StatusCode == http.StatusOK {
			var fr ForecastResponse
			if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil || len(fr.Values) != 7 {
				t.Errorf("%s: %d values (%v), want 7", tc.query, len(fr.Values), err)
			}
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s = %d, want %d", tc.query, resp.StatusCode, tc.want)
		}
	}
}

// wireBenchBatch is a canonical n-item batch, as a request and as the
// reply a shard would give it.
func wireBenchBatch(n int) (*BatchObserveRequest, *BatchObserveResponse) {
	req := &BatchObserveRequest{Observations: make([]BatchObservation, n)}
	resp := &BatchObserveResponse{Results: make([]BatchItemResult, n), Accepted: n}
	for i := range req.Observations {
		app := fmt.Sprintf("app-%05d", i*37)
		req.Observations[i] = BatchObservation{App: app, Concurrency: float64(i%17) + 0.3125, UnitConcurrency: i % 3}
		resp.Results[i] = BatchItemResult{App: app, Target: i % 9, Forecaster: "fft-10", History: 240 + i}
	}
	return req, resp
}

// BenchmarkWireCodec times one 64-item batch through the codec and
// through encoding/json, the request decoded and the reply encoded.
func BenchmarkWireCodec(b *testing.B) {
	req, resp := wireBenchBatch(64)
	doc, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decode/BatchObserveRequest/wire", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(doc)))
		for i := 0; i < b.N; i++ {
			var into BatchObserveRequest
			if err := decodeWire(bytes.NewReader(doc), &into); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/BatchObserveRequest/json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(doc)))
		for i := 0; i < b.N; i++ {
			var into BatchObserveRequest
			if err := json.NewDecoder(bytes.NewReader(doc)).Decode(&into); err != nil {
				b.Fatal(err)
			}
		}
	})
	reply, err := json.Marshal(resp)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode/BatchObserveResponse/wire", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(reply)))
		for i := 0; i < b.N; i++ {
			if err := encodeWire(io.Discard, resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode/BatchObserveResponse/json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(reply)))
		for i := 0; i < b.N; i++ {
			if err := json.NewEncoder(io.Discard).Encode(resp); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestWireCanonicalAccepted keeps the differential test honest: a scanner
// that declined everything would pass it. The canonical shapes — inner
// whitespace, any key order, absent keys, exponents — take the fast path,
// and so do the replies a service writes.
func TestWireCanonicalAccepted(t *testing.T) {
	for i, docs := range [][]string{
		{`{"concurrency":1.5}`, `{"concurrency":1.5,"unitConcurrency":3}`, "{ \"unitConcurrency\" : 2 ,\n\"concurrency\":2E-3}\r\n", `{}`},
		{`{"observations":[{"app":"a","concurrency":1.5,"unitConcurrency":2},{"concurrency":-0,"app":"b"}]}`, `{"observations":[]}`, `{"observations":[ ]}`},
	} {
		for _, doc := range docs {
			if m := wireRequests()[i]; !m.scanWire(&wireBuf{b: []byte(doc)}) {
				t.Errorf("%T: scanner declined canonical %q", m, doc)
			}
			checkWireDecode(t, []byte(doc))
		}
	}
	owner := 0
	for _, m := range []wireReply{
		&TargetResponse{App: "a", Target: 3, Forecaster: "fft-10", History: 45},
		&TargetResponse{App: "del\x7f", History: 1},
		&BatchObserveResponse{Results: []BatchItemResult{
			{App: "a", Target: 1, Forecaster: "ar", History: 9}, {App: "", Error: "missing app"},
			{App: "c", Error: "moved", Status: 421, Owner: &owner}}, Accepted: 1, Rejected: 2},
		&BatchObserveResponse{Results: []BatchItemResult{}},
	} {
		w := &wireBuf{}
		if m.appendWire(w); w.bad {
			t.Errorf("%T: appender declined %+v", m, m)
		}
		checkWireEncode(t, m)
	}
}

// TestHTTPProviderBodiesTakeFastPath: the bodies HTTPProvider's two calls
// send, written by encoding/json, are ones the server's scanners take, so
// a client never puts a service on its encoding/json fallback.
func TestHTTPProviderBodiesTakeFastPath(t *testing.T) {
	svc := NewService(trainTinyModel(t)).Handler()
	var mu sync.Mutex
	var bodies [][]byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies = append(bodies, b)
		mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(b))
		svc.ServeHTTP(w, r)
	}))
	defer srv.Close()
	p := &HTTPProvider{BaseURL: srv.URL}

	sent := []ObserveRequest{{Concurrency: 1.5, UnitConcurrency: 2}, {Concurrency: 1e-7}, {}}
	for _, o := range sent {
		if _, ok := p.Target("fast-path", o.Concurrency, o.UnitConcurrency); !ok {
			t.Fatalf("Target(%+v) declined", o)
		}
	}
	items := []BatchObservation{{App: "a", Concurrency: 0.25, UnitConcurrency: 2}, {App: "b", Concurrency: 3e21}}
	if resp, err := p.ObserveBatch(items); err != nil || resp.Accepted != len(items) {
		t.Fatalf("ObserveBatch: %+v, %v", resp, err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(bodies) != len(sent)+1 {
		t.Fatalf("%d bodies sent, want %d", len(bodies), len(sent)+1)
	}
	for i, o := range sent {
		var got ObserveRequest
		if !got.scanWire(&wireBuf{b: bodies[i]}) || got != o {
			t.Errorf("Target body %q: scanned %+v, want %+v on the fast path", bodies[i], got, o)
		}
	}
	var got BatchObserveRequest
	if body := bodies[len(sent)]; !got.scanWire(&wireBuf{b: body}) || !reflect.DeepEqual(got.Observations, items) {
		t.Errorf("ObserveBatch body %q: scanned %+v, want %+v on the fast path", body, got.Observations, items)
	}
}
