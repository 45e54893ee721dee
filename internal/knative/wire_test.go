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
	// The other three messages.
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

// wireMessages returns fresh zero values of the four messages.
func wireMessages() []wireMessage {
	return []wireMessage{
		&ObserveRequest{}, &TargetResponse{}, &BatchObserveRequest{}, &BatchObserveResponse{},
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// sameMessage is reflect.DeepEqual plus the sign of zero, which DeepEqual
// cannot see and json.Marshal prints.
func sameMessage(a, b wireMessage) bool {
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return reflect.DeepEqual(a, b) && bytes.Equal(ja, jb)
}

// checkWireDecode holds every decoder to encoding/json on one input: the
// scanner alone either declines, leaving its target untouched, or agrees
// with json.Decoder; decodeWire — scanner plus fallback — always agrees,
// error text included.
func checkWireDecode(t *testing.T, data []byte) []wireMessage {
	t.Helper()
	want := wireMessages()
	for i, got := range wireMessages() {
		refErr := json.NewDecoder(bytes.NewReader(data)).Decode(want[i])
		if got.scanWire(&wireBuf{b: data}) {
			if refErr != nil {
				t.Fatalf("%T: scanner accepted %q, encoding/json says %v", got, data, refErr)
			}
			if !sameMessage(got, want[i]) {
				t.Fatalf("%T from %q: scanner %+v, encoding/json %+v", got, data, got, want[i])
			}
		} else if zero := wireMessages()[i]; !reflect.DeepEqual(got, zero) {
			t.Fatalf("%T: scanner declined %q but left %+v behind", got, data, got)
		}
		full := wireMessages()[i]
		err := decodeWire(bytes.NewReader(data), full)
		if errText(err) != errText(refErr) || !sameMessage(full, want[i]) {
			t.Fatalf("%T from %q: decodeWire (%+v, %v), encoding/json (%+v, %v)",
				full, data, full, err, want[i], refErr)
		}
	}
	return want
}

// checkWireEncode holds one encoder to encoding/json on one value: the
// appender alone either declines or matches json.Marshal; marshalWire and
// encodeWire always match json.Marshal and json.Encoder, errors included.
func checkWireEncode(t *testing.T, m wireMessage) {
	t.Helper()
	ref, refErr := json.Marshal(m)
	w := &wireBuf{}
	if m.appendWire(w); !w.bad && (refErr != nil || !bytes.Equal(w.b, ref)) {
		t.Fatalf("%T %+v: appender %q, json.Marshal %q (%v)", m, m, w.b, ref, refErr)
	}
	got, err := marshalWire(m)
	if errText(err) != errText(refErr) || !bytes.Equal(got, ref) {
		t.Fatalf("%T %+v: marshalWire (%q, %v), json.Marshal (%q, %v)", m, m, got, err, ref, refErr)
	}
	var gotLine, refLine bytes.Buffer
	err, refErr = encodeWire(&gotLine, m), json.NewEncoder(&refLine).Encode(m)
	if errText(err) != errText(refErr) || !bytes.Equal(gotLine.Bytes(), refLine.Bytes()) {
		t.Fatalf("%T %+v: encodeWire (%q, %v), json.Encoder (%q, %v)",
			m, m, gotLine.Bytes(), err, refLine.Bytes(), refErr)
	}
}

// FuzzWireCodec is the differential test that lets the codec stand in for
// encoding/json: arbitrary bytes through every decoder, and arbitrary
// structs — built from the fuzzer's scalars, plus whatever the bytes
// decoded to — through every encoder.
func FuzzWireCodec(f *testing.F) {
	for i, body := range nonCanonicalBodies {
		f.Add([]byte(body), "app-"+body[:min(len(body), 3)], "fft-10", float64(i)/4, i-2)
	}
	f.Add([]byte(`{}`), "a<b", "é", 1e21, 0)
	f.Add([]byte(`{}`), "q\"uote", "back\\slash", 1e-7, 421)
	f.Add([]byte(`{}`), "nul\x00", "\xff", -1e-9, -1)
	f.Add([]byte(`{}`), "del\x7f", " ", 123456789.125, 1<<30) // an int on 32-bit builds too
	f.Fuzz(func(t *testing.T, data []byte, app, forecaster string, conc float64, n int) {
		for _, m := range checkWireDecode(t, data) {
			checkWireEncode(t, m)
		}
		owner := n / 3
		for _, m := range []wireMessage{
			&ObserveRequest{Concurrency: conc, UnitConcurrency: n},
			&TargetResponse{App: app, Target: n, Forecaster: forecaster, History: -n},
			&BatchObserveRequest{},
			&BatchObserveRequest{Observations: []BatchObservation{}},
			&BatchObserveRequest{Observations: []BatchObservation{
				{App: app, Concurrency: conc, UnitConcurrency: n}, {App: forecaster, Concurrency: -conc}}},
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
// through encoding/json, each way, request and reply.
func BenchmarkWireCodec(b *testing.B) {
	req, resp := wireBenchBatch(64)
	for _, m := range []wireMessage{req, resp} {
		m := m
		doc, err := json.Marshal(m)
		if err != nil {
			b.Fatal(err)
		}
		name := reflect.TypeOf(m).Elem().Name()
		b.Run("decode/"+name+"/wire", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(doc)))
			for i := 0; i < b.N; i++ {
				if err := decodeWire(bytes.NewReader(doc), m); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decode/"+name+"/json", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(doc)))
			for i := 0; i < b.N; i++ {
				into := reflect.New(reflect.TypeOf(m).Elem()).Interface()
				if err := json.NewDecoder(bytes.NewReader(doc)).Decode(into); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("encode/"+name+"/wire", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(doc)))
			for i := 0; i < b.N; i++ {
				if err := encodeWire(io.Discard, m); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("encode/"+name+"/json", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(doc)))
			for i := 0; i < b.N; i++ {
				if err := json.NewEncoder(io.Discard).Encode(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestWireCanonicalAccepted keeps the differential test honest: a scanner
// that declined everything would pass it. The canonical shapes — inner
// whitespace, any key order, absent keys, exponents — take the fast path.
func TestWireCanonicalAccepted(t *testing.T) {
	for i, docs := range [][]string{
		{`{"concurrency":1.5}`, `{"concurrency":1.5,"unitConcurrency":3}`, "{ \"unitConcurrency\" : 2 ,\n\"concurrency\":2E-3}\r\n", `{}`},
		{`{"app":"a","target":3,"forecaster":"fft-10","historyLen":45}`, `{"historyLen":1,"app":"del` + "\x7f" + `"}`},
		{`{"observations":[{"app":"a","concurrency":1.5,"unitConcurrency":2},{"concurrency":-0,"app":"b"}]}`, `{"observations":[]}`, `{"observations":[ ]}`},
		{`{"results":[{"app":"a","target":1,"forecaster":"ar","historyLen":9},{"app":"","target":0,"error":"missing app"},` +
			`{"app":"c","target":0,"error":"moved","status":421,"owner":0}],"accepted":1,"rejected":2}`, `{"results":[],"accepted":0,"rejected":0}`},
	} {
		for _, doc := range docs {
			m := wireMessages()[i]
			if !m.scanWire(&wireBuf{b: []byte(doc)}) {
				t.Errorf("%T: scanner declined canonical %q", m, doc)
			}
			checkWireDecode(t, []byte(doc))
			w := &wireBuf{}
			if m.appendWire(w); w.bad {
				t.Errorf("%T: appender declined %+v", m, m)
			}
		}
	}
}
