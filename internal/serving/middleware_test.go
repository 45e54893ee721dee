package serving

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestEndpointLabel(t *testing.T) {
	cases := map[string]string{
		"/healthz":                 "healthz",
		"/metrics":                 "metrics",
		"/debug/pprof/profile":     "pprof",
		"/v1/admin/reload":         "admin_reload",
		"/v1/admin/drain":          "admin_other",
		"/v1/admin/promote":        "admin_other",
		"/v1/admin/reshard":        "admin_other",
		"/v1/admin/failover":       "admin_other",
		"/v1/admin/lifecycle":      "admin_lifecycle",
		"/v1/admin/":               "admin_other",
		"/v1/admin/reload/":        "admin_other",
		"/v1/admin/wp-login.php":   "admin_other",
		"/v1/admin/reload?x=1":     "admin_other",
		"/v1/apps/foo/observe":     "observe",
		"/v1/observe/batch":        "observe_batch",
		"/v1/apps/foo/target":      "target",
		"/v1/apps/a-b.c/forecast":  "forecast",
		"/v1/apps/foo/whatever":    "apps_other",
		"/v1/apps/":                "apps_other",
		"/v1/apps/secret-app-name": "apps_other",
		"/anything/else":           "other",
	}
	for path, want := range cases {
		if got := EndpointLabel(path); got != want {
			t.Errorf("EndpointLabel(%q) = %q, want %q", path, got, want)
		}
	}
}

func TestInstrumentCountsAndTimes(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetrics(reg)
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/apps/x/observe" {
			w.WriteHeader(http.StatusOK)
			io.WriteString(w, "ok")
			return
		}
		http.Error(w, "nope", http.StatusNotFound)
	})
	srv := httptest.NewServer(m.Instrument(inner))
	defer srv.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Post(srv.URL+"/v1/apps/x/observe", "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(srv.URL + "/missing")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if got := m.Requests.Value("observe", "POST", "200"); got != 3 {
		t.Errorf("observe count = %v, want 3", got)
	}
	if got := m.Requests.Value("other", "GET", "404"); got != 1 {
		t.Errorf("404 count = %v, want 1", got)
	}
	if got := m.Latency.Count("observe"); got != 3 {
		t.Errorf("latency observations = %d, want 3", got)
	}
	if got := m.InFlight.Value(); got != 0 {
		t.Errorf("in-flight after drain = %v", got)
	}
}

func TestLogRequests(t *testing.T) {
	var buf bytes.Buffer
	logger := log.New(&buf, "", 0)
	h := LogRequests(logger, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz", "/metrics":
			w.WriteHeader(http.StatusOK)
		case "/boom":
			http.Error(w, "bad", http.StatusBadRequest)
		default:
			io.WriteString(w, "hello")
		}
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	for _, p := range []string{"/healthz", "/metrics", "/v1/apps/a/target", "/boom"} {
		resp, err := http.Get(srv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	out := buf.String()
	if strings.Contains(out, "/healthz") || strings.Contains(out, "path=/metrics") {
		t.Errorf("health/metrics should not be logged on success:\n%s", out)
	}
	if !strings.Contains(out, "path=/v1/apps/a/target status=200 bytes=5") {
		t.Errorf("missing request log line:\n%s", out)
	}
	if !strings.Contains(out, "path=/boom status=400") {
		t.Errorf("missing error log line:\n%s", out)
	}
}

func TestRunGracefulShutdown(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		<-release
		io.WriteString(w, "done")
	})
	ln := httptest.NewUnstartedServer(nil)
	addr := ln.Listener.Addr().String()
	ln.Listener.Close() // free the port for our server

	srv := &http.Server{Addr: addr, Handler: mux}
	stop := make(chan struct{})
	runErr := make(chan error, 1)
	go func() { runErr <- Run(srv, stop, 5*time.Second, nil) }()

	// Wait for the listener, then park a request in-flight.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/nope")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never came up")
		}
		time.Sleep(10 * time.Millisecond)
	}
	got := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/slow")
		if err != nil {
			got <- "error: " + err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		got <- string(b)
	}()
	<-started
	close(stop) // begin shutdown while /slow is in flight
	time.Sleep(50 * time.Millisecond)
	close(release)
	if body := <-got; body != "done" {
		t.Errorf("in-flight request dropped during shutdown: %q", body)
	}
	if err := <-runErr; err != nil {
		t.Errorf("Run returned %v", err)
	}
}

// TestInstrumentUnderLogRequests: stacked the way femuxd stacks them,
// Instrument reads the status off LogRequests' writer instead of wrapping
// a second one, and both still see what the handler answered.
func TestInstrumentUnderLogRequests(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetrics(reg)
	var seen http.ResponseWriter
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = w
		http.Error(w, "nope", http.StatusTeapot)
	})
	var logged strings.Builder
	h := LogRequests(log.New(&logged, "", 0), m.Instrument(inner))
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/observe/batch", nil))
		if sw, ok := seen.(*statusWriter); !ok || sw.ResponseWriter != http.ResponseWriter(rec) {
			t.Fatalf("handler saw %T wrapping %T, want one statusWriter around the recorder", seen, sw.ResponseWriter)
		}
	}
	if got := m.Requests.Value("observe_batch", "POST", "418"); got != 2 {
		t.Errorf("requests{observe_batch,POST,418} = %v, want 2", got)
	}
	if got := m.Latency.Count("observe_batch"); got != 2 {
		t.Errorf("latency count = %v, want 2", got)
	}
	if n := strings.Count(logged.String(), "status=418"); n != 2 {
		t.Errorf("logged %d status=418 lines, want 2:\n%s", n, logged.String())
	}
}

// TestInstrumentBoundsMethodLabel: net/http serves any token as a method,
// so a client inventing methods must not mint series. After 1,000
// distinct tokens every (endpoint, code) has at most one series beyond
// those of the standard methods, and the nine standard methods keep
// their own label.
func TestInstrumentBoundsMethodLabel(t *testing.T) {
	m := NewHTTPMetrics(NewRegistry())
	h := m.Instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusTeapot)
		}
	}))
	serve := func(method, path string) {
		r := httptest.NewRequest(http.MethodGet, path, nil)
		r.Method = method
		h.ServeHTTP(httptest.NewRecorder(), r)
	}
	for _, method := range standardMethods {
		serve(method, "/v1/apps/x/observe")
	}
	before := len(m.Requests.fam.children)
	for i := range 1000 {
		serve(fmt.Sprintf("X-%04d", i), "/v1/apps/x/observe")
		serve(fmt.Sprintf("PROPFIND%d", i), "/healthz")
	}
	// Two (endpoint, code) pairs: observe/200 and healthz/418.
	if got := len(m.Requests.fam.children) - before; got > 2 {
		t.Errorf("1,000 invented methods minted %d series, want at most 2", got)
	}
	if got := len(m.series); got > len(standardMethods)+2 {
		t.Errorf("the series cache holds %d entries, want at most %d", got, len(standardMethods)+2)
	}
	if got := m.Requests.Value("observe", "other", "200"); got != 1000 {
		t.Errorf(`observe "other" count = %v, want 1000`, got)
	}
	for _, method := range standardMethods {
		if got := m.Requests.Value("observe", method, "200"); got != 1 {
			t.Errorf("observe %s count = %v, want 1", method, got)
		}
	}
}
