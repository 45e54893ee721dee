package serving

import (
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// statusWriter captures the response status and byte count for logging and
// metrics without changing handler behavior.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Flush lets streaming handlers (pprof, trace) flush through the wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// EndpointLabel collapses a request path into a bounded-cardinality metric
// label: app names never leak into the endpoint dimension.
func EndpointLabel(path string) string {
	switch {
	case path == "/healthz":
		return "healthz"
	case path == "/metrics":
		return "metrics"
	case strings.HasPrefix(path, "/debug/pprof"):
		return "pprof"
	case path == "/v1/observe/batch":
		return "observe_batch"
	case strings.HasPrefix(path, "/v1/admin/"):
		// Only the actions femuxd and femux-shard register: any other
		// suffix is a client's invention and must not mint a series.
		switch action := strings.TrimPrefix(path, "/v1/admin/"); action {
		case "reload", "lifecycle":
			return "admin_" + action
		}
		return "admin_other"
	case strings.HasPrefix(path, "/v1/apps/"):
		rest := strings.TrimPrefix(path, "/v1/apps/")
		if i := strings.IndexByte(rest, '/'); i >= 0 && i+1 < len(rest) {
			switch action := rest[i+1:]; action {
			case "observe", "target", "forecast":
				return action
			}
		}
		return "apps_other"
	default:
		return "other"
	}
}

// standardMethods are the methods net/http names, the only ones that label a
// series as themselves.
var standardMethods = [...]string{
	http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut, http.MethodPatch,
	http.MethodDelete, http.MethodConnect, http.MethodOptions, http.MethodTrace,
}

// methodLabel bounds the method dimension as EndpointLabel bounds paths:
// net/http accepts any token as a method, so each one a client invents
// would otherwise mint a series, and a series-cache entry, for the life of
// the process. Every other token is "other".
func methodLabel(method string) string {
	for _, m := range standardMethods {
		if method == m {
			return m
		}
	}
	return "other"
}

// HTTPMetrics bundles the per-endpoint serving metrics.
type HTTPMetrics struct {
	Requests *Counter   // femux_http_requests_total{endpoint,method,code}
	Latency  *Histogram // femux_http_request_duration_seconds{endpoint}
	InFlight *Gauge     // femux_http_in_flight_requests

	// series caches the children a request outcome updates, so counting a
	// request formats no status code and joins no label key.
	mu     sync.RWMutex
	series map[httpOutcome]httpSeries
}

type httpOutcome struct {
	endpoint, method string
	code             int
}

type httpSeries struct {
	requests CounterChild
	latency  HistogramChild
}

// seriesFor returns the children for one outcome, resolving them the first
// time it is seen — in the order Instrument has always touched them, so
// the exposition's line order is unchanged.
func (m *HTTPMetrics) seriesFor(o httpOutcome) httpSeries {
	m.mu.RLock()
	hs, ok := m.series[o]
	m.mu.RUnlock()
	if ok {
		return hs
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if hs, ok = m.series[o]; !ok {
		hs = httpSeries{
			requests: m.Requests.With(o.endpoint, o.method, strconv.Itoa(o.code)),
			latency:  m.Latency.With(o.endpoint),
		}
		m.series[o] = hs
	}
	return hs
}

// NewHTTPMetrics registers the serving metric families on reg.
func NewHTTPMetrics(reg *Registry) *HTTPMetrics {
	return &HTTPMetrics{
		Requests: reg.NewCounter("femux_http_requests_total",
			"HTTP requests served, by endpoint, method, and status code.",
			"endpoint", "method", "code"),
		Latency: reg.NewHistogram("femux_http_request_duration_seconds",
			"HTTP request latency by endpoint.", DefaultLatencyBuckets, "endpoint"),
		InFlight: reg.NewGauge("femux_http_in_flight_requests",
			"Requests currently being served."),
		series: map[httpOutcome]httpSeries{},
	}
}

// Instrument wraps next with request counting and latency histograms.
func (m *HTTPMetrics) Instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Under LogRequests the writer already records the status.
		sw, ok := w.(*statusWriter)
		if !ok {
			sw = &statusWriter{ResponseWriter: w}
		}
		endpoint := EndpointLabel(r.URL.Path)
		m.InFlight.Add(1)
		start := time.Now()
		next.ServeHTTP(sw, r)
		elapsed := time.Since(start).Seconds()
		m.InFlight.Add(-1)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		hs := m.seriesFor(httpOutcome{endpoint, methodLabel(r.Method), status})
		hs.requests.Inc()
		hs.latency.Observe(elapsed)
	})
}

// LogRequests wraps next with one structured key=value log line per
// request. Health checks and metric scrapes are logged only on failure to
// keep steady-state logs readable.
func LogRequests(logger *log.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		if status < http.StatusBadRequest &&
			(r.URL.Path == "/healthz" || r.URL.Path == "/metrics") {
			return
		}
		logger.Printf("method=%s path=%s status=%d bytes=%d dur_ms=%.3f remote=%s",
			r.Method, r.URL.Path, status, sw.bytes,
			float64(time.Since(start).Microseconds())/1000, r.RemoteAddr)
	})
}
