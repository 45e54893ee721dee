package serving

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func scrape(t *testing.T, reg *Registry) string {
	t.Helper()
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestCounterRender(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("femux_test_total", "A test counter.", "endpoint", "code")
	c.Inc("observe", "200")
	c.Add(2, "observe", "200")
	c.Inc("target", "400")
	out := scrape(t, reg)
	for _, want := range []string{
		"# HELP femux_test_total A test counter.",
		"# TYPE femux_test_total counter",
		`femux_test_total{endpoint="observe",code="200"} 3`,
		`femux_test_total{endpoint="target",code="400"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q in:\n%s", want, out)
		}
	}
	if got := c.Value("observe", "200"); got != 3 {
		t.Errorf("Value = %v", got)
	}
	if got := c.Sum(); got != 4 {
		t.Errorf("Sum = %v", got)
	}
}

func TestGaugeSetAddReset(t *testing.T) {
	reg := NewRegistry()
	g := reg.NewGauge("femux_gauge", "g.", "which")
	g.Set(5, "a")
	g.Add(-2, "a")
	if got := g.Value("a"); got != 3 {
		t.Errorf("gauge = %v", got)
	}
	out := scrape(t, reg)
	if !strings.Contains(out, `femux_gauge{which="a"} 3`) {
		t.Errorf("scrape:\n%s", out)
	}
	g.Reset()
	g.Set(7, "b")
	out = scrape(t, reg)
	if strings.Contains(out, `which="a"`) {
		t.Errorf("reset left old child:\n%s", out)
	}
	if !strings.Contains(out, `femux_gauge{which="b"} 7`) {
		t.Errorf("scrape after reset:\n%s", out)
	}
}

func TestGaugeFuncAndScrapeHook(t *testing.T) {
	reg := NewRegistry()
	v := 1.5
	reg.NewGaugeFunc("femux_fn", "fn gauge.", func() float64 { return v })
	hooked := 0
	reg.OnScrape(func() { hooked++ })
	out := scrape(t, reg)
	if !strings.Contains(out, "femux_fn 1.5") {
		t.Errorf("scrape:\n%s", out)
	}
	if hooked != 1 {
		t.Errorf("scrape hook ran %d times", hooked)
	}
	v = 2
	out = scrape(t, reg)
	if !strings.Contains(out, "femux_fn 2") {
		t.Errorf("scrape after change:\n%s", out)
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("femux_lat_seconds", "latency.", []float64{0.01, 0.1, 1}, "endpoint")
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v, "observe")
	}
	out := scrape(t, reg)
	for _, want := range []string{
		`femux_lat_seconds_bucket{endpoint="observe",le="0.01"} 1`,
		`femux_lat_seconds_bucket{endpoint="observe",le="0.1"} 3`,
		`femux_lat_seconds_bucket{endpoint="observe",le="1"} 4`,
		`femux_lat_seconds_bucket{endpoint="observe",le="+Inf"} 5`,
		`femux_lat_seconds_count{endpoint="observe"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q in:\n%s", want, out)
		}
	}
	if got := h.Count("observe"); got != 5 {
		t.Errorf("Count = %d", got)
	}
	// Boundary value lands in its own bucket (le is inclusive).
	h.Observe(0.01, "edge")
	out = scrape(t, reg)
	if !strings.Contains(out, `femux_lat_seconds_bucket{endpoint="edge",le="0.01"} 1`) {
		t.Errorf("inclusive upper bound violated:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("femux_esc_total", "escaping.", "app")
	c.Inc(`we"ird\app` + "\n")
	out := scrape(t, reg)
	if !strings.Contains(out, `femux_esc_total{app="we\"ird\\app\n"} 1`) {
		t.Errorf("escaping wrong:\n%s", out)
	}
}

func TestRegisterIdempotent(t *testing.T) {
	reg := NewRegistry()
	a := reg.NewCounter("femux_dup_total", "dup.")
	b := reg.NewCounter("femux_dup_total", "dup.")
	a.Inc()
	b.Inc()
	out := scrape(t, reg)
	if !strings.Contains(out, "femux_dup_total 2") {
		t.Errorf("re-registration should share state:\n%s", out)
	}
	if strings.Count(out, "# TYPE femux_dup_total") != 1 {
		t.Errorf("family rendered twice:\n%s", out)
	}
}

func TestGoMetricsPresent(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterGoMetrics()
	out := scrape(t, reg)
	for _, name := range []string{"go_goroutines", "go_memstats_heap_alloc_bytes", "go_gc_cycles_total"} {
		if !strings.Contains(out, name+" ") {
			t.Errorf("missing runtime metric %s:\n%s", name, out)
		}
	}
}

func TestConcurrentUpdates(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("femux_conc_total", "c.", "worker")
	h := reg.NewHistogram("femux_conc_seconds", "h.", []float64{0.5})
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := string(rune('a' + w%4))
			for i := 0; i < per; i++ {
				c.Inc(lbl)
				h.Observe(0.1)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Sum(); got != workers*per {
		t.Errorf("counter sum = %v, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
}

// TestCounterCardinalityCap: past the cap, new label values fold into
// one {app="_other"} child — the family's sum stays exact (that is what
// femux-load's conservation checks scrape), memory stays bounded, and
// pre-cap children keep exact per-value attribution.
func TestCounterCardinalityCap(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("capped_total", "test.", "app").LimitCardinality(3)
	for i := 0; i < 50; i++ {
		c.Add(2, fmt.Sprintf("app-%d", i%10))
	}
	if got := c.Sum(); got != 100 {
		t.Fatalf("Sum = %v, want 100 (folding must not lose counts)", got)
	}
	// 5 increments each for app-0..app-2, the remaining 7 apps folded.
	for i := 0; i < 3; i++ {
		if got := c.Value(fmt.Sprintf("app-%d", i)); got != 10 {
			t.Errorf("app-%d = %v, want 10", i, got)
		}
	}
	body := scrape(t, reg)
	if !strings.Contains(body, `capped_total{app="_other"} 70`) {
		t.Errorf("scrape missing folded overflow child:\n%s", body)
	}
	if strings.Contains(body, `app="app-5"`) {
		t.Errorf("scrape leaked a beyond-cap child:\n%s", body)
	}
	// The cap counts real children; the overflow child itself must not
	// consume a slot and re-increments of pre-cap values stay attributed.
	c.Inc("app-1")
	if got := c.Value("app-1"); got != 11 {
		t.Errorf("app-1 after cap = %v, want 11", got)
	}
}

// TestWithHandlesSameExposition: updating through With handles and
// through label values is one operation spelled two ways — the same
// children in the same order with the same values, folded into "_other"
// at the same point — so the two scrapes are byte-identical.
func TestWithHandlesSameExposition(t *testing.T) {
	apps := []string{"a", "b", "a", "c", "d", "b", `e"quoted`, "a"}
	byValues, byHandles := NewRegistry(), NewRegistry()
	{
		c := byValues.NewCounter("femux_obs_total", "obs.", "app").LimitCardinality(3)
		h := byValues.NewHistogram("femux_lat_seconds", "lat.", []float64{0.1, 1}, "endpoint")
		for i, app := range apps {
			c.Inc(app)
			c.Add(float64(i), app)
			h.Observe(float64(i)/4, "ep-"+app)
		}
	}
	{
		c := byHandles.NewCounter("femux_obs_total", "obs.", "app").LimitCardinality(3)
		h := byHandles.NewHistogram("femux_lat_seconds", "lat.", []float64{0.1, 1}, "endpoint")
		counters, hists := map[string]CounterChild{}, map[string]HistogramChild{}
		for i, app := range apps {
			if _, ok := counters[app]; !ok {
				counters[app], hists[app] = c.With(app), h.With("ep-"+app)
			}
			counters[app].Inc()
			counters[app].Add(float64(i))
			hists[app].Observe(float64(i) / 4)
		}
		if counters["a"] != c.With("a") || counters["d"] != counters[`e"quoted`] {
			t.Error("With must return the child Inc uses: the same one per label set, one overflow child past the cap")
		}
	}
	want, got := scrape(t, byValues), scrape(t, byHandles)
	if got != want {
		t.Errorf("exposition differs:\nby label values:\n%s\nby handles:\n%s", want, got)
	}
	if !strings.Contains(want, `femux_obs_total{app="_other"} `) {
		t.Errorf("the cap was never reached, the overflow path went untested:\n%s", want)
	}
}

// TestExpositionGolden pins the text a registry of every kind renders —
// labelled and unlabelled counters and gauges, callback families,
// histograms, and overflow children of a capped counter and a capped
// histogram — to testdata/exposition.golden, byte for byte.
func TestExpositionGolden(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("femux_golden_requests_total", "Requests by app.", "app", "code").LimitCardinality(2)
	for i, app := range []string{"a", "b", "c", "d", "a"} {
		c.Add(float64(i)+0.5, app, "200")
	}
	c.Inc("b", "500")
	reg.NewCounter("femux_golden_plain_total", "An unlabelled counter.").Add(3)
	g := reg.NewGauge("femux_golden_level", "Levels by tier.", "tier")
	g.Set(1.25, "hot")
	g.Add(-2, "cold")
	g.Set(math.Inf(1), "warm")
	reg.NewGauge("femux_golden_unset", "An unlabelled gauge never set.")
	reg.NewGaugeFunc("femux_golden_fn", "A callback gauge.", func() float64 { return 42 })
	reg.NewCounterFunc("femux_golden_fn_total", "A callback counter.", func() float64 { return 7 })
	h := reg.NewHistogram("femux_golden_seconds", "Latency by endpoint.", []float64{0.01, 0.1, 1}, "endpoint")
	h.fam.limitCardinality(2)
	for i, v := range []float64{0.005, 0.05, 0.5, 5, 0.1, 1e-9, 2} {
		h.Observe(v, []string{"observe", "target", "forecast", "admin"}[i%4])
	}
	reg.NewHistogram("femux_golden_default_seconds", "Default buckets, one child.", nil).Observe(0.003)

	want, err := os.ReadFile(filepath.Join("testdata", "exposition.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := scrape(t, reg); got != string(want) {
		t.Errorf("exposition changed:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestCounterChildCarriesNoHistogram: a per-app counter family holds a
// child per app, so a counter or gauge child is its label pairs, its
// value and one nil pointer — 32 bytes on a 64-bit target.
func TestCounterChildCarriesNoHistogram(t *testing.T) {
	if got := unsafe.Sizeof(child{}); got > 32 {
		t.Errorf("a counter child takes %d bytes, want at most 32", got)
	}
	reg := NewRegistry()
	c := reg.NewCounter("femux_slim_total", "Per-app counter.", "app")
	g := reg.NewGauge("femux_slim_level", "Per-app gauge.", "app")
	c.Inc("a")
	g.Set(1, "a")
	if c.fam.children["a"].hist != nil || g.fam.children["a"].hist != nil {
		t.Error("a counter or gauge child holds histogram state")
	}
}
