package knative

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"testing"

	"github.com/ubc-cirrus-lab/femux-go/internal/femux"
	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
	"github.com/ubc-cirrus-lab/femux-go/internal/serving"
	"github.com/ubc-cirrus-lab/femux-go/internal/store"
)

// muxModel is trainTinyModel with its forecaster assignment rewritten.
// The tiny model gives every cluster group its default forecaster, which
// hides any path that skips classification or resumes the wrong one; here
// the default (what an unclassified policy answers with) differs from
// every group's forecaster, so such a path changes name and values.
// rotate renumbers the cluster groups (centroid i becomes group
// i-rotate), so a group index carried from one model to another names the
// wrong cluster.
func muxModel(t testing.TB, rotate int, def string, perGroup ...string) *femux.Model {
	t.Helper()
	return editModel(t, trainTinyModel(t), func(mj map[string]any) {
		mj["defaultForecaster"], mj["perGroup"] = def, perGroup
		c := mj["centroids"].([]any)
		mj["centroids"] = append(c[rotate:len(c):len(c)], c[:rotate]...)
	})
}

// reshaped is m over another tail geometry: the same classifier and
// group table with its block size and forecast window replaced.
func reshaped(t testing.TB, m *femux.Model, blockSize, window int) *femux.Model {
	t.Helper()
	return editModel(t, m, func(mj map[string]any) { mj["blockSize"], mj["window"] = blockSize, window })
}

// editModel round-trips m through its saved JSON with edit applied; the
// edited model may name ma1 and the extra forecasters.
func editModel(t testing.TB, m *femux.Model, edit func(map[string]any), extra ...forecast.Forecaster) *femux.Model {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var mj map[string]any
	if err := json.Unmarshal(buf.Bytes(), &mj); err != nil {
		t.Fatal(err)
	}
	edit(mj)
	b, err := json.Marshal(mj)
	if err != nil {
		t.Fatal(err)
	}
	out, err := femux.Load(bytes.NewReader(b), append([]forecast.Forecaster{forecast.NewMovingAverage(1)}, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// muxModelA and muxModelB disagree on the default, on every group's
// forecaster, and on which group a block falls into.
func muxModelA(t testing.TB) *femux.Model {
	return muxModel(t, 0, "fft10", "expsmooth", "ma1", "expsmooth")
}
func muxModelB(t testing.TB) *femux.Model {
	return muxModel(t, 1, "ma1", "fft10", "expsmooth", "fft10")
}

// shapedValue gives app i a regime of its own — bursty noise, a period-10
// spike train, mostly idle — so the fleet's blocks land in different
// cluster groups (bursty -> group 1, the other two -> group 2).
func shapedValue(i, minute int) float64 {
	h := uint64(i+1)*0x9E3779B97F4A7C15 + uint64(minute+1)*0xBF58476D1CE4E5B9
	h ^= h >> 31
	h *= 0x94D049BB133111EB
	h ^= h >> 29
	u := float64(h>>11) / (1 << 53)
	switch i % 3 {
	case 0:
		if h%3 == 0 {
			return math.Round(u*50*1000) / 1000
		}
		return 0
	case 1:
		if (minute+i)%10 < 2 {
			return 2 + math.Round(u*1000)/1000
		}
		return 0
	default:
		if h%11 == 0 {
			return 1
		}
		return 0
	}
}

// seedWindow stores win as app's whole history, as observations the
// serving path never saw.
func seedWindow(t testing.TB, st *store.Store, app string, win []float64) {
	t.Helper()
	obs := make([]store.Observation, len(win))
	for i, v := range win {
		obs[i] = store.Observation{App: app, Concurrency: v}
	}
	if err := st.AppendBatch(obs); err != nil {
		t.Fatal(err)
	}
}

func shapedWindow(i, from, n int) []float64 {
	w := make([]float64, n)
	for m := range w {
		w[m] = shapedValue(i, from+m)
	}
	return w
}

func classifications(sm *ServiceMetrics) (extract, resumed int) {
	return int(sm.Classifications.Value("extract")), int(sm.Classifications.Value("resumed"))
}

// tieredFleet opens a service over a directory store (dir != "") or a
// memory store with a one-app hot budget, so touching one app evicts the
// other.
func tieredFleet(t *testing.T, model *femux.Model, dir string) (*Service, *ServiceMetrics, *store.Store) {
	t.Helper()
	st := store.OpenMemory()
	if dir != "" {
		var err error
		if st, err = store.Open(dir, store.Options{Sync: store.SyncNever, CompactEvery: -1}); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { st.Close() })
	svc := NewServiceWith(model, ServiceOptions{Store: st, MaxHotApps: 1})
	return svc, svc.InstrumentWith(serving.NewRegistry()), st
}

// TestForecastFirstAfterRestore is the regression test for the
// bit-identity hole: ForecastWS and ForecastQuantilesWS used to read the
// policy's forecaster without classifying, so a forecast issued first on
// a just-restored (or just-swapped) app answered with the model's
// default forecaster. Every path below must answer exactly as an
// uninterrupted control does.
func TestForecastFirstAfterRestore(t *testing.T) {
	modelA, modelB := muxModelA(t), muxModelB(t)
	ctl := NewService(modelA)
	ctlSrv := httptest.NewServer(ctl.Handler())
	defer ctlSrv.Close()
	dir := t.TempDir()
	svc, _, st := tieredFleet(t, modelA, dir)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	const app = "spiky-1" // shape 1: classifies into a non-default group
	for m := 0; m < 70; m++ {
		v := shapedValue(1, m)
		if postObserve(t, ctlSrv.URL, app, v) != 200 || postObserve(t, srv.URL, app, v) != 200 {
			t.Fatal("observe failed")
		}
	}
	same := func(when, url string) {
		t.Helper()
		// The control is asked for a target first, which always
		// classified; the subject for a forecast with quantiles, before
		// anything has classified its restored (or swapped) app.
		want, wantQ := fetchDecision(t, ctlSrv.URL, app), fetchQuantileBands(t, ctlSrv.URL, app)
		gotQ, got := fetchQuantileBands(t, url, app), fetchDecision(t, url, app)
		if got.forecast.Forecaster != want.forecast.Forecaster || got.target.Forecaster != want.target.Forecaster {
			t.Fatalf("%s: forecaster %q/%q, control %q", when, got.forecast.Forecaster, got.target.Forecaster, want.forecast.Forecaster)
		}
		if want.forecast.Forecaster == ctl.Model().DefaultForecaster().Name() {
			t.Fatalf("%s: control serves the default forecaster; the test would not notice a skipped classification", when)
		}
		for q := range wantQ {
			for i := range wantQ[q].Values {
				if math.Float64bits(gotQ[q].Values[i]) != math.Float64bits(wantQ[q].Values[i]) {
					t.Fatalf("%s: p%g[%d] %v != control %v", when, wantQ[q].Level*100, i, gotQ[q].Values[i], wantQ[q].Values[i])
				}
			}
		}
		for i := range want.forecast.Values {
			if math.Float64bits(got.forecast.Values[i]) != math.Float64bits(want.forecast.Values[i]) {
				t.Fatalf("%s: forecast[%d] %v != control %v", when, i, got.forecast.Values[i], want.forecast.Values[i])
			}
		}
	}

	// Evict (another app takes the only hot slot), then forecast first.
	postObserve(t, srv.URL, "other", 1)
	same("after evict", srv.URL)
	// Cold: paged out as well.
	postObserve(t, srv.URL, "other", 1)
	if err := st.PageOut(app); err != nil {
		t.Fatal(err)
	}
	same("after page-out", srv.URL)
	// Swapped: the fresh policy of a hot app must classify on a forecast.
	ctl.SwapModel(modelB)
	svc.SwapModel(modelB)
	same("after swap", srv.URL)
	// Restarted: a new process over the same directory has no memo.
	st.Close()
	svc2, _, _ := tieredFleet(t, modelB, dir)
	srv2 := httptest.NewServer(svc2.Handler())
	defer srv2.Close()
	same("after restart", srv2.URL)
}

// TestClassificationsCounted pins what a restore costs: K evict->restore
// cycles of one app inside one block perform exactly one feature
// extraction between them — the rest resume the demoted record's memo —
// warm, cold and on a memory store alike; a newly completed block and a model
// swap each cost exactly one more.
func TestClassificationsCounted(t *testing.T) {
	const app, other, K = "counted-1", "other", 5
	for _, tc := range []struct {
		name         string
		store, paged bool
	}{{"warm", true, false}, {"cold", true, true}, {"memory", false, false}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := ""
			if tc.store {
				dir = t.TempDir()
			}
			svc, sm, st := tieredFleet(t, muxModelA(t), dir)
			srv := httptest.NewServer(svc.Handler())
			defer srv.Close()
			// cycle evicts app (other takes the hot slot) and restores it
			// with a read, optionally from a cold page.
			cycle := func() {
				t.Helper()
				postObserve(t, srv.URL, other, 0)
				if materialized(svc, app) {
					t.Fatal("app was not evicted")
				}
				if tc.paged {
					if err := st.PageOut(app); err != nil {
						t.Fatal(err)
					}
				}
				fetchDecision(t, srv.URL, app)
			}
			expect := func(when string, wantExtract, wantResumed int) {
				t.Helper()
				if e, r := classifications(sm); e != wantExtract || r != wantResumed {
					t.Fatalf("%s: extract=%d resumed=%d, want %d and %d", when, e, r, wantExtract, wantResumed)
				}
			}

			// 40 observations: one completed block of 30.
			if tc.store {
				var obs []store.Observation
				for m := 0; m < 40; m++ {
					obs = append(obs, store.Observation{App: app, Concurrency: shapedValue(1, m)})
				}
				if err := st.AppendBatch(obs); err != nil {
					t.Fatal(err)
				}
				expect("seeded behind the service's back", 0, 0)
				for k := 0; k < K; k++ {
					cycle()
				}
				expect("K cycles from a record without a memo", 1, K-1)
			} else {
				for m := 0; m < 40; m++ {
					postObserve(t, srv.URL, app, shapedValue(1, m))
				}
				expect("first block completed while hot", 1, 0)
				for k := 0; k < K-1; k++ {
					cycle()
				}
				expect("K-1 cycles", 1, K-1)
			}
			if tc.paged {
				if cold := sm.Restores.Value("cold"); int(cold) != K {
					t.Fatalf("cold restores = %v, want %d", cold, K)
				}
			}

			// Crossing the next block boundary (60) costs one extraction,
			// whether the app is hot or cycling at the time.
			for m := 40; m < 65; m++ {
				postObserve(t, srv.URL, app, shapedValue(1, m))
				if m%5 == 0 {
					cycle()
				}
			}
			e, r := classifications(sm)
			if e != 2 {
				t.Fatalf("after the second block: extract=%d, want 2 (resumed=%d)", e, r)
			}
			// A swap costs one extraction per classified app, then resumes again.
			svc.SwapModel(muxModelB(t))
			cycle()
			cycle()
			expect("after a model swap", 3, r+1)
		})
	}
}

// TestMemoInvalidation plants a memo that matches on every key but names
// the wrong group — so a hit answers with the wrong forecaster, which the
// first case shows — and then requires each event that must invalidate a
// memo to make the restore classify for itself.
func TestMemoInvalidation(t *testing.T) {
	modelA := muxModelA(t)
	const app, n = "planted-1", 40
	window := shapedWindow(1, 0, n)
	// unmemoized is what a service that has never seen a memo answers.
	unmemoized := func(t *testing.T, win []float64) string {
		t.Helper()
		ref := NewService(modelA)
		refSrv := httptest.NewServer(ref.Handler())
		defer refSrv.Close()
		seedWindow(t, ref.st, app, win)
		return fetchDecision(t, refSrv.URL, app).target.Forecaster
	}
	// modelA assigns expsmooth to group 0 and ma1 to group 1: plant
	// whichever the window's own classification is not.
	right, wrong, planted := unmemoized(t, window), "ma1", uint8(1)
	if right == wrong {
		wrong, planted = "expsmooth", 0
	}

	cases := []struct {
		name  string
		event func(t *testing.T, svc *Service, st *store.Store) *Service
		want  string
	}{
		{"control: nothing happens, the planted memo hits",
			func(t *testing.T, svc *Service, st *store.Store) *Service { return svc }, wrong},
		{"model swap",
			func(t *testing.T, svc *Service, st *store.Store) *Service { svc.SwapModel(modelA); return svc }, right},
		{"dropCached",
			func(t *testing.T, svc *Service, st *store.Store) *Service { svc.dropCached(app); return svc }, right},
		{"an append changes the window length",
			func(t *testing.T, svc *Service, st *store.Store) *Service {
				if err := st.Append(app, 0); err != nil {
					t.Fatal(err)
				}
				return svc
			}, right},
		{"a batch append changes the window length",
			func(t *testing.T, svc *Service, st *store.Store) *Service {
				if err := st.AppendBatch([]store.Observation{{App: app}, {App: "other"}, {App: app}}); err != nil {
					t.Fatal(err)
				}
				return svc
			}, right},
		{"a second Service over the same open Store",
			func(t *testing.T, svc *Service, st *store.Store) *Service {
				return NewServiceWith(modelA, ServiceOptions{Store: st, MaxHotApps: 1})
			}, right},
	}
	for _, tc := range cases {
		for _, backend := range []string{"dir", "memory"} {
			t.Run(tc.name+"/"+backend, func(t *testing.T) {
				dir := ""
				if backend == "dir" {
					dir = t.TempDir()
				}
				svc, _, st := tieredFleet(t, modelA, dir)
				seedWindow(t, st, app, window)
				st.SetMemo(app, store.Memo{Len: n, Gen: memoGen(svc.version), Group: planted})
				svc = tc.event(t, svc, st)
				srv := httptest.NewServer(svc.Handler())
				defer srv.Close()
				if got := fetchDecision(t, srv.URL, app).target.Forecaster; got != tc.want {
					t.Fatalf("forecaster %q, want %q", got, tc.want)
				}
			})
		}
	}

	// The stamp is 16 bits wide: versions beyond it must stop memoizing
	// rather than wrap onto a live stamp.
	if memoGen(1) != 1 || memoGen(1<<16-1) != 1<<16-1 || memoGen(1<<16) != 0 || memoGen(1<<16+1) != 0 || memoGen(1<<40) != 0 {
		t.Fatal("memoGen does not saturate to 0")
	}
}
