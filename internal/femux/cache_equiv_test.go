package femux

import (
	"reflect"
	"testing"

	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
	"github.com/ubc-cirrus-lab/femux-go/internal/memo"
	"github.com/ubc-cirrus-lab/femux-go/internal/rum"
)

// trained is a model with the per-block tables its training produced.
type trained struct {
	*Model
	tb blockTables
}

func mustTrain(t *testing.T, apps []TrainApp, cfg Config) trained {
	t.Helper()
	m, tb, err := train(apps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return trained{m, tb}
}

// assertModelsIdentical is the bit-identity check shared by the cache
// equivalence tests: every training output — diagnostics, per-block RUM,
// cluster assignments, scaler, centroids, forecaster table — must be
// exactly equal, not approximately (same discipline as the worker
// equivalence tests).
func assertModelsIdentical(t *testing.T, want, got trained, label string) {
	t.Helper()
	if want.Diag.Blocks != got.Diag.Blocks || want.Diag.Clusters != got.Diag.Clusters {
		t.Errorf("%s: blocks/clusters %d/%d vs %d/%d", label,
			want.Diag.Blocks, want.Diag.Clusters, got.Diag.Blocks, got.Diag.Clusters)
	}
	if !reflect.DeepEqual(want.Diag.ForecasterWins, got.Diag.ForecasterWins) {
		t.Errorf("%s: forecaster wins differ:\n want %v\n got  %v", label,
			want.Diag.ForecasterWins, got.Diag.ForecasterWins)
	}
	if !reflect.DeepEqual(want.tb.groupOf, got.tb.groupOf) {
		t.Errorf("%s: per-block cluster assignments differ", label)
	}
	if len(want.tb.rum) != len(got.tb.rum) {
		t.Fatalf("%s: block RUM rows %d vs %d", label, len(want.tb.rum), len(got.tb.rum))
	}
	for i := range want.tb.rum {
		for fi := range want.tb.rum[i] {
			if want.tb.rum[i][fi] != got.tb.rum[i][fi] {
				t.Fatalf("%s: block %d forecaster %d RUM %v vs %v (must be bit-identical)",
					label, i, fi, want.tb.rum[i][fi], got.tb.rum[i][fi])
			}
		}
	}
	if want.defaultFC != got.defaultFC || !reflect.DeepEqual(want.perGroup, got.perGroup) {
		t.Errorf("%s: assignment differs: %q %v vs %q %v", label,
			want.defaultFC, want.perGroup, got.defaultFC, got.perGroup)
	}
	if !reflect.DeepEqual(want.scaler, got.scaler) {
		t.Errorf("%s: scalers differ", label)
	}
	if !reflect.DeepEqual(want.kmeans.Centroids, got.kmeans.Centroids) {
		t.Errorf("%s: centroids differ", label)
	}
}

func assertEvalsIdentical(t *testing.T, want, got EvalResult, label string) {
	t.Helper()
	if want.RUM != got.RUM {
		t.Errorf("%s: RUM %v vs %v (must be bit-identical)", label, want.RUM, got.RUM)
	}
	if !reflect.DeepEqual(want.Samples, got.Samples) {
		t.Errorf("%s: per-app samples differ", label)
	}
	if want.AppsSwitched != got.AppsSwitched || want.AppsManySwitched != got.AppsManySwitched {
		t.Errorf("%s: switching diagnostics %d/%d vs %d/%d", label,
			want.AppsSwitched, want.AppsManySwitched, got.AppsSwitched, got.AppsManySwitched)
	}
}

// TestTrainCacheEquivalence is the cache's correctness anchor: training and
// evaluating with a cold cache, and again with that cache warm, must both
// be bit-identical to the uncached run — identical diagnostics, block RUM,
// cluster assignments, and evaluation samples.
func TestTrainCacheEquivalence(t *testing.T) {
	apps := mixedFleet(29, 9, 288)
	test := mixedFleet(31, 6, 288)

	plain := mustTrain(t, apps, testConfig())
	plainEval := Evaluate(plain.Model, test)

	cache := memo.New()
	cachedCfg := testConfig()
	cachedCfg.Cache = cache
	cold := mustTrain(t, apps, cachedCfg)
	assertModelsIdentical(t, plain, cold, "cold cache")
	coldEval := Evaluate(cold.Model, test)
	assertEvalsIdentical(t, plainEval, coldEval, "cold cache eval")

	st := cache.Stats()
	if st.Misses == 0 {
		t.Fatal("cold run recorded no cache misses — cache not consulted")
	}

	warm := mustTrain(t, apps, cachedCfg)
	assertModelsIdentical(t, plain, warm, "warm cache")
	warmEval := Evaluate(warm.Model, test)
	assertEvalsIdentical(t, plainEval, warmEval, "warm cache eval")

	st2 := cache.Stats()
	if st2.Misses != st.Misses {
		t.Errorf("warm rerun recomputed %d entries (misses %d -> %d); identical inputs must hit",
			st2.Misses-st.Misses, st.Misses, st2.Misses)
	}
	if st2.Hits <= st.Hits {
		t.Error("warm rerun recorded no cache hits")
	}
}

// TestCacheSharesAcrossMetricsAndFeatures pins the key design decision that
// makes the cache pay off across a sweep: the RUM metric and the Features
// subset are applied downstream of the cached stages, so trainings that
// differ only in metric or feature selection must share every simulation
// and extraction — zero new misses — while still matching their own
// uncached runs exactly.
func TestCacheSharesAcrossMetricsAndFeatures(t *testing.T) {
	apps := mixedFleet(41, 8, 288)
	cache := memo.New()

	base := testConfig()
	base.Cache = cache
	if _, err := Train(apps, base); err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()

	variant := testConfig()
	variant.Cache = cache
	variant.Metric = rum.ColdStartHeavy()
	variant.Features = []string{"harmonics", "density"}
	cached := mustTrain(t, apps, variant)
	st := cache.Stats()
	if st.Misses != after.Misses {
		t.Errorf("metric/feature variant caused %d new misses; sweeps must be shared",
			st.Misses-after.Misses)
	}

	plainVariant := testConfig()
	plainVariant.Metric = rum.ColdStartHeavy()
	plainVariant.Features = []string{"harmonics", "density"}
	plain := mustTrain(t, apps, plainVariant)
	assertModelsIdentical(t, plain, cached, "shared-sweep variant")
}

// TestEvaluateSingleCacheEquivalence covers the fixed-forecaster path used
// by the baseline comparisons.
func TestEvaluateSingleCacheEquivalence(t *testing.T) {
	apps := mixedFleet(53, 7, 288)
	fc := forecast.NewFFT(10)

	plain := EvaluateSingle(fc, apps, testConfig())

	cfg := testConfig()
	cfg.Cache = memo.New()
	cold := EvaluateSingle(fc, apps, cfg)
	assertEvalsIdentical(t, plain, cold, "single cold")
	warm := EvaluateSingle(fc, apps, cfg)
	assertEvalsIdentical(t, plain, warm, "single warm")

	st := cfg.Cache.Stats()
	if st.Hits < uint64(len(apps)) {
		t.Errorf("warm EvaluateSingle hit %d of %d apps", st.Hits, len(apps))
	}
}

// TestTrainCacheDiskRoundTrip simulates the cross-process warm start: a
// second disk-backed cache on the same directory (a "new process") must
// reproduce the first training bit-for-bit from disk hits alone, proving
// every cached type survives the gob round-trip unchanged.
func TestTrainCacheDiskRoundTrip(t *testing.T) {
	apps := mixedFleet(61, 6, 216)
	dir := t.TempDir()

	c1, err := memo.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg1 := testConfig()
	cfg1.Cache = c1
	first := mustTrain(t, apps, cfg1)
	firstEval := Evaluate(first.Model, apps)

	c2, err := memo.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := testConfig()
	cfg2.Cache = c2
	second := mustTrain(t, apps, cfg2)
	assertModelsIdentical(t, first, second, "disk round-trip")
	secondEval := Evaluate(second.Model, apps)
	assertEvalsIdentical(t, firstEval, secondEval, "disk round-trip eval")

	st := c2.Stats()
	if st.DiskHits == 0 {
		t.Error("second process recorded no disk hits")
	}
	if st.Misses != 0 {
		t.Errorf("second process recomputed %d entries despite warm disk cache", st.Misses)
	}
}
