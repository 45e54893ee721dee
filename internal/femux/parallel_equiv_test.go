package femux

import (
	"reflect"
	"testing"
)

// TestTrainWorkerEquivalence is the regression test that keeps the parallel
// trainer honest: a seeded Train must produce a bit-identical model for
// Workers=1 (the inline serial path) and Workers=4 (the concurrent path).
// Everything downstream of the two parallel sweeps — scaler, K-means,
// group assignment — is deterministic given identical sweep output, so
// exact float equality is the correct assertion, not a tolerance.
func TestTrainWorkerEquivalence(t *testing.T) {
	apps := mixedFleet(29, 9, 288)

	serialCfg := testConfig()
	serialCfg.Workers = 1
	serial, serialTB, err := train(apps, serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	parCfg := testConfig()
	parCfg.Workers = 4
	par, parTB, err := train(apps, parCfg)
	if err != nil {
		t.Fatal(err)
	}

	if serial.Diag.Blocks != par.Diag.Blocks {
		t.Errorf("blocks: %d vs %d", serial.Diag.Blocks, par.Diag.Blocks)
	}
	if serial.Diag.Clusters != par.Diag.Clusters {
		t.Errorf("clusters: %d vs %d", serial.Diag.Clusters, par.Diag.Clusters)
	}
	if !reflect.DeepEqual(serial.Diag.ForecasterWins, par.Diag.ForecasterWins) {
		t.Errorf("forecaster wins differ:\n serial %v\n par    %v",
			serial.Diag.ForecasterWins, par.Diag.ForecasterWins)
	}
	if !reflect.DeepEqual(serial.Diag.GroupForecaster, par.Diag.GroupForecaster) {
		t.Errorf("group forecasters differ:\n serial %v\n par    %v",
			serial.Diag.GroupForecaster, par.Diag.GroupForecaster)
	}
	if !reflect.DeepEqual(serialTB.groupOf, parTB.groupOf) {
		t.Error("per-block cluster assignments differ")
	}
	if len(serialTB.rum) != len(parTB.rum) {
		t.Fatalf("block RUM rows: %d vs %d", len(serialTB.rum), len(parTB.rum))
	}
	for i := range serialTB.rum {
		for fi := range serialTB.rum[i] {
			if serialTB.rum[i][fi] != parTB.rum[i][fi] {
				t.Fatalf("block %d forecaster %d RUM: %v vs %v (must be bit-identical)",
					i, fi, serialTB.rum[i][fi], parTB.rum[i][fi])
			}
		}
	}
	if serial.defaultFC != par.defaultFC {
		t.Errorf("default forecaster: %q vs %q", serial.defaultFC, par.defaultFC)
	}
	if !reflect.DeepEqual(serial.perGroup, par.perGroup) {
		t.Errorf("per-group assignment: %v vs %v", serial.perGroup, par.perGroup)
	}
	if !reflect.DeepEqual(serial.scaler, par.scaler) {
		t.Error("scalers differ")
	}
	if !reflect.DeepEqual(serial.kmeans.Centroids, par.kmeans.Centroids) {
		t.Error("centroids differ")
	}

	// Evaluation must agree sample for sample, whichever model evaluates
	// under whichever worker count.
	test := mixedFleet(31, 6, 288)
	se := Evaluate(serial, test)
	pe := Evaluate(par, test)
	if se.RUM != pe.RUM {
		t.Errorf("eval RUM: %v vs %v", se.RUM, pe.RUM)
	}
	if !reflect.DeepEqual(se.Samples, pe.Samples) {
		t.Error("eval samples differ")
	}
	if se.AppsSwitched != pe.AppsSwitched || se.AppsManySwitched != pe.AppsManySwitched {
		t.Errorf("switching diagnostics differ: %d/%d vs %d/%d",
			se.AppsSwitched, se.AppsManySwitched, pe.AppsSwitched, pe.AppsManySwitched)
	}
}

// TestTrainWorkersDefaultMatchesExplicit pins the knob semantics: Workers=0
// (one per CPU) must also reproduce the serial result.
func TestTrainWorkersDefaultMatchesExplicit(t *testing.T) {
	apps := mixedFleet(37, 6, 216)
	cfg0 := testConfig() // Workers: 0
	a, aTB, err := train(apps, cfg0)
	if err != nil {
		t.Fatal(err)
	}
	cfg1 := testConfig()
	cfg1.Workers = 1
	b, bTB, err := train(apps, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(aTB.rum, bTB.rum) {
		t.Error("Workers=0 and Workers=1 disagree on block RUM")
	}
	if !reflect.DeepEqual(a.perGroup, b.perGroup) || a.defaultFC != b.defaultFC {
		t.Error("Workers=0 and Workers=1 disagree on assignment")
	}
}

// TestEvaluateQuantileWorkerEquivalence extends the worker-equivalence
// pin to the quantile sweep path: EvaluateQuantile must produce
// bit-identical samples for Workers=1 and Workers=3, and its level=0
// form must reproduce Evaluate exactly (cache keys included — level
// only enters the key when positive).
func TestEvaluateQuantileWorkerEquivalence(t *testing.T) {
	apps := mixedFleet(29, 9, 288)
	cfg := testConfig()
	cfg.Workers = 2
	m, err := Train(apps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	test := mixedFleet(31, 6, 288)

	for _, level := range []float64{0, 0.5, 0.95} {
		m.cfg.Workers = 1
		serial := EvaluateQuantile(m, test, level)
		m.cfg.Workers = 3
		par := EvaluateQuantile(m, test, level)
		if serial.RUM != par.RUM {
			t.Errorf("level %g: RUM %v vs %v", level, serial.RUM, par.RUM)
		}
		if !reflect.DeepEqual(serial.Samples, par.Samples) {
			t.Errorf("level %g: samples differ across worker counts", level)
		}
	}

	point := Evaluate(m, test)
	zero := EvaluateQuantile(m, test, 0)
	if !reflect.DeepEqual(point.Samples, zero.Samples) || point.RUM != zero.RUM {
		t.Error("EvaluateQuantile(level=0) diverged from Evaluate")
	}
	p95 := EvaluateQuantile(m, test, 0.95)
	if reflect.DeepEqual(point.Samples, p95.Samples) {
		t.Error("EvaluateQuantile(0.95) identical to point evaluation: level not applied")
	}
}
