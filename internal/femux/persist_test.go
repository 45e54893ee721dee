package femux

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/ubc-cirrus-lab/femux-go/internal/rum"
)

func TestModelSaveLoadRoundTrip(t *testing.T) {
	apps := mixedFleet(31, 9, 216)
	m, err := Train(apps, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Loaded model must classify and evaluate identically.
	test := mixedFleet(33, 6, 216)
	orig := Evaluate(m, test)
	back := Evaluate(loaded, test)
	if orig.RUM != back.RUM {
		t.Errorf("loaded model RUM %v != original %v", back.RUM, orig.RUM)
	}
	if loaded.DefaultForecaster().Name() != m.DefaultForecaster().Name() {
		t.Error("default forecaster changed across round trip")
	}
}

func TestModelSaveExecAwareMetric(t *testing.T) {
	cfg := testConfig()
	cfg.Metric = rum.DefaultExecAware()
	m, err := Train(mixedFleet(35, 6, 144), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Config().Metric.Name() != "rum-exec" {
		t.Errorf("metric = %q", loaded.Config().Metric.Name())
	}
}

func TestModelSaveRejectsSupervised(t *testing.T) {
	cfg := testConfig()
	cfg.Classifier = "tree"
	m, err := Train(mixedFleet(37, 6, 144), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err == nil {
		t.Error("tree-classified models should not serialize")
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"garbage", "{not json"},
		{"bad version", `{"version": 9}`},
		{"unknown forecaster", `{"version":1,"features":["density"],"metric":{"kind":"weighted","w1":1,"w2":1},
			"forecasters":["mystery"],"scalerMean":[0],"scalerScale":[1],"centroids":[[0]],"perGroup":["mystery"],"defaultForecaster":"mystery"}`},
		{"bad metric", `{"version":1,"features":["density"],"metric":{"kind":"quantum"},
			"forecasters":["fft10"],"scalerMean":[0],"scalerScale":[1],"centroids":[[0]],"perGroup":["fft10"],"defaultForecaster":"fft10"}`},
		{"dim mismatch", `{"version":1,"features":["density","harmonics"],"metric":{"kind":"weighted","w1":1,"w2":1},
			"forecasters":["fft10"],"scalerMean":[0],"scalerScale":[1],"centroids":[[0,0]],"perGroup":["fft10"],"defaultForecaster":"fft10"}`},
		{"centroid mismatch", `{"version":1,"features":["density"],"metric":{"kind":"weighted","w1":1,"w2":1},
			"forecasters":["fft10"],"scalerMean":[0],"scalerScale":[1],"centroids":[[0,1]],"perGroup":["fft10"],"defaultForecaster":"fft10"}`},
		{"bad assignment", `{"version":1,"features":["density"],"metric":{"kind":"weighted","w1":1,"w2":1},
			"forecasters":["fft10"],"scalerMean":[0],"scalerScale":[1],"centroids":[[0]],"perGroup":["ar10"],"defaultForecaster":"fft10"}`},
	}
	for _, c := range cases {
		if _, err := Load(strings.NewReader(c.body)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	// A valid minimal model loads.
	ok := `{"version":1,"blockSize":144,"window":120,"horizon":1,
		"features":["density"],"metric":{"kind":"weighted","name":"rum-default","w1":1,"w2":0.01},
		"forecasters":["fft10","warm10"],"scalerMean":[0],"scalerScale":[1],
		"centroids":[[0],[1]],"perGroup":["fft10","warm10"],"defaultForecaster":"warm10"}`
	m, err := Load(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("valid model failed to load: %v", err)
	}
	p := m.NewAppPolicy(0)
	if got := p.Target([]float64{1, 2, 3}, 1, nil); got < 0 {
		t.Errorf("loaded model target = %d", got)
	}
}

// TestLoadRefusesGeometryTrainNeverProduces zeroes one geometry field of
// a saved model at a time. Each would load into a model whose policy
// panics (block size 0: an integer division by zero) or targets nothing
// (window or horizon 0), so Load refuses it, as Train would. The model
// itself loads: its horizon is past the default window, which Train
// widens to hold it.
func TestLoadRefusesGeometryTrainNeverProduces(t *testing.T) {
	cfg := testConfig()
	cfg.Window, cfg.Horizon = 0, 130
	m, err := Train(mixedFleet(37, 6, 144), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"blockSize", "window", "horizon"} {
		t.Run(field, func(t *testing.T) {
			var doc map[string]any
			if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
				t.Fatal(err)
			}
			doc[field] = 0
			body, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Load(bytes.NewReader(body)); err == nil {
				t.Fatalf("Load accepted %s 0", field)
			}
		})
	}
	if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("the saved model itself: %v", err)
	}
}
