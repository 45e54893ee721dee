package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/femux"
	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
	"github.com/ubc-cirrus-lab/femux-go/internal/knative"
	"github.com/ubc-cirrus-lab/femux-go/internal/rum"
)

// shortBlockModel trains FeMux over blocks of 30 minutes and a 30-minute
// window, so a replay of a few hours completes several blocks. Its
// groups map to moving-average and keep-alive forecasters, and every
// app of digestReplay switches between the two.
func shortBlockModel(t testing.TB) *femux.Model {
	t.Helper()
	cfg := femux.DefaultConfig(rum.Default())
	cfg.BlockSize, cfg.Window, cfg.K = 30, 30, 3
	cfg.Forecasters = []forecast.Forecaster{
		forecast.NewFFT(10),
		forecast.NewExpSmoothing(),
		forecast.NewMovingAverage(1),
		forecast.NewCeilPeak(10),
	}
	m, err := femux.Train(AzureFleet(Scale{Seed: 7, Apps: 16, Days: 0.5}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// digestReplay is a four-app, four-hour replay whose apps change regime
// every block: periodic bursts, a steady stream, then a sparse trickle.
func digestReplay() []femux.TrainApp {
	rng := rand.New(rand.NewSource(21))
	apps := make([]femux.TrainApp, 4)
	for i := range apps {
		inv := make([]float64, 240)
		for m := range inv {
			switch (m/30 + i) % 3 {
			case 0:
				if m%(6+i) < 2 {
					inv[m] = float64(200 + rng.Intn(200))
				}
			case 1:
				inv[m] = float64(60 + rng.Intn(40))
			case 2:
				if rng.Intn(10) == 0 {
					inv[m] = 1
				}
			}
		}
		apps[i] = femux.TrainApp{Name: "app-" + string(rune('a'+i)), Invocations: inv, ExecSec: 0.5 + float64(i)/4, MemoryGB: 0.25}
	}
	return apps
}

// hashSamples adds every field of each sample to h as its bits.
func hashSamples(h hash.Hash, samples []rum.Sample) {
	for _, s := range samples {
		for _, v := range []float64{float64(s.ColdStarts), s.ColdStartSec, s.WastedGBSec, s.AllocatedGBSec, s.ExecSec, float64(s.Invocations)} {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
	}
}

// TestFig14PrototypeDigest pins Fig 14-Mid bit for bit: a SHA-256 over
// every app's RUM sample under default Knative and under FeMux, and the
// two aggregate RUM values, at the point forecast and at p90
// provisioning. Any change to what the FeMux path decides, by one pod at
// one minute of one app, changes a digest, and so does any change to the
// concurrency the emulator integrates for the KPA and for FeMux
// (TestEmulateMinuteConcurrencyMatchesOracle in internal/sim).
func TestFig14PrototypeDigest(t *testing.T) {
	model := shortBlockModel(t)
	specs := SpecsFromTrainApps(digestReplay())
	for i := range specs {
		// One request per pod: a target is the ceiling of the forecast
		// itself, so one that lands an ULP past an integer, as a
		// keep-warm forecaster's ceiling does, provisions another pod.
		specs[i].Config.Concurrency = 1
	}
	for _, c := range []struct {
		level float64
		want  string
	}{
		{0, "07b61612865d248ef98794985f5f08ba53087ff6f47691345aa01ec193ddd219"},
		{0.9, "4425729d3d8b01485b60fddf98bdbd88c7cc3154e1391e78e83ac14f922e3215"},
	} {
		res := Fig14PrototypeQuantile(model, specs, 4*time.Hour, c.level)
		if len(res.femuxSamples) != len(specs) || len(res.knativeSamples) != len(specs) {
			t.Fatalf("level %g: %d and %d samples for %d apps", c.level, len(res.knativeSamples), len(res.femuxSamples), len(specs))
		}
		if res.ProviderFailures != 0 {
			t.Fatalf("level %g: the service gave no target at %d app-minutes", c.level, res.ProviderFailures)
		}
		h := sha256.New()
		hashSamples(h, res.knativeSamples)
		hashSamples(h, res.femuxSamples)
		for _, v := range []float64{res.KnativeRUM, res.FeMuxRUM} {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("level %g: digest %s, want %s (%v)", c.level, got, c.want, res)
		}
	}
}

// TestCountingProviderCountsDeclines pins what Fig14Result.
// ProviderFailures counts: every call the service answers with no
// target, and no other.
func TestCountingProviderCountsDeclines(t *testing.T) {
	calls := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls%3 == 0 {
			http.Error(w, "unavailable", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, `{"target":2}`)
	}))
	defer srv.Close()
	p := &countingProvider{ScaleProvider: &knative.HTTPProvider{BaseURL: srv.URL}}
	declined := 0
	for i := 0; i < 10; i++ {
		if target, ok := p.Target("web", 1, 1); !ok {
			declined++
		} else if target != 2 {
			t.Fatalf("call %d: target %d, want 2", i, target)
		}
	}
	if declined != 3 || p.failures != declined {
		t.Fatalf("%d calls declined, %d counted; want 3 and 3", declined, p.failures)
	}
}

// TestFig14AppsReplayIndependently pins that an app's Fig 14 result does
// not depend on the apps replayed beside it, as Knative's autoscaler
// scales each revision on its own: two copies of one steady app, 0.5
// requests a second of 50 ms each, get bit-identical samples in both
// arms. A fleet-wide event loop that served one app per instant made the
// second copy's queued requests wait for its next event, a 2 s tick.
func TestFig14AppsReplayIndependently(t *testing.T) {
	model := shortBlockModel(t)
	steady := make([]float64, 60)
	for m := range steady {
		steady[m] = 30
	}
	apps := []femux.TrainApp{
		{Name: "steady-a", Invocations: steady, ExecSec: 0.05, MemoryGB: 0.25},
		{Name: "steady-b", Invocations: steady, ExecSec: 0.05, MemoryGB: 0.25},
	}
	res := Fig14Prototype(model, SpecsFromTrainApps(apps), time.Hour)
	for _, c := range []struct {
		arm     string
		samples []rum.Sample
	}{{"knative", res.knativeSamples}, {"femux", res.femuxSamples}} {
		arm, samples := c.arm, c.samples
		if len(samples) != 2 {
			t.Fatalf("%s: %d samples for 2 apps", arm, len(samples))
		}
		a, b := sha256.New(), sha256.New()
		hashSamples(a, samples[:1])
		hashSamples(b, samples[1:])
		if !bytes.Equal(a.Sum(nil), b.Sum(nil)) {
			t.Errorf("%s: copies differ: %+v against %+v", arm, samples[0], samples[1])
		}
	}
}
