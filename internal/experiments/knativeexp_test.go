package experiments

import (
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
// one minute of one app, changes a digest.
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
		{0, "920cc3e0738377d43296d5923d7847019694cb12c3b9db4d8545ee72711cc549"},
		{0.9, "33f18263d130bc42b3c42afc142872213ad5c8110655fb0493444908750d47e1"},
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
