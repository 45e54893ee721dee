package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
	"github.com/ubc-cirrus-lab/femux-go/internal/trace"
)

// TestSimulateEventsDigest pins the event simulator bit for bit: a
// SHA-256 over every sample field and every platform delay of a seeded
// IBM-shape fleet, replayed at 10-second ticks under a keep-alive policy
// and under a forecasting one. Any change to which pod serves a request,
// when a pod is spawned or reaped, or how its time is charged changes it.
func TestSimulateEventsDigest(t *testing.T) {
	ds := trace.GenerateIBM(trace.IBMGenConfig{Seed: 11, Apps: 10, Days: 0.1, Workers: 1})
	horizon := ds.Horizon
	policies := []Policy{
		KeepAlivePolicy{IdleIntervals: 6},
		ForecastPolicy{Forecaster: forecast.NewFFT(10), Horizon: 6, Window: 60, FloorWindow: 6},
	}
	h := sha256.New()
	put := func(v float64) { h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))) }
	invocations := 0
	for _, p := range policies {
		for _, app := range ds.Apps {
			cfg := EventConfig{
				ScaleInterval:   10 * time.Second,
				UnitConcurrency: app.Config.Concurrency,
				MemoryGB:        app.Config.MemoryGB,
				ColdStart:       app.Config.ColdStart,
				MinScale:        app.Config.MinScale,
				CaptureDelays:   true,
			}
			res := SimulateEvents(app.Invocations, p, cfg, horizon)
			s := res.Sample
			for _, v := range []float64{float64(s.ColdStarts), s.ColdStartSec, s.WastedGBSec, s.AllocatedGBSec, s.ExecSec, float64(s.Invocations)} {
				put(v)
			}
			for _, d := range res.PlatformDelays {
				put(d)
			}
			invocations += s.Invocations
		}
	}
	if invocations == 0 {
		t.Fatal("the fleet has no invocations")
	}
	const want = "77b39492a85c4f17ad2945796d529d8c263dc255cc320d496d4ca6fb60fc19d5"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("digest %s, want %s (%d invocations)", got, want, invocations)
	}
}
