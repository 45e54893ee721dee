package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/trace"
)

// minuteRecorder is a ScaleProvider that records every minute average it
// is given and answers none, so the KPA alone scales the app.
type minuteRecorder []float64

func (r *minuteRecorder) Target(_ string, minuteAvg float64, _ int) (int, bool) {
	*r = append(*r, minuteAvg)
	return 0, false
}

// burstyApp returns a seeded app of request bursts until stop: idle gaps
// of U(0,180) s, bursts of 1-30 requests 0-300 ms apart, each running
// 50 ms + Exp(1) s, one request per pod and a 808 ms cold start.
func burstyApp(seed int64, minScale int, stop time.Duration) AppSpec {
	rng := rand.New(rand.NewSource(seed))
	cfg := trace.DefaultConfig()
	cfg.Concurrency = 1
	cfg.MinScale = minScale
	cfg.ColdStart = 808 * time.Millisecond
	var invs []trace.Invocation
	at := time.Duration(0)
	for {
		at += time.Duration(rng.Float64() * float64(180*time.Second))
		if at >= stop {
			break
		}
		for n := 1 + rng.Intn(30); n > 0; n-- {
			d := 50*time.Millisecond + time.Duration(rng.ExpFloat64()*float64(time.Second))
			invs = append(invs, trace.Invocation{Arrival: at, Duration: d})
			at += time.Duration(rng.Float64() * float64(300*time.Millisecond))
		}
	}
	return AppSpec{Name: fmt.Sprintf("bursty-%d", seed), Config: cfg, Invocations: invs}
}

// oracleMinuteAverages integrates the app's concurrency, executing plus
// queued, minute by minute from the requests alone: request i counts
// over [arrival, arrival + delay + duration), delay being what Emulate
// returned for it.
func oracleMinuteAverages(app AppSpec, delays []float64, minutes int) []float64 {
	busy := make([]int64, minutes) // ns of concurrency per minute
	for i, inv := range app.Invocations {
		wait := time.Duration(math.Round(delays[i] * float64(time.Second)))
		from, to := inv.Arrival, inv.Arrival+wait+inv.Duration
		for m := int(from / time.Minute); m < minutes && time.Duration(m)*time.Minute < to; m++ {
			lo := max(from, time.Duration(m)*time.Minute)
			hi := min(to, time.Duration(m+1)*time.Minute)
			busy[m] += int64(hi - lo)
		}
	}
	avgs := make([]float64, minutes)
	for m, ns := range busy {
		avgs[m] = float64(ns) / float64(time.Minute)
	}
	return avgs
}

// TestEmulateMinuteConcurrencyMatchesOracle checks the concurrency the
// emulator reports once a minute against an integral taken from the
// requests themselves. Bursts on one-request pods keep requests queued at
// the activator around every cold start, where the emulator must count
// each of them until the moment it starts. With MinScale 60 no request
// waits, and the run is a control.
func TestEmulateMinuteConcurrencyMatchesOracle(t *testing.T) {
	const horizon = 180 * time.Minute
	check := func(t *testing.T, app AppSpec) int {
		var rec minuteRecorder
		s, delays := Emulate(app, &rec, horizon)
		if len(delays) != len(app.Invocations) || s.Invocations != len(app.Invocations) {
			t.Fatalf("served %d of %d requests, %d delays", s.Invocations, len(app.Invocations), len(delays))
		}
		if len(rec) != int(horizon/time.Minute)-1 {
			t.Fatalf("%d minute reports, want %d", len(rec), int(horizon/time.Minute)-1)
		}
		want := oracleMinuteAverages(app, delays, len(rec))
		off := 0
		for m, got := range rec {
			if math.Abs(got-want[m]) > 1e-9*math.Abs(want[m]) {
				if off == 0 {
					t.Errorf("minute %d: reported %v, oracle %v", m+1, got, want[m])
				}
				off++
			}
		}
		if off > 0 {
			t.Errorf("%d of %d minutes off the oracle (%d cold starts)", off, len(rec), s.ColdStarts)
		}
		return s.ColdStarts
	}
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if check(t, burstyApp(seed, 0, horizon-5*time.Minute)) == 0 {
				t.Error("no cold starts: the trace does not exercise the activator queue")
			}
		})
	}
	t.Run("minscale=60", func(t *testing.T) {
		if n := check(t, burstyApp(1, 60, horizon-5*time.Minute)); n != 0 {
			t.Errorf("%d cold starts with 60 pods kept warm", n)
		}
	})
}
