package knative

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/femux"
	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
	"github.com/ubc-cirrus-lab/femux-go/internal/rum"
	"github.com/ubc-cirrus-lab/femux-go/internal/serving"
	"github.com/ubc-cirrus-lab/femux-go/internal/store"
	"github.com/ubc-cirrus-lab/femux-go/internal/timeseries"
)

// trainDefaultGeometryModel trains a small model at femuxd's default block
// (144) and window (120), so that hot tails are the size they are in
// production.
func trainDefaultGeometryModel(tb testing.TB) *femux.Model {
	tb.Helper()
	cfg := femux.DefaultConfig(rum.Default())
	cfg.K = 3
	cfg.Forecasters = []forecast.Forecaster{
		forecast.NewFFT(10),
		forecast.NewExpSmoothing(),
		forecast.NewMovingAverage(1),
	}
	rng := rand.New(rand.NewSource(8))
	apps := make([]femux.TrainApp, 6)
	for i := range apps {
		vals := make([]float64, 4*cfg.BlockSize)
		for t := range vals {
			if (t+i)%10 < 2+i%3 {
				vals[t] = 2 + rng.Float64()
			}
		}
		apps[i] = femux.TrainApp{Demand: timeseries.New(time.Minute, vals), ExecSec: 0.1, MemoryGB: 0.2}
	}
	m, err := femux.Train(apps, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// liveHeap is HeapAlloc after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// BenchmarkBytesPerApp reports the live heap each app of a 1,000-app
// fleet adds to a metrics-instrumented service, per tier, at 300 and
// 1,440 values of history (seeded app-major, then one observe each):
//
//	hot   every app keeps its serving state (MaxHotApps unlimited)
//	warm  16 hot slots: the rest hold only their store window
//	cold  16 hot slots and 16 inline windows on a disk store: the rest
//	      hold a page stub
//
// Values are quarters below a per-app scale of 1-16, quantised as the
// bench's hot fleets are. The metric is B/app; the timings measure
// nothing.
func BenchmarkBytesPerApp(b *testing.B) {
	model := trainDefaultGeometryModel(b)
	for _, tier := range []string{"hot", "warm", "cold"} {
		for _, n := range []int{300, 1440} {
			b.Run(fmt.Sprintf("%s/%d", tier, n), func(b *testing.B) {
				var perApp float64
				for range b.N {
					perApp = bytesPerApp(b, model, tier, n)
				}
				b.ReportMetric(perApp, "B/app")
			})
		}
	}
}

func bytesPerApp(b *testing.B, model *femux.Model, tier string, n int) float64 {
	const apps = 1000
	so := ServiceOptions{}
	if tier != "hot" {
		so.MaxHotApps = 16
	}
	st := store.OpenMemory()
	if tier == "cold" {
		var err error
		st, err = store.Open(b.TempDir(), store.Options{Sync: store.SyncNever, CompactEvery: -1, InlineBudget: 16})
		if err != nil {
			b.Fatal(err)
		}
	}
	defer st.Close()
	so.Store = st
	svc := NewServiceWith(model, so)
	svc.InstrumentWith(serving.NewRegistry())
	names := make([]string, apps)
	for a := range names {
		names[a] = fmt.Sprintf("app-%04d", a)
	}
	rng := rand.New(rand.NewSource(int64(n)))
	obs := make([]store.Observation, n)
	base := liveHeap()
	for _, app := range names {
		scale := 1 + rng.Intn(16)
		for i := range obs {
			obs[i] = store.Observation{App: app, Concurrency: float64(rng.Intn(4*scale)) / 4}
		}
		if err := st.AppendBatch(obs); err != nil {
			b.Fatal(err)
		}
	}
	for _, app := range names {
		observeOne(b, svc, app, 1)
	}
	perApp := (float64(liveHeap()) - float64(base)) / apps
	runtime.KeepAlive(svc)
	return perApp
}
