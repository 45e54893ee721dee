// Knativedemo: the full Fig 13 integration in one process. It starts the
// FeMux forecasting service on a real HTTP port, replays a bursty workload
// through the emulated Knative Serving control loop twice — once with the
// stock reactive autoscaler, once with FeMux overriding it via REST — and
// prints the cold-start and waste comparison.
//
//	go run ./examples/knativedemo
package main

import (
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/experiments"
	"github.com/ubc-cirrus-lab/femux-go/internal/femux"
	"github.com/ubc-cirrus-lab/femux-go/internal/knative"
	"github.com/ubc-cirrus-lab/femux-go/internal/rum"
	"github.com/ubc-cirrus-lab/femux-go/internal/sim"
	"github.com/ubc-cirrus-lab/femux-go/internal/trace"
)

func main() {
	log.SetFlags(0)

	// Train FeMux offline on a synthetic fleet.
	train := experiments.AzureFleet(experiments.Scale{Seed: 21, Apps: 24, Days: 2})
	cfg := femux.DefaultConfig(rum.Default())
	cfg.BlockSize = 144
	cfg.Window = 60
	model, err := femux.Train(train, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("FeMux trained: %d clusters, default forecaster %s\n",
		model.Diag.Clusters, model.DefaultForecaster().Name())

	// Start the forecasting microservice on a real ephemeral port.
	svc := knative.NewService(model)
	server := httptest.NewServer(svc.Handler())
	defer server.Close()
	fmt.Printf("FeMux service listening at %s\n\n", server.URL)

	// A periodic bursty application: 30 requests every 5 minutes.
	horizon := 90 * time.Minute
	appCfg := trace.DefaultConfig()
	appCfg.Concurrency = 10
	appCfg.MemoryGB = 0.5
	var invs []trace.Invocation
	for burst := time.Duration(0); burst < horizon; burst += 5 * time.Minute {
		for i := 0; i < 30; i++ {
			invs = append(invs, trace.Invocation{
				Arrival:  burst + time.Duration(i)*400*time.Millisecond,
				Duration: 2 * time.Second,
			})
		}
	}
	spec := sim.AppSpec{Name: "burst-api", Config: appCfg, Invocations: invs}

	run := func(name string, provider sim.ScaleProvider) rum.Sample {
		s, _ := sim.Emulate(spec, provider, horizon)
		fmt.Printf("%-18s cold starts %4d  cold-start sec %7.1f  wasted %8.1f GB-s  RUM %7.2f\n",
			name, s.ColdStarts, s.ColdStartSec, s.WastedGBSec, rum.Default().Eval(s))
		return s
	}

	base := run("knative default", nil)
	fm := run("femux via REST", &knative.HTTPProvider{BaseURL: server.URL})

	baseRUM := rum.Default().Eval(base)
	fmRUM := rum.Default().Eval(fm)
	if baseRUM > 0 && fmRUM < baseRUM {
		fmt.Printf("\nFeMux cut RUM by %.0f%% through the real REST integration path.\n",
			(1-fmRUM/baseRUM)*100)
	}
	fmt.Printf("service tracked %d app(s) through the run.\n", svc.Apps())
}
