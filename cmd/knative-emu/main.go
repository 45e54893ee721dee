// Command knative-emu reproduces the Knative prototype evaluation (Fig 14):
// it trains FeMux on a synthetic Azure-shape fleet, replays a sampled
// subtrace against the emulated Knative Serving control loop under the
// default autoscaler and under FeMux override, and load-tests the FeMux
// forecasting service over real HTTP for the scalability study.
//
// Usage:
//
//	knative-emu -apps 48 -replay 12 -hours 4
//	knative-emu -scalability-only -svc-apps 50,200,800
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/experiments"
	"github.com/ubc-cirrus-lab/femux-go/internal/femux"
	"github.com/ubc-cirrus-lab/femux-go/internal/rum"
)

// checkQuantileLevel refuses a -quantile-level outside [0, 1): 0 is the
// point forecast, and any other level must be a probability the normal
// quantile is defined at. NaN is refused too.
func checkQuantileLevel(level float64) error {
	if !(level >= 0 && level < 1) {
		return fmt.Errorf("-quantile-level must be in [0, 1), got %g", level)
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("knative-emu: ")
	var (
		apps      = flag.Int("apps", 48, "fleet size for training")
		replay    = flag.Int("replay", 12, "apps replayed through the emulation")
		hours     = flag.Float64("hours", 3, "replay horizon in hours")
		seed      = flag.Int64("seed", 1, "generation seed")
		workers   = flag.Int("workers", 0, "worker goroutines for training and sweeps (0 = one per CPU)")
		scaleOnly = flag.Bool("scalability-only", false, "skip the prototype replay")
		svcApps   = flag.String("svc-apps", "10,50,200", "comma-separated app counts for the HTTP scalability study")
		batchSize = flag.Int("batch", 0, "also run the scalability study through /v1/observe/batch with this batch size")
		qlevel    = flag.Float64("quantile-level", 0, "provision for this forecast quantile of demand (e.g. 0.95) instead of the point forecast; 0 = off")
	)
	flag.Parse()
	if err := checkQuantileLevel(*qlevel); err != nil {
		log.Fatal(err)
	}

	experiments.SetWorkers(*workers)
	scale := experiments.Scale{Seed: *seed, Apps: *apps, Days: 2}
	all := experiments.AzureFleet(scale)
	train, test := experiments.SplitTrainTest(all, *seed+100)

	cfg := femux.DefaultConfig(rum.Default())
	cfg.BlockSize = 144
	cfg.Window = 120
	cfg.K = 6
	cfg.Workers = *workers
	model, err := femux.Train(train, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained FeMux on %d apps in %v (%d blocks, %d clusters)\n\n",
		len(train), model.Diag.TrainTime, model.Diag.Blocks, model.Diag.Clusters)

	if !*scaleOnly {
		fmt.Println("== Fig 14-Left: subtrace representativity ==")
		left := experiments.Fig14Left(all, 2)
		fmt.Printf("KS distance between sample and full distribution: %.3f\n\n", left.KSDistance)

		sel := test
		if len(sel) > *replay {
			sel = sel[:*replay]
		}
		minutes := int(*hours * 60)
		for i := range sel {
			if sel[i].Demand.Len() > minutes {
				sel[i].Demand = sel[i].Demand.Slice(0, minutes)
				sel[i].Invocations = sel[i].Invocations[:minutes]
			}
		}
		specs := experiments.SpecsFromTrainApps(sel)
		if *qlevel > 0 {
			fmt.Printf("== Fig 14-Mid: FeMux (p%g provisioning) vs default Knative on the emulated cluster ==\n", *qlevel*100)
		} else {
			fmt.Println("== Fig 14-Mid: FeMux vs default Knative on the emulated cluster ==")
		}
		res := experiments.Fig14PrototypeQuantile(model, specs, time.Duration(*hours*float64(time.Hour)), *qlevel)
		fmt.Println(res)
		fmt.Println()
		if res.ProviderFailures > 0 {
			log.Fatalf("the FeMux service gave no target at %d app-minutes, which scaled reactively", res.ProviderFailures)
		}
	}

	fmt.Println("== Fig 14-Right: forecasting-service scalability (real HTTP) ==")
	var counts []int
	for _, s := range strings.Split(*svcApps, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			log.Fatalf("bad -svc-apps entry %q", s)
		}
		counts = append(counts, n)
	}
	for _, pt := range experiments.Fig14Scalability(model, counts, 5) {
		fmt.Printf("  %5d apps: mean %8v  p99 %8v  -> ~%d apps/pod at 1 forecast/app-min (paper: 1200)\n",
			pt.Apps, pt.MeanLatency.Round(time.Microsecond), pt.P99Latency.Round(time.Microsecond), pt.AppsPerPod)
	}
	if *batchSize > 0 {
		fmt.Printf("\n== Batched observes (/v1/observe/batch, batch=%d) ==\n", *batchSize)
		for _, pt := range experiments.Fig14ScalabilityBatch(model, counts, 5, *batchSize) {
			fmt.Printf("  %5d apps: batch mean %8v  p99 %8v  per-obs %8v  -> ~%d apps/pod\n",
				pt.Apps, pt.MeanLatency.Round(time.Microsecond), pt.P99Latency.Round(time.Microsecond),
				pt.PerObs.Round(time.Microsecond), pt.AppsPerPod)
		}
	}
}
