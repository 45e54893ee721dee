// Command femux-train trains a FeMux model offline and writes it to the
// file femuxd serves (-model): the paper trains its clustering offline
// (§4), and the forecasting service (Fig 13) only serves the result. It
// trains on a tracegen CSV pair (-apps/-invocations) or, without one, on
// a synthetic Azure-shape fleet (-fleet/-days/-seed). For the same
// inputs the file is byte-identical whatever -workers is.
//
//	femux-train -fleet 8 -days 0.5 -block 60 -o model.json
//	femux-train -apps ibm_apps.csv -invocations ibm_invocations.csv -o model.json
//	femuxd -model model.json -data-dir /var/lib/femux
package main

import (
	"bytes"
	"errors"
	"flag"
	"log"
	"os"

	"github.com/ubc-cirrus-lab/femux-go/internal/experiments"
	"github.com/ubc-cirrus-lab/femux-go/internal/femux"
	"github.com/ubc-cirrus-lab/femux-go/internal/rum"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("femux-train: ")
	if err := run(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run trains the model args name and writes it to -o. A missing -o or
// half a CSV pair is refused before anything trains.
func run(args []string) error {
	fs := flag.NewFlagSet("femux-train", flag.ContinueOnError)
	appsCSV := fs.String("apps", "", "apps CSV from tracegen (with -invocations; default: a synthetic fleet)")
	invCSV := fs.String("invocations", "", "invocations CSV from tracegen (with -apps)")
	fleet := fs.Int("fleet", 48, "synthetic training fleet size when no CSV is given")
	days := fs.Float64("days", 2, "synthetic training trace length in days")
	seed := fs.Int64("seed", 1, "seed for synthetic training")
	block := fs.Int("block", 144, "block size in minutes")
	workers := fs.Int("workers", 0, "training worker goroutines (0 = one per CPU)")
	out := fs.String("o", "", "write the trained model to this path (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return errors.New("-o is required: the path to write the model to")
	}
	if (*appsCSV == "") != (*invCSV == "") {
		return errors.New("-apps and -invocations name a tracegen CSV pair: give both or neither")
	}
	var apps []femux.TrainApp
	if *appsCSV != "" {
		var err error
		if apps, err = experiments.ReadTrainApps(*appsCSV, *invCSV, 0); err != nil {
			return err
		}
		log.Printf("loaded %d apps from %s", len(apps), *appsCSV)
	} else {
		apps = experiments.AzureFleet(experiments.Scale{Seed: *seed, Apps: *fleet, Days: *days})
		log.Printf("training on synthetic fleet of %d apps", len(apps))
	}
	cfg := femux.DefaultConfig(rum.Default())
	cfg.BlockSize, cfg.Window, cfg.Workers = *block, 120, *workers
	m, err := femux.Train(apps, cfg)
	if err != nil {
		return err
	}
	log.Printf("model ready: %d clusters, default forecaster %s", m.Diag.Clusters, m.DefaultForecaster().Name())
	if err := writeModel(*out, m); err != nil {
		return err
	}
	log.Printf("saved model to %s", *out)
	return nil
}

// writeModel saves the model. os.WriteFile reports a failed Close: on a
// full disk the final flush is what fails, and ignoring it would ship a
// truncated model.
func writeModel(path string, m *femux.Model) error {
	var b bytes.Buffer
	if err := m.Save(&b); err != nil {
		return err
	}
	return os.WriteFile(path, b.Bytes(), 0o666)
}
