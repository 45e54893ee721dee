package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"github.com/ubc-cirrus-lab/femux-go/internal/features"
	"github.com/ubc-cirrus-lab/femux-go/internal/femux"
	"github.com/ubc-cirrus-lab/femux-go/internal/parallel"
	"github.com/ubc-cirrus-lab/femux-go/internal/rum"
)

// Fig17Result compares FeMux against each individual forecaster in its set
// (Appendix C / Fig 17) and reports switching behaviour.
type Fig17Result struct {
	FeMux      VariantOutcome
	Individual map[string]VariantOutcome
	// Switching diagnostics: the paper reports >65% of apps switching
	// forecasters and 20% using four or more.
	SwitchedFrac float64
	ManyUsedFrac float64
}

// Fig17 runs FeMux and every individual forecaster over the same test set.
func Fig17(train, test []femux.TrainApp) (Fig17Result, error) {
	var res Fig17Result
	cfg := expConfig(rum.Default())
	model, err := femux.Train(train, cfg)
	if err != nil {
		return res, err
	}
	fmRes := femux.Evaluate(model, test)
	res.FeMux = outcomeOf(fmRes.Samples, cfg.Metric)
	if len(test) > 0 {
		res.SwitchedFrac = float64(fmRes.AppsSwitched) / float64(len(test))
		res.ManyUsedFrac = float64(fmRes.AppsManySwitched) / float64(len(test))
	}
	res.Individual = map[string]VariantOutcome{}
	for _, fc := range cfg.Forecasters {
		r := femux.EvaluateSingle(fc, test, cfg)
		res.Individual[fc.Name()] = outcomeOf(r.Samples, cfg.Metric)
	}
	return res, nil
}

// BestIndividualRUM returns the lowest individual-forecaster RUM.
func (r Fig17Result) BestIndividualRUM() float64 {
	best := -1.0
	for _, o := range r.Individual {
		if best < 0 || o.RUM < best {
			best = o.RUM
		}
	}
	return best
}

// String renders the comparison.
func (r Fig17Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  femux: cold-start sec %.1f, wasted %.0f GB-s, RUM %.1f (switched %.0f%%, 4+ used %.0f%%)\n",
		r.FeMux.ColdStartSec, r.FeMux.WastedGBs, r.FeMux.RUM, r.SwitchedFrac*100, r.ManyUsedFrac*100)
	for _, name := range sortedKeys(r.Individual) {
		o := r.Individual[name]
		fmt.Fprintf(&b, "  %-12s cold-start sec %.1f, wasted %.0f GB-s, RUM %.1f\n",
			name, o.ColdStartSec, o.WastedGBs, o.RUM)
	}
	return b.String()
}

// Fig18Result is the feature-ablation study: RUM per feature combination.
type Fig18Result struct {
	RUM map[string]float64 // "+"-joined feature names -> test RUM
}

// Fig18 trains FeMux with different feature subsets (Appendix C, Fig 18):
// singles, selected pairs, and the full set.
func Fig18(train, test []femux.TrainApp) (Fig18Result, error) {
	combos := [][]string{
		{features.FeatStationarity},
		{features.FeatLinearity},
		{features.FeatHarmonics},
		{features.FeatDensity},
		{features.FeatStationarity, features.FeatHarmonics},
		{features.FeatDensity, features.FeatHarmonics},
		{features.FeatStationarity, features.FeatLinearity},
		features.AllFeatureNames,
	}
	res := Fig18Result{RUM: map[string]float64{}}
	// Feature combinations are independent train+evaluate sweep points.
	rums, err := parallel.MapErr(parallel.Workers(sweepWorkers), len(combos), func(i int) (float64, error) {
		cfg := expConfig(rum.Default())
		cfg.Features = combos[i]
		model, err := femux.Train(train, cfg)
		if err != nil {
			return 0, err
		}
		return femux.Evaluate(model, test).RUM, nil
	})
	if err != nil {
		return res, err
	}
	for i, combo := range combos {
		res.RUM[strings.Join(combo, "+")] = rums[i]
	}
	return res, nil
}

// String renders the ablation.
func (r Fig18Result) String() string {
	var b strings.Builder
	for _, combo := range sortedKeys(r.RUM) {
		fmt.Fprintf(&b, "  %-50s RUM %.1f\n", combo, r.RUM[combo])
	}
	return b.String()
}

// BlockSizeResult is the Appendix C block-size sweep.
type BlockSizeResult struct {
	RUM map[int]float64 // block size (intervals) -> test RUM
}

// BlockSize sweeps FeMux's block size. The paper finds <3% RUM change from
// 7 to 24 hours, trading adaptation speed for pattern capture.
func BlockSize(train, test []femux.TrainApp, sizes []int) (BlockSizeResult, error) {
	res := BlockSizeResult{RUM: map[int]float64{}}
	rums, err := parallel.MapErr(parallel.Workers(sweepWorkers), len(sizes), func(i int) (float64, error) {
		cfg := expConfig(rum.Default())
		cfg.BlockSize = sizes[i]
		model, err := femux.Train(train, cfg)
		if err != nil {
			return 0, err
		}
		return femux.Evaluate(model, test).RUM, nil
	})
	if err != nil {
		return res, err
	}
	for i, bs := range sizes {
		res.RUM[bs] = rums[i]
	}
	return res, nil
}

// String renders the sweep.
func (r BlockSizeResult) String() string {
	var b strings.Builder
	for _, bs := range sortedKeys(r.RUM) {
		fmt.Fprintf(&b, "  block %4d min: RUM %.1f\n", bs, r.RUM[bs])
	}
	return b.String()
}

// ClassifierComparison trains FeMux with K-means and the two supervised
// classifiers on identical data (§4.3.4; paper: K-means reduces RUM ~15%).
type ClassifierComparison struct {
	KMeansRUM float64
	TreeRUM   float64
	ForestRUM float64
}

// Classifiers runs the classifier comparison.
func Classifiers(train, test []femux.TrainApp) (ClassifierComparison, error) {
	var res ClassifierComparison
	clfs := []string{"kmeans", "tree", "forest"}
	rums, err := parallel.MapErr(parallel.Workers(sweepWorkers), len(clfs), func(i int) (float64, error) {
		cfg := expConfig(rum.Default())
		cfg.Classifier = clfs[i]
		model, err := femux.Train(train, cfg)
		if err != nil {
			return 0, err
		}
		return femux.Evaluate(model, test).RUM, nil
	})
	if err != nil {
		return res, err
	}
	res.KMeansRUM, res.TreeRUM, res.ForestRUM = rums[0], rums[1], rums[2]
	return res, nil
}

// String renders the comparison.
func (r ClassifierComparison) String() string {
	return fmt.Sprintf("kmeans RUM %.1f | tree %.1f | forest %.1f", r.KMeansRUM, r.TreeRUM, r.ForestRUM)
}

// sortedKeys returns m's keys in order, so a rendered table never follows
// map iteration order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
