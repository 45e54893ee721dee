package features

import (
	"fmt"
	"math/cmplx"
	"slices"

	"github.com/ubc-cirrus-lab/femux-go/internal/mathx"
)

// Names of the standard features, used for ablation selection (Fig 18).
const (
	FeatStationarity = "stationarity"
	FeatLinearity    = "linearity"
	FeatHarmonics    = "harmonics"
	FeatDensity      = "density"
	FeatExecTime     = "exectime" // only present for exec-aware RUM training
)

// AllFeatureNames lists the default extraction order.
var AllFeatureNames = []string{FeatStationarity, FeatLinearity, FeatHarmonics, FeatDensity}

// Vector is one block's extracted feature values, keyed by feature name.
type Vector map[string]float64

// Select projects the vector onto the named features, in order. Missing
// features are zero — the classifier's scaler neutralizes them.
func (v Vector) Select(names []string) []float64 {
	out := make([]float64, len(names))
	for i, n := range names {
		out[i] = v[n]
	}
	return out
}

// The extractor's settings, the paper's: AR(10) prewhitening for the
// linearity test, BDS embedding dimension 2, and the top 10 harmonics for
// periodicity. Callers that memoize extraction results hash them.
const (
	ARLags    = 10
	BDSDim    = 2
	Harmonics = 10
)

// Extractor computes block feature vectors in scratch it owns: buffers
// sized to the longest block it has seen and the FFT plan of its block
// length, ~43 KB at a 144-value block. Like a forecast.Workspace, an
// Extractor is not safe for concurrent use: give each goroutine its own.
// The zero value is ready to use.
type Extractor struct{ sc scratch }

// NewExtractor returns an empty Extractor.
func NewExtractor() *Extractor { return &Extractor{} }

// Extract computes the feature vector of one block of average-concurrency
// values. execSec, when positive, adds the execution-time feature used by
// FeMux-Exec (§5.1.3).
//
// Feature encodings (all continuous so the scaler and K-means can use
// distances rather than hard test verdicts):
//
//   - stationarity: the ADF t-statistic, clamped to [-10, 10]; more
//     negative is more stationary.
//   - linearity: |BDS statistic| of AR residuals, clamped to [0, 20];
//     larger is more nonlinear.
//   - harmonics: fraction of non-DC spectral energy captured by the top-k
//     harmonics, in [0, 1]; near 1 indicates a (quasi-)periodic block.
//   - density: total traffic volume in the block (sum of average
//     concurrency), a popularity proxy (§4.2.2).
func (e *Extractor) Extract(block []float64, execSec float64) Vector {
	v := Vector{}
	sc := &e.sc

	// One moments pass serves every kernel: ADF and the linearity test
	// need the constancy check, density is the running sum.
	mom := computeMoments(block)

	adf := sc.adfTest(block, -1, mom.constant)
	v[FeatStationarity] = mathx.Clamp(adf.Stat, -10, 10)

	bds := sc.linearityTest(block, ARLags, BDSDim, mom.constant)
	abs := bds.Stat
	if abs < 0 {
		abs = -abs
	}
	v[FeatLinearity] = mathx.Clamp(abs, 0, 20)

	v[FeatHarmonics] = sc.harmonicConcentration(block, Harmonics, mom.constant)

	v[FeatDensity] = mom.sum

	if execSec > 0 {
		v[FeatExecTime] = execSec
	}
	return v
}

// HarmonicConcentration returns the share of non-DC spectral energy in the
// top-k harmonics. A finite number of prominent harmonics — high
// concentration — indicates a periodic or quasi-periodic block (§4.3.2).
func HarmonicConcentration(block []float64, k int) float64 {
	return new(scratch).harmonicConcentration(block, k, isConstant(block))
}

// harmonicConcentration is HarmonicConcentration with the block's
// constancy precomputed. Energies are summed in descending amplitude
// order (the order a top-k selection over every harmonic lists them), so
// the sums do not depend on where in the spectrum the energy sits.
func (sc *scratch) harmonicConcentration(block []float64, k int, constant bool) float64 {
	n := len(block)
	if n < 4 || constant {
		return 0
	}
	spec := sc.fft.FFTReal(block)
	amps := resize(&sc.amps, n/2)
	for i := range amps {
		amps[i] = cmplx.Abs(spec[i+1]) * 2 / float64(n)
	}
	slices.Sort(amps)
	slices.Reverse(amps)
	var total, top float64
	for i, a := range amps {
		e := a * a
		total += e
		if i < k {
			top += e
		}
	}
	if total == 0 {
		return 0
	}
	return top / total
}

// BlockFeature couples a block's feature vector with its provenance, the
// unit the trainer and classifier pass around.
type BlockFeature struct {
	App   string
	Block int
	Vec   Vector
}

// String implements fmt.Stringer for diagnostics.
func (b BlockFeature) String() string {
	return fmt.Sprintf("%s/block%d %v", b.App, b.Block, map[string]float64(b.Vec))
}
