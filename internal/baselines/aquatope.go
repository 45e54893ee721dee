package baselines

import (
	"math"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
	"github.com/ubc-cirrus-lab/femux-go/internal/nn"
)

// Aquatope trains an LSTM *per application* over 48-minute input windows
// (Zhou et al., ASPLOS'22) and forecasts the next interval's load. The
// paper's comparison (§5.1.1) trains on the first 7 days of each test trace
// and evaluates on the remaining 5; it finds Aquatope's models adapt too
// slowly to bursty serverless traffic despite their cost — training is 4x
// and inference 28x slower than FeMux's.

// AquatopeConfig parameterizes per-app model training.
type AquatopeConfig struct {
	Window int   // input window length (paper: 48 minutes)
	Hidden int   // LSTM hidden units
	Epochs int   // training epochs
	Seed   int64 // deterministic initialization
}

// DefaultAquatopeConfig returns the artifact's defaults scaled to this
// repository's test sizes.
func DefaultAquatopeConfig() AquatopeConfig {
	return AquatopeConfig{Window: 48, Hidden: 12, Epochs: 15, Seed: 1}
}

// AquatopeForecaster is a trained per-app model implementing
// forecast.Forecaster.
type AquatopeForecaster struct {
	model  *nn.LSTM
	window int
	scale  float64 // normalization: max of training data
	// residStd is the training residual scale (RMSE of the final
	// training epoch, de-normalized), the uncertainty estimate behind
	// ForecastQuantilesInto. Zero when training data was empty or the
	// loss was non-finite.
	residStd float64
	// Timing capture for the training/inference overhead comparison.
	TrainTime time.Duration
}

// TrainAquatope fits one app's model on its training series (per-interval
// average concurrency) and returns the forecaster.
func TrainAquatope(history []float64, cfg AquatopeConfig) *AquatopeForecaster {
	if cfg.Window < 2 {
		cfg.Window = 48
	}
	if cfg.Hidden < 1 {
		cfg.Hidden = 12
	}
	if cfg.Epochs < 1 {
		cfg.Epochs = 15
	}
	scale := 1.0
	for _, v := range history {
		if v > scale {
			scale = v
		}
	}
	f := &AquatopeForecaster{
		model:  nn.NewLSTM(1, cfg.Hidden, cfg.Seed),
		window: cfg.Window,
		scale:  scale,
	}
	var seqs [][][]float64
	var targets []float64
	for i := 0; i+cfg.Window < len(history); i++ {
		seq := make([][]float64, cfg.Window)
		for j := 0; j < cfg.Window; j++ {
			seq[j] = []float64{history[i+j] / scale}
		}
		seqs = append(seqs, seq)
		targets = append(targets, history[i+cfg.Window]/scale)
	}
	start := time.Now()
	if len(seqs) > 0 {
		tc := nn.DefaultTrainConfig()
		tc.Epochs = cfg.Epochs
		// Fit errors only on empty data, which we guarded above. The
		// returned final-epoch MSE is in normalized units; its root,
		// de-normalized, is the model's one-step residual scale.
		mse, _ := f.model.Fit(seqs, targets, tc)
		if mse == mse && !math.IsInf(mse, 0) && mse > 0 {
			f.residStd = math.Sqrt(mse) * scale
		}
	}
	f.TrainTime = time.Since(start)
	return f
}

// Name implements forecast.Forecaster.
func (f *AquatopeForecaster) Name() string { return "aquatope-lstm" }

// ForecastInto implements forecast.Forecaster: it feeds the last window
// of history through the LSTM, iterating its own predictions for
// multi-step horizons. The LSTM forward pass allocates internally, so
// only dst is reused.
func (f *AquatopeForecaster) ForecastInto(history []float64, horizon int, dst []float64, _ *forecast.Workspace) []float64 {
	if horizon <= 0 {
		return nil
	}
	if cap(dst) < horizon {
		dst = make([]float64, horizon)
	}
	out := dst[:horizon]
	buf := append([]float64(nil), history...)
	for t := range out {
		w := f.window
		if w > len(buf) {
			w = len(buf)
		}
		if w == 0 {
			out[t] = 0
			continue
		}
		seq := make([][]float64, w)
		for j := 0; j < w; j++ {
			seq[j] = []float64{buf[len(buf)-w+j] / f.scale}
		}
		v := f.model.Predict(seq) * f.scale
		if v < 0 || v != v {
			v = 0
		}
		out[t] = v
		buf = append(buf, v)
	}
	return out
}

// ForecastQuantilesInto implements forecast.Forecaster: a
// Gaussian band around the iterated point forecast, scaled by the
// training residual (final-epoch RMSE) and widened by sqrt(t+1) as the
// model feeds its own predictions back in.
func (f *AquatopeForecaster) ForecastQuantilesInto(history []float64, horizon int, levels, dst []float64, ws *forecast.Workspace) []float64 {
	if horizon <= 0 || len(levels) == 0 {
		return nil
	}
	pt := f.ForecastInto(history, horizon, nil, ws)
	sig := make([]float64, horizon)
	for t := range sig {
		sig[t] = f.residStd * math.Sqrt(float64(t+1))
	}
	return forecast.GaussianQuantilesInto(pt, sig, levels, dst, ws)
}
