package femux

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/ubc-cirrus-lab/femux-go/internal/cluster"
	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
	"github.com/ubc-cirrus-lab/femux-go/internal/rum"
	"github.com/ubc-cirrus-lab/femux-go/internal/sim"
)

// Trained models are serializable so the forecasting service can load a
// model trained elsewhere (the paper retrains monthly offline and ships the
// classifier into the forecasting pods). Only the K-means classifier is
// persisted — it is the production configuration; the supervised baselines
// exist for the §4.3.4 comparison.

// modelJSON is the on-disk representation.
type modelJSON struct {
	Version     int            `json:"version"`
	BlockSize   int            `json:"blockSize"`
	Window      int            `json:"window"`
	Horizon     int            `json:"horizon"`
	Features    []string       `json:"features"`
	Metric      metricJSON     `json:"metric"`
	Forecasters []string       `json:"forecasters"`
	ScalerMean  []float64      `json:"scalerMean"`
	ScalerScale []float64      `json:"scalerScale"`
	Centroids   [][]float64    `json:"centroids"`
	PerGroup    []string       `json:"perGroup"`
	DefaultFC   string         `json:"defaultForecaster"`
	Sim         sim.ConcConfig `json:"sim"`
}

type metricJSON struct {
	Kind string  `json:"kind"` // "weighted" or "exec"
	Name string  `json:"name"`
	W1   float64 `json:"w1"`
	W2   float64 `json:"w2"`
}

// Save serializes the model as JSON.
func (m *Model) Save(w io.Writer) error {
	if m.kmeans == nil {
		return fmt.Errorf("femux: only kmeans-classified models are serializable")
	}
	mj := modelJSON{
		Version:     1,
		BlockSize:   m.cfg.BlockSize,
		Window:      m.cfg.Window,
		Horizon:     m.cfg.Horizon,
		Features:    m.cfg.Features,
		ScalerMean:  m.scaler.Mean,
		ScalerScale: m.scaler.Scale,
		Centroids:   m.kmeans.Centroids,
		PerGroup:    m.perGroup,
		DefaultFC:   m.defaultFC,
		Sim:         m.cfg.Sim,
	}
	for _, fc := range m.cfg.Forecasters {
		mj.Forecasters = append(mj.Forecasters, fc.Name())
	}
	switch metric := m.cfg.Metric.(type) {
	case rum.Weighted:
		mj.Metric = metricJSON{Kind: "weighted", Name: metric.MetricName, W1: metric.W1, W2: metric.W2}
	case rum.ExecAware:
		mj.Metric = metricJSON{Kind: "exec", W1: metric.W1, W2: metric.W2}
	default:
		return fmt.Errorf("femux: metric %T is not serializable", m.cfg.Metric)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(mj)
}

// Load reconstructs a model saved with Save. Forecasters are resolved by
// name from the default registry plus any extra forecasters supplied.
func Load(r io.Reader, extra ...forecast.Forecaster) (*Model, error) {
	var mj modelJSON
	if err := json.NewDecoder(r).Decode(&mj); err != nil {
		return nil, fmt.Errorf("femux: decoding model: %w", err)
	}
	if mj.Version != 1 {
		return nil, fmt.Errorf("femux: unsupported model version %d", mj.Version)
	}
	// Train's own bounds: a block of at least 8 intervals and a window
	// that holds the horizon. Outside them a policy divides by zero or
	// targets nothing.
	if mj.BlockSize < 8 || mj.Horizon < 1 || mj.Window < mj.Horizon {
		return nil, fmt.Errorf("femux: model geometry blockSize %d, window %d, horizon %d; want blockSize >= 8 and 1 <= horizon <= window",
			mj.BlockSize, mj.Window, mj.Horizon)
	}
	registry := append(forecast.DefaultSet(), extra...)
	var set []forecast.Forecaster
	for _, name := range mj.Forecasters {
		fc, err := forecast.ByName(registry, name)
		if err != nil {
			return nil, fmt.Errorf("femux: model references %q: %w", name, err)
		}
		set = append(set, fc)
	}
	if len(set) == 0 || len(set) > maxForecasters {
		return nil, fmt.Errorf("femux: model has %d forecasters, want 1..%d", len(set), maxForecasters)
	}
	var metric rum.Metric
	switch mj.Metric.Kind {
	case "weighted":
		metric = rum.Weighted{MetricName: mj.Metric.Name, W1: mj.Metric.W1, W2: mj.Metric.W2}
	case "exec":
		metric = rum.ExecAware{W1: mj.Metric.W1, W2: mj.Metric.W2}
	default:
		return nil, fmt.Errorf("femux: unknown metric kind %q", mj.Metric.Kind)
	}
	if len(mj.ScalerMean) != len(mj.ScalerScale) || len(mj.ScalerMean) != len(mj.Features) {
		return nil, fmt.Errorf("femux: scaler dimensions inconsistent with features")
	}
	for _, c := range mj.Centroids {
		if len(c) != len(mj.Features) {
			return nil, fmt.Errorf("femux: centroid dimension mismatch")
		}
	}
	if len(mj.PerGroup) != len(mj.Centroids) {
		return nil, fmt.Errorf("femux: group table size mismatch")
	}
	valid := map[string]bool{}
	for _, fc := range set {
		valid[fc.Name()] = true
	}
	for _, name := range append(append([]string{}, mj.PerGroup...), mj.DefaultFC) {
		if !valid[name] {
			return nil, fmt.Errorf("femux: assignment references unknown forecaster %q", name)
		}
	}
	// The file keeps no K: the centroid count is K unless training had
	// fewer blocks than K, so a retrain from a loaded model's Config
	// clusters as one from the trained model's does.
	m := &Model{
		cfg: Config{
			BlockSize:   mj.BlockSize,
			Window:      mj.Window,
			Horizon:     mj.Horizon,
			K:           len(mj.Centroids),
			Features:    mj.Features,
			Metric:      metric,
			Forecasters: set,
			Sim:         mj.Sim,
			Classifier:  "kmeans",
		},
		scaler:    &cluster.Scaler{Mean: mj.ScalerMean, Scale: mj.ScalerScale},
		kmeans:    &cluster.KMeans{Centroids: mj.Centroids},
		perGroup:  mj.PerGroup,
		defaultFC: mj.DefaultFC,
	}
	m.Diag.Clusters = len(mj.PerGroup)
	m.Diag.GroupForecaster = append([]string(nil), mj.PerGroup...)
	return m.index(), nil
}
