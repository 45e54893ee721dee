package forecast

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// lookbackSet is every forecaster the Lookback contract is checked on:
// the default set plus the baselines.
func lookbackSet() []Forecaster {
	return append(DefaultSet(), NewMovingAverage(5), NewMovingAverage(60), Naive{}, Zero{})
}

// checkLookback fails unless every forecaster of lookbackSet answers the
// same point and quantile forecasts, bit for bit, on the window-long end
// of h and on its last Lookback(fc, window) values.
func checkLookback(t *testing.T, h []float64, window, horizon int, levels []float64) {
	t.Helper()
	win := h[len(h)-min(window, len(h)):]
	ws := NewWorkspace()
	for _, fc := range lookbackSet() {
		short := win[len(win)-min(Lookback(fc, window), len(win)):]
		var point, quant [2][]float64
		for j, view := range [2][]float64{win, short} {
			point[j] = fc.ForecastInto(view, horizon, nil, ws)
			quant[j] = fc.ForecastQuantilesInto(view, horizon, levels, nil, ws)
		}
		for j := range point[0] {
			if math.Float64bits(point[0][j]) != math.Float64bits(point[1][j]) {
				t.Fatalf("%s, window %d, %d values: point[%d] %v on the window, %v on its last %d",
					fc.Name(), window, len(h), j, point[0][j], point[1][j], len(short))
			}
		}
		for j := range quant[0] {
			if math.Float64bits(quant[0][j]) != math.Float64bits(quant[1][j]) {
				t.Fatalf("%s, window %d, %d values: quantile[%d] %v on the window, %v on its last %d",
					fc.Name(), window, len(h), j, quant[0][j], quant[1][j], len(short))
			}
		}
	}
}

// TestLookbackIsExact pins the contract a hot app's tail is sized by: a
// forecaster's point and quantile forecasts over the window are those
// over its last Lookback values, for histories shorter and longer than
// both, sparse and dense.
func TestLookbackIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	levels := []float64{0.1, 0.5, 0.9, 0.99}
	for _, window := range []int{1, 2, 9, 10, 11, 30, 120} {
		for trial := 0; trial < 40; trial++ {
			h := make([]float64, 1+rng.Intn(window+40))
			for i := range h {
				switch rng.Intn(4) {
				case 0: // idle interval
				case 1:
					h[i] = float64(rng.Intn(4))
				default:
					h[i] = rng.ExpFloat64() * 3
				}
			}
			checkLookback(t, h, window, 1+rng.Intn(6), levels)
		}
	}
}

// FuzzLookback is TestLookbackIsExact over arbitrary float bits (NaN,
// ±Inf, negatives, subnormals), windows, horizons and levels.
func FuzzLookback(f *testing.F) {
	seed := make([]byte, 0, 96)
	for _, v := range []float64{0, 3, 0.5, math.NaN(), 7, -1, 2, math.Inf(1), 0, 1, 4, 9} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed, uint8(10), uint8(3), uint8(200))
	f.Add(seed[:24], uint8(1), uint8(1), uint8(128))
	f.Add([]byte{}, uint8(30), uint8(2), uint8(25))
	f.Fuzz(func(t *testing.T, raw []byte, window, horizon, level uint8) {
		h := make([]float64, 0, len(raw)/8+1)
		for ; len(raw) >= 8; raw = raw[8:] {
			h = append(h, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
		}
		if len(h) == 0 {
			h = append(h, 0)
		}
		lv := (float64(level) + 0.5) / 256
		checkLookback(t, h, 1+int(window)%128, 1+int(horizon)%8, []float64{lv, 0.5, 1 - lv/2})
	})
}
