package lifecycle

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzDriftDetector feeds raw float bit patterns — NaNs, infinities,
// negatives, subnormals — straight into the detector, bypassing the HTTP
// layer's validation. Whatever arrives, Observe must not panic, the
// score must never be NaN or escape [0, MaxDriftScore], and the
// incremental state must stay bit-identical to the batch computation
// (DetectorOf, which every retrain cycle's drift gate reads).
func FuzzDriftDetector(f *testing.F) {
	f.Add([]byte{1}, uint8(30))
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN())), uint8(1))
	f.Add(binary.LittleEndian.AppendUint64(
		binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Inf(1))),
		math.Float64bits(-1)), uint8(2))
	seed := make([]byte, 8*8)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(seed[i*8:], math.Float64bits(float64(i)*1e300))
	}
	f.Add(seed, uint8(3))

	f.Fuzz(func(t *testing.T, raw []byte, blockByte uint8) {
		blockSize := int(blockByte%64) - 1 // [-1, 62]: exercises the disabled geometries too
		d := DetectorOf(nil, blockSize)
		window := make([]float64, 0, len(raw)/8)
		for len(raw) >= 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw))
			raw = raw[8:]
			window = append(window, v)
			d.Observe(v)
			s := d.Score()
			if math.IsNaN(s) || s < 0 || s > MaxDriftScore {
				t.Fatalf("score %v out of [0, %v] after %d observations", s, MaxDriftScore, len(window))
			}
		}
		batch := DetectorOf(window, blockSize)
		if !detectorsEqual(d, batch) {
			t.Fatalf("incremental and batch detectors diverge on %d observations:\nincremental: %+v\nbatch: %+v",
				len(window), d, batch)
		}
		if is, bs := d.Score(), batch.Score(); math.Float64bits(is) != math.Float64bits(bs) {
			t.Fatalf("score bits diverge: % x vs % x", is, bs)
		}
	})
}
