package femux

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
)

// TestTrainDigest pins a whole training end to end: a SHA-256 over the
// saved model's bytes and the Float64bits of every per-block RUM and
// group assignment, for the full default forecaster set. The constants
// were recorded before the forecast kernels were last rewritten, so any
// kernel change that moves a single simulated value, at any worker count,
// changes the digest. The quantile case trains at horizon 3 (so SETAR and
// AR roll forward through several regimes) and also folds in a quantile
// evaluation of a held-out fleet, which drives every ForecastQuantilesInto.
func TestTrainDigest(t *testing.T) {
	cases := []struct {
		name    string
		horizon int
		level   float64
		want    string
	}{
		{"point", 1, 0, "2f5de7a883fccaf1ce15ae313c97e49e5d7f2311332c4428cd63805fb2830f5c"},
		{"quantile", 3, 0.95, "793e088f20ba4e181ff6763b8e9f6f263b64ff30d98fb7c100ea9bdb8a8d5781"},
	}
	apps := mixedFleet(71, 8, 288)
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				cfg := testConfig()
				cfg.Forecasters = forecast.DefaultSet()
				cfg.Horizon = c.horizon
				cfg.Workers = workers
				m, tb, err := train(apps, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var saved bytes.Buffer
				if err := m.Save(&saved); err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				h.Write(saved.Bytes())
				var b [8]byte
				put := func(v uint64) {
					binary.LittleEndian.PutUint64(b[:], v)
					h.Write(b[:])
				}
				for _, row := range tb.rum {
					for _, v := range row {
						put(math.Float64bits(v))
					}
				}
				for _, g := range tb.groupOf {
					put(uint64(g))
				}
				if c.level > 0 {
					for _, s := range EvaluateQuantile(m, mixedFleet(73, 4, 288), c.level).Samples {
						put(uint64(s.ColdStarts))
						put(math.Float64bits(s.ColdStartSec))
						put(math.Float64bits(s.WastedGBSec))
						put(math.Float64bits(s.AllocatedGBSec))
						put(math.Float64bits(s.ExecSec))
						put(uint64(s.Invocations))
					}
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
					t.Errorf("digest %s, want %s", got, c.want)
				}
			})
		}
	}
}
