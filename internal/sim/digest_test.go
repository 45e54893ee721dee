package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"github.com/ubc-cirrus-lab/femux-go/internal/trace"
)

// TestEmulateDigest pins the Knative emulator bit for bit: a SHA-256
// over every sample field and every platform delay of a seeded IBM-shape
// fleet, each app replayed under the KPA alone. Any change to which pod
// serves a request, when a pod is spawned or reaped, how its time is
// charged or what the autoscaler observes changes it.
func TestEmulateDigest(t *testing.T) {
	ds := trace.GenerateIBM(trace.IBMGenConfig{Seed: 11, Apps: 10, Days: 0.1, Workers: 1})
	h := sha256.New()
	put := func(v float64) { h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))) }
	invocations := 0
	for _, app := range ds.Apps {
		s, delays := Emulate(AppSpec{Name: app.Name, Config: app.Config, Invocations: app.Invocations}, nil, ds.Horizon)
		for _, v := range []float64{float64(s.ColdStarts), s.ColdStartSec, s.WastedGBSec, s.AllocatedGBSec, s.ExecSec, float64(s.Invocations)} {
			put(v)
		}
		for _, d := range delays {
			put(d)
		}
		invocations += s.Invocations
	}
	if invocations == 0 {
		t.Fatal("the fleet has no invocations")
	}
	const want = "4df58a28a01769a761f3281d4a67066db431dba9ecbedc33b4f29fbfcfb5ef3c"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("digest %s, want %s (%d invocations)", got, want, invocations)
	}
}
