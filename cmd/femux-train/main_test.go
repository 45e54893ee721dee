package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/ubc-cirrus-lab/femux-go/internal/femux"
	"github.com/ubc-cirrus-lab/femux-go/internal/trace"
)

// ciArgs is the model the CI smokes serve: small enough to train in
// about a quarter of a second.
var ciArgs = []string{"-fleet", "8", "-days", "0.5", "-block", "60"}

// ciModel is the file femux-train ciArgs writes, trained once.
var ciModel = sync.OnceValues(func() ([]byte, error) {
	dir, err := os.MkdirTemp("", "femux-train")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "model.json")
	if err := run(append(ciArgs, "-o", path)); err != nil {
		return nil, err
	}
	return os.ReadFile(path)
})

func mustCIModel(t *testing.T) (*femux.Model, []byte) {
	t.Helper()
	b, err := ciModel()
	if err != nil {
		t.Fatal(err)
	}
	m, err := femux.Load(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return m, b
}

// TestTrainedModelBytesPinned pins the file femux-train writes at CI
// scale to the SHA-256 of the one femuxd wrote with the same training
// flags and -save, before training left femuxd: moving the trainer
// changed no byte of the model.
func TestTrainedModelBytesPinned(t *testing.T) {
	const want = "ac3e8d06691ae4e8b5f3cc06ff2af50f87296de6192950e12889f9e358a5b724"
	_, b := mustCIModel(t)
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("femux-train %s wrote a file with SHA-256 %s, want %s", strings.Join(ciArgs, " "), got, want)
	}
}

// TestModelSaveLoadRoundTrip is the regression test for the CLI
// save/load path (writeModel previously ignored the Close error, so a
// full disk could silently truncate the model file): a loaded model
// writes the bytes it was loaded from, and the model they load back
// decides as it does.
func TestModelSaveLoadRoundTrip(t *testing.T) {
	m, written := mustCIModel(t)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := writeModel(path, m); err != nil {
		t.Fatalf("writeModel: %v", err)
	}
	again, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, written) {
		t.Error("the loaded model writes different bytes")
	}
	got, err := femux.Load(bytes.NewReader(again))
	if err != nil {
		t.Fatalf("femux.Load: %v", err)
	}
	if got.DefaultForecaster().Name() != m.DefaultForecaster().Name() {
		t.Errorf("default forecaster %q != %q",
			got.DefaultForecaster().Name(), m.DefaultForecaster().Name())
	}
	if got.Diag.Clusters != m.Diag.Clusters {
		t.Errorf("clusters %d != %d", got.Diag.Clusters, m.Diag.Clusters)
	}
	// Decisions must survive the round trip byte-for-byte.
	hist := []float64{0, 1, 2, 3, 2, 1, 0, 1, 2, 3}
	p1, p2 := m.NewAppPolicy(0), got.NewAppPolicy(0)
	for i := 1; i <= len(hist); i++ {
		if a, b := p1.Target(hist[:i], 1, nil), p2.Target(hist[:i], 1, nil); a != b {
			t.Fatalf("target diverged at step %d: %d != %d", i, a, b)
		}
	}
}

// TestWriteModelErrors: a model that cannot be written is an error.
// (femuxd's TestBootModel refuses a missing or truncated -model.)
func TestWriteModelErrors(t *testing.T) {
	m, _ := mustCIModel(t)
	if err := writeModel(filepath.Join(t.TempDir(), "no", "such", "dir", "m.json"), m); err == nil {
		t.Error("writeModel into a missing directory should fail")
	}
}

// TestTrainFromCSV trains on a tracegen CSV pair, the branch femuxd's
// -apps/-invocations took: the model it writes loads back.
func TestTrainFromCSV(t *testing.T) {
	ds := trace.GenerateIBM(trace.IBMGenConfig{Seed: 3, Apps: 8, Days: 0.5})
	dir := t.TempDir()
	appsPath, invPath := filepath.Join(dir, "apps.csv"), filepath.Join(dir, "inv.csv")
	for path, write := range map[string]func(io.Writer, *trace.Dataset) error{
		appsPath: trace.WriteApps, invPath: trace.WriteInvocations,
	} {
		var b bytes.Buffer
		if err := write(&b, ds); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out := filepath.Join(dir, "model.json")
	if err := run([]string{"-apps", appsPath, "-invocations", invPath, "-block", "60", "-o", out}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := femux.Load(bytes.NewReader(b)); err != nil || m.Diag.Clusters == 0 {
		t.Errorf("the model trained on the CSV pair does not load back: %v", err)
	}
}

// TestRunRefuses pins what femux-train refuses before it trains: a
// missing -o, half a CSV pair, and flags it does not have (femuxd's
// -save is -o here, and it serves nothing).
func TestRunRefuses(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{nil, "-o is required"},
		{[]string{"-fleet", "8"}, "-o is required"},
		{[]string{"-apps", "a.csv", "-o", "m.json"}, "-invocations"},
		{[]string{"-invocations", "i.csv", "-o", "m.json"}, "-apps"},
		{[]string{"-save", "m.json"}, "flag provided but not defined: -save"},
		{[]string{"-addr", ":8080", "-o", "m.json"}, "flag provided but not defined: -addr"},
	} {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			if err := run(c.args); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want one containing %q", err, c.want)
			}
		})
	}
}
