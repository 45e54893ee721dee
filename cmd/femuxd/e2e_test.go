package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/knative"
	"github.com/ubc-cirrus-lab/femux-go/internal/store"
)

// TestFemuxdSigtermRestartBitIdentical is the process-level
// zero-state-loss test: a real femuxd binary is fed half a replay,
// SIGTERMed, restarted from the same -data-dir, fed the rest, and every
// forecast it then serves must be bit-for-bit what an uninterrupted
// in-process service computes over the same stream. Skipped with -short
// (it compiles the binary); the nightly full tier runs it.
func TestFemuxdSigtermRestartBitIdentical(t *testing.T) {
	testRestartBitIdentical(t, syscall.SIGTERM)
}

// TestFemuxdKill9RestartBitIdentical is the same with kill -9, the
// recovery path: no shutdown hook runs, and the restarted binary must
// still hold every acked observation and serve what an uninterrupted
// service would.
func TestFemuxdKill9RestartBitIdentical(t *testing.T) {
	testRestartBitIdentical(t, syscall.SIGKILL)
}

func testRestartBitIdentical(t *testing.T, sig syscall.Signal) {
	if testing.Short() {
		t.Skip("builds and runs the femuxd binary; skipped in -short")
	}
	bin := buildFemuxd(t)

	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.json")
	dataDir := filepath.Join(dir, "data")
	model := tinyModel(t)
	writeModelFile(t, modelPath, model)

	apps := []string{"pay", "auth", "feed"}
	feed := func(baseURL string, from, to int) {
		t.Helper()
		for m := from; m < to; m++ {
			obs := make([]knative.BatchObservation, len(apps))
			for i, app := range apps {
				obs[i] = knative.BatchObservation{App: app, Concurrency: float64((m*5+i)%7) + 0.5}
			}
			postBatch(t, baseURL, m, obs)
		}
	}

	const half, total = 20, 40

	// Uninterrupted control over the identical model and stream.
	ctl := httptest.NewServer(knative.NewService(model).Handler())
	defer ctl.Close()
	feed(ctl.URL, 0, total)

	// First femuxd process: half the replay, then the signal.
	addr := freeAddr(t)
	proc1 := startFemuxd(t, bin, addr, modelPath, "-data-dir", dataDir, "-fsync", "always")
	feed("http://"+addr, 0, half)
	if err := proc1.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
	if err := proc1.Wait(); sig == syscall.SIGTERM && err != nil {
		t.Fatalf("femuxd did not exit cleanly on SIGTERM: %v", err)
	}

	// Second process, same data dir: must restore and resume.
	proc2 := startFemuxd(t, bin, addr, modelPath, "-data-dir", dataDir, "-fsync", "always")
	defer func() {
		proc2.Process.Signal(syscall.SIGTERM)
		proc2.Wait()
	}()
	feed("http://"+addr, half, total)

	// The restored instance's durable counter covers the whole stream.
	scrape := httpGet(t, "http://"+addr+"/metrics")
	wantObs := fmt.Sprintf("femux_store_observations %d", total*len(apps))
	if !strings.Contains(scrape, wantObs) {
		t.Errorf("metrics missing %q after restart", wantObs)
	}

	for _, app := range apps {
		var want, got knative.TargetResponse
		mustGetJSON(t, ctl.URL+"/v1/apps/"+app+"/target?concurrency=1", &want)
		mustGetJSON(t, "http://"+addr+"/v1/apps/"+app+"/target?concurrency=1", &got)
		if want != got {
			t.Errorf("%s: target %+v (uninterrupted) != %+v (restarted binary)", app, want, got)
		}
		var wantF, gotF knative.ForecastResponse
		mustGetJSON(t, ctl.URL+"/v1/apps/"+app+"/forecast?horizon=6", &wantF)
		mustGetJSON(t, "http://"+addr+"/v1/apps/"+app+"/forecast?horizon=6", &gotF)
		if len(wantF.Values) != len(gotF.Values) {
			t.Fatalf("%s: forecast lengths differ", app)
		}
		for i := range wantF.Values {
			if math.Float64bits(wantF.Values[i]) != math.Float64bits(gotF.Values[i]) {
				t.Errorf("%s: forecast[%d] %v != %v (not bit-identical)",
					app, i, wantF.Values[i], gotF.Values[i])
			}
		}
	}
}

// TestFemuxdKill9KeepsPromotion: a promotion outlives kill -9. femuxd
// boots on an empty -data-dir from -model, takes a fleet whose demand
// changed regime, and a forced lifecycle cycle promotes a retrained
// model; its answers must differ from the boot model's, or the test
// would pass on a restart that reloads -model. Killed with -9 and
// restarted with the same flags, -model included, it must serve the
// promoted model from the directory, not reading -model: every app's
// target and forecast bit for bit what they were before the kill.
func TestFemuxdKill9KeepsPromotion(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the femuxd binary; skipped in -short")
	}
	bin := buildFemuxd(t)
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.json")
	writeModelFile(t, modelPath, tinyModel(t))
	flags := []string{"-data-dir", filepath.Join(dir, "data"), "-fsync", "always",
		"-retrain-every", "1h", "-drift-threshold", "0", "-min-improve", "-1"}
	addr := freeAddr(t)
	base := "http://" + addr
	apps := []string{"pay", "auth", "feed", "mail", "cart", "ship"}
	type answer struct {
		target   knative.TargetResponse
		forecast knative.ForecastResponse
	}
	answers := func() []answer {
		t.Helper()
		out := make([]answer, len(apps))
		for i, app := range apps {
			mustGetJSON(t, base+"/v1/apps/"+app+"/target?concurrency=1", &out[i].target)
			mustGetJSON(t, base+"/v1/apps/"+app+"/forecast?horizon=6&quantiles=0.5,0.9", &out[i].forecast)
		}
		return out
	}
	same := func(a, b answer) bool {
		if a.target != b.target || a.forecast.Forecaster != b.forecast.Forecaster ||
			len(a.forecast.Values) != len(b.forecast.Values) || len(a.forecast.Quantiles) != len(b.forecast.Quantiles) {
			return false
		}
		bits := func(x, y []float64) bool {
			for i := range x {
				if len(x) != len(y) || math.Float64bits(x[i]) != math.Float64bits(y[i]) {
					return false
				}
			}
			return true
		}
		for q := range a.forecast.Quantiles {
			if !bits(a.forecast.Quantiles[q].Values, b.forecast.Quantiles[q].Values) {
				return false
			}
		}
		return bits(a.forecast.Values, b.forecast.Values)
	}

	proc1 := startFemuxd(t, bin, addr, modelPath, flags...)
	defer proc1.Process.Kill()
	for m := 0; m < 150; m++ {
		obs := make([]knative.BatchObservation, len(apps))
		for i, app := range apps {
			// The boot model's regime, short spikes, then a slow wave.
			v := 0.0
			if (m+i)%8 < 2 {
				v = 1.5
			}
			if m >= 30 {
				v = 10 + 8*math.Sin(2*math.Pi*float64(m+3*i)/20)
			}
			obs[i] = knative.BatchObservation{App: app, Concurrency: v}
		}
		postBatch(t, base, m, obs)
	}
	boot := answers()
	resp, err := http.Post(base+"/v1/admin/lifecycle", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var res struct{ Outcome, Error string }
	json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if res.Outcome != "promoted" {
		t.Fatalf("forced cycle: %+v, want promoted", res)
	}
	promoted := answers()
	differ := 0
	for i := range apps {
		if !same(boot[i], promoted[i]) {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("the promoted model answers every app as the boot model does: the test cannot tell them apart")
	}

	if err := proc1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	proc1.Wait()
	var logs lockedBuffer
	proc2 := startFemuxdLog(t, &logs, bin, addr, modelPath, flags...)
	restarted := answers()
	proc2.Process.Signal(syscall.SIGTERM)
	proc2.Wait()
	for i, app := range apps {
		if !same(promoted[i], restarted[i]) {
			t.Errorf("%s after kill -9 and restart: %+v, before the kill %+v", app, restarted[i], promoted[i])
		}
	}
	for _, want := range []string{"serving the model stored in", "is not the stored model"} {
		if !strings.Contains(logs.String(), want) {
			t.Errorf("the restart did not log %q:\n%s", want, logs.String())
		}
	}
	if strings.Contains(logs.String(), "loaded model from") {
		t.Errorf("the restart loaded -model instead of serving the stored model:\n%s", logs.String())
	}
	t.Logf("%d of %d apps answer differently after the promotion", differ, len(apps))
}

// lockedBuffer is a buffer a running process may write while the test
// reads it.
type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestFemuxdBoundedInMemoryChurn is the CI sparse-churn smoke's third run
// in miniature: a femuxd binary started without -data-dir, its hot tier
// bounded far below the fleet, must evict and restore through the memory
// store without losing an observation — femux_store_observations, exported
// whatever the store, equals what was acknowledged, and every app answers
// with its whole history.
func TestFemuxdBoundedInMemoryChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the femuxd binary; skipped in -short")
	}
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.json")
	writeModelFile(t, modelPath, tinyModel(t))
	addr := freeAddr(t)
	proc := startFemuxd(t, buildFemuxd(t), addr, modelPath,
		"-max-hot-apps", "4")
	defer func() {
		proc.Process.Signal(syscall.SIGTERM)
		proc.Wait()
	}()

	// 40 apps, app i firing every (i%5)+1 minutes: most requests find
	// their app evicted.
	const apps, minutes = 40, 30
	sent := make([]int, apps)
	acked := 0
	for m := 0; m < minutes; m++ {
		var obs []knative.BatchObservation
		for i := 0; i < apps; i++ {
			if m%(i%5+1) == 0 {
				obs = append(obs, knative.BatchObservation{App: fmt.Sprintf("sparse-%d", i), Concurrency: float64((m+i)%4) + 0.25})
				sent[i]++
			}
		}
		acked += postBatch(t, "http://"+addr, m, obs)
	}

	scrape := httpGet(t, "http://"+addr+"/metrics")
	for _, want := range []string{
		fmt.Sprintf("femux_store_observations %d\n", acked),
		fmt.Sprintf("femux_store_apps %d\n", apps),
		"femux_store_wal_segments 0\n",
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(scrape, "femux_tier_evictions_total 0\n") {
		t.Error("no evictions: the hot budget never bound")
	}
	for i := 0; i < apps; i++ {
		var got knative.TargetResponse
		mustGetJSON(t, fmt.Sprintf("http://%s/v1/apps/sparse-%d/target", addr, i), &got)
		if got.History != sent[i] {
			t.Errorf("sparse-%d: history %d, want the %d observations sent", i, got.History, sent[i])
		}
	}
}

// TestFemuxdRefusesOldDataDir: femuxd on a data directory this build no
// longer reads, one holding a femux-snap-v3 snapshot, opens it before it
// reads a model: it exits non-zero at once, its stderr names the format
// and the upgrade path, it never logs "model ready", and the directory is
// left as it was.
func TestFemuxdRefusesOldDataDir(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the femuxd binary; skipped in -short")
	}
	bin := buildFemuxd(t)
	dataDir := t.TempDir()
	magic := []byte("femux-snap-v3") // a snapshot's first record, framed as the WAL frames one
	snap := binary.LittleEndian.AppendUint32(nil, uint32(len(magic)))
	snap = binary.LittleEndian.AppendUint32(snap, crc32.Checksum(magic, crc32.MakeTable(crc32.Castagnoli)))
	snap = append(snap, magic...)
	if err := os.WriteFile(filepath.Join(dataDir, "snap-00000001.snap"), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	stderr := refusal(t, bin, "-data-dir", dataDir)
	for _, want := range []string{`"femux-snap-v3"`, "femux-split -from", "a6e04f1"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr does not name %s:\n%s", want, stderr)
		}
	}
	if strings.Contains(stderr, "model ready") {
		t.Errorf("femuxd loaded a model before refusing the directory:\n%s", stderr)
	}
	ents, err := os.ReadDir(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("the refused directory holds %d files, want the snapshot alone", len(ents))
	}
	if got, _ := os.ReadFile(filepath.Join(dataDir, "snap-00000001.snap")); string(got) != string(snap) {
		t.Error("the refused snapshot changed")
	}
}

// TestFemuxdRefusesNoModelSource: a femuxd with nothing to serve exits
// non-zero before it listens, whether no -model is given without
// -data-dir, the -data-dir it opens holds no model, or the -model that
// would seed it does not exist, and its stderr names what to pass. An
// empty directory is left holding no model.
func TestFemuxdRefusesNoModelSource(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the femuxd binary; skipped in -short")
	}
	bin := buildFemuxd(t)
	dataDir := t.TempDir()
	for _, c := range []struct {
		args []string
		want string
	}{
		{nil, "-model is required without -data-dir"},
		{[]string{"-data-dir", dataDir}, "femux-train"},
		{[]string{"-data-dir", dataDir, "-model", filepath.Join(dataDir, "missing.json")}, "-model"},
	} {
		stderr := refusal(t, bin, c.args...)
		if !strings.Contains(stderr, c.want) {
			t.Errorf("femuxd %v: stderr does not name %q:\n%s", c.args, c.want, stderr)
		}
		if strings.Contains(stderr, "serving FeMux API") {
			t.Errorf("femuxd %v listened before refusing:\n%s", c.args, stderr)
		}
	}
	st, err := store.Open(dataDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Model() != nil {
		t.Error("the refused empty directory holds a model")
	}
}

// refusal runs femuxd with args, requires it to exit non-zero within
// two minutes, and returns its stderr.
func refusal(t *testing.T, bin string, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var stderr strings.Builder
	cmd := exec.CommandContext(ctx, bin, append([]string{"-addr", freeAddr(t)}, args...)...)
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || ctx.Err() != nil {
		t.Fatalf("femuxd %v: %v, want a non-zero exit\n%s", args, err, stderr.String())
	}
	return stderr.String()
}

// postBatch posts one minute's batch, requires every item accepted, and
// returns how many were.
func postBatch(t *testing.T, baseURL string, minute int, obs []knative.BatchObservation) int {
	t.Helper()
	body, err := json.Marshal(knative.BatchObserveRequest{Observations: obs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/observe/batch", "application/json",
		strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("minute %d: %v", minute, err)
	}
	defer resp.Body.Close()
	var out knative.BatchObserveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || out.Rejected != 0 {
		t.Fatalf("minute %d: status=%d rejected=%d", minute, resp.StatusCode, out.Rejected)
	}
	return out.Accepted
}

func buildFemuxd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "femuxd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building femuxd: %v\n%s", err, out)
	}
	return bin
}

func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func startFemuxd(t *testing.T, bin, addr, modelPath string, flags ...string) *exec.Cmd {
	t.Helper()
	return startFemuxdLog(t, os.Stderr, bin, addr, modelPath, flags...)
}

// startFemuxdLog is startFemuxd with the process's output going to logw.
func startFemuxdLog(t *testing.T, logw io.Writer, bin, addr, modelPath string, flags ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, append([]string{
		"-addr", addr,
		"-model", modelPath,
		"-shutdown-timeout", "10s",
	}, flags...)...)
	cmd.Stdout = logw
	cmd.Stderr = logw
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd
			}
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("femuxd never became healthy")
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return b.String()
}

func mustGetJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
}
