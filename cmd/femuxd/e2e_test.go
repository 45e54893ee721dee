package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/knative"
)

// TestFemuxdSigtermRestartBitIdentical is the process-level
// zero-state-loss test: a real femuxd binary is fed half a replay,
// SIGTERMed, restarted from the same -data-dir, fed the rest, and every
// forecast it then serves must be bit-for-bit what an uninterrupted
// in-process service computes over the same stream. Skipped with -short
// (it compiles the binary); the nightly full tier runs it.
func TestFemuxdSigtermRestartBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the femuxd binary; skipped in -short")
	}
	bin := buildFemuxd(t)

	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.json")
	dataDir := filepath.Join(dir, "data")
	model := tinyModel(t)
	if err := writeModel(modelPath, model); err != nil {
		t.Fatal(err)
	}

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

	// First femuxd process: half the replay, then SIGTERM.
	addr := freeAddr(t)
	proc1 := startFemuxd(t, bin, addr, modelPath, "-data-dir", dataDir, "-fsync", "always")
	feed("http://"+addr, 0, half)
	if err := proc1.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := proc1.Wait(); err != nil {
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
	if err := writeModel(modelPath, tinyModel(t)); err != nil {
		t.Fatal(err)
	}
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
	cmd := exec.Command(bin, append([]string{
		"-addr", addr,
		"-model", modelPath,
		"-shutdown-timeout", "10s",
	}, flags...)...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
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
