package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/knative"
)

// routeThrough sends clients × perClient observes concurrently through a
// router on client to one backend, each to path (the app's observe path,
// or the batch path with a one-item batch), and returns how many
// connections the router opened to the backend.
func routeThrough(t *testing.T, client *http.Client, path string, clients, perClient int) int64 {
	t.Helper()
	var dials atomic.Int64
	backend := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		time.Sleep(time.Millisecond) // keep every client's request in flight together
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Path == "/v1/observe/batch" {
			fmt.Fprintln(w, `{"results":[{"app":"a","target":1}],"accepted":1,"rejected":0}`)
			return
		}
		fmt.Fprintln(w, `{"target":1}`)
	}))
	backend.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	backend.Start()
	defer backend.Close()
	rt, err := knative.NewShardRouter([]string{backend.URL}, client)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	caller := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer caller.CloseIdleConnections()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				body := `{"concurrency":1}`
				if path == "/v1/observe/batch" {
					body = fmt.Sprintf(`{"observations":[{"app":"app-%d","concurrency":1}]}`, c)
				}
				resp, err := caller.Post(front.URL+strings.Replace(path, "{app}", fmt.Sprintf("app-%d", c), 1),
					"application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("HTTP %d", resp.StatusCode)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	return dials.Load()
}

// TestRouterKeepsShardConnections pins the router's connection pool: N
// concurrent clients sending many requests each through femux-shard's
// client open about N connections to a shard. (A little over N: a request
// that finds no idle connection dials one, and may then take another
// that came free first, leaving the dialed one idle.) On a transport with
// http.DefaultTransport's 2 idle connections per host, most requests past
// the second concurrent one dial anew. Per-app requests and batch
// sub-batches both go through the client.
func TestRouterKeepsShardConnections(t *testing.T) {
	const clients, perClient = 16, 40
	for name, path := range map[string]string{"app": "/v1/apps/{app}/observe", "batch": "/v1/observe/batch"} {
		t.Run(name, func(t *testing.T) {
			client := newClient(10 * time.Second)
			defer client.CloseIdleConnections()
			if got := routeThrough(t, client, path, clients, perClient); got > clients+clients/4 {
				t.Errorf("%d clients × %d requests opened %d connections to the shard, want about %d",
					clients, perClient, got, clients)
			}

			two := http.DefaultTransport.(*http.Transport).Clone()
			two.MaxIdleConnsPerHost = 2
			defer two.CloseIdleConnections()
			if got := routeThrough(t, &http.Client{Transport: two}, path, clients, perClient); got <= 2*clients {
				t.Errorf("with 2 idle connections per host the router opened only %d connections: the load does not overlap", got)
			}
		})
	}
}

// TestRemovedHealthFlagsRefused pins the deletion of the router's
// failover loop: a shard is one backend, restarted on its data directory,
// and a command line that still sets the loop up is a flag error.
func TestRemovedHealthFlagsRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the femux-shard binary; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "femux-shard")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building femux-shard: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"-health-interval", "500ms"},
		{"-health-fails", "3"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		out, err := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0",
			"-backends", "http://127.0.0.1:1", args[0], args[1]).CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() <= 0 ||
			!strings.Contains(string(out), "flag provided but not defined: "+args[0]) {
			t.Fatalf("femux-shard %s %s: %v\n%s", args[0], args[1], err, out)
		}
	}
}
