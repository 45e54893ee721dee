// Command femux-shard routes FeMux API traffic across a sharded femuxd
// fleet. Each femuxd instance owns an FNV-1a hash partition of the apps
// (femuxd -shards N -shard-id I); the router forwards per-app requests to
// the owning instance, splits /v1/observe/batch bodies into per-shard
// sub-batches posted concurrently, and fans /v1/admin/reload out to every
// instance so a retrained model in a shared directory goes live
// fleet-wide.
//
// Each -backends entry is one shard's backend GROUP: a primary
// optionally followed by '|'-separated replicas started with
// femuxd -replica-of. The router health-checks every shard's active
// backend and, after -health-fails consecutive failures, promotes the
// next backend in the group (POST /v1/admin/promote) and fails traffic
// over — no client ever needs to know which backend is serving. The
// shard count is fixed while the router runs: to resize a fleet, stop
// it, split the shards' data directories with femux-split, and restart
// the instances and the router with the new count.
//
// Usage:
//
//	femux-shard -addr :8080 \
//	    -backends 'http://127.0.0.1:9090|http://127.0.0.1:9190,http://127.0.0.1:9091'
//
// The backend-group order defines the shard numbering and must match
// each instance's -shard-id; /healthz reports healthy only when every
// shard's active backend is. /metrics exposes the router's per-shard
// routing, error, and promotion counters.
package main

import (
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/knative"
	"github.com/ubc-cirrus-lab/femux-go/internal/serving"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("femux-shard: ")
	var (
		addr            = flag.String("addr", ":8080", "listen address")
		backends        = flag.String("backends", "", "comma-separated backend groups in shard order; each group is 'primary[|replica...]'")
		timeout         = flag.Duration("timeout", 10*time.Second, "per-backend request timeout")
		shutdownTimeout = flag.Duration("shutdown-timeout", 15*time.Second, "drain deadline on SIGINT/SIGTERM")
		healthEvery     = flag.Duration("health-interval", 500*time.Millisecond, "active-backend health-check period (0 disables the failover loop)")
		healthFails     = flag.Int("health-fails", 3, "consecutive health-check failures before promoting the next backend")
	)
	flag.Parse()

	var groups []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			groups = append(groups, b)
		}
	}
	rt, err := knative.NewShardRouter(groups, &http.Client{Timeout: *timeout})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("routing %d shards: %s", rt.Shards(), strings.Join(groups, ", "))

	var stopHealth func()
	if *healthEvery > 0 {
		stopHealth = rt.StartHealthLoop(*healthEvery, *healthFails)
		log.Printf("failover loop: checking active backends every %s, promoting after %d failures",
			*healthEvery, *healthFails)
	}

	server := &http.Server{
		Addr:        *addr,
		Handler:     serving.LogRequests(log.Default(), rt.Handler()),
		ReadTimeout: 10 * time.Second,
	}
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		log.Printf("received %s", sig)
		close(stop)
	}()

	log.Printf("serving shard router on %s", *addr)
	err = serving.Run(server, stop, *shutdownTimeout, log.Printf)
	if stopHealth != nil {
		stopHealth()
	}
	if err != nil {
		log.Fatal(err)
	}
}
