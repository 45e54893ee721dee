// Command femux-shard routes FeMux API traffic across a sharded femuxd
// fleet. Each femuxd instance owns an FNV-1a hash partition of the apps
// (femuxd -shards N -shard-id I); the router forwards per-app requests to
// the owning instance, splits /v1/observe/batch bodies into per-shard
// sub-batches posted concurrently, and fans /v1/admin/reload out to every
// instance so a retrained model in a shared directory goes live
// fleet-wide.
//
// Each -backends entry is one shard's femuxd. The shard count is fixed
// while the router runs: a crashed instance is restarted on its data
// directory, and to resize a fleet, stop it, split the shards' data
// directories with femux-split, and restart the instances and the router
// with the new count.
//
// Usage:
//
//	femux-shard -addr :8080 -backends http://127.0.0.1:9090,http://127.0.0.1:9091
//
// The backend order defines the shard numbering and must match each
// instance's -shard-id; /healthz reports healthy only when every shard
// is. /metrics exposes the router's per-shard routing and error
// counters.
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
		backends        = flag.String("backends", "", "comma-separated femuxd base URLs in shard order")
		timeout         = flag.Duration("timeout", 10*time.Second, "per-backend request timeout")
		shutdownTimeout = flag.Duration("shutdown-timeout", 15*time.Second, "drain deadline on SIGINT/SIGTERM")
	)
	flag.Parse()

	var urls []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			urls = append(urls, b)
		}
	}
	rt, err := knative.NewShardRouter(urls, newClient(*timeout))
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("routing %d shards: %s", rt.Shards(), strings.Join(urls, ", "))

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
	if err := serving.Run(server, stop, *shutdownTimeout, log.Printf); err != nil {
		log.Fatal(err)
	}
}

// maxIdlePerShard is how many idle connections the router keeps to each
// shard. http.DefaultTransport keeps 2, so past two concurrent requests
// to a shard the router would dial a new connection for most requests.
const maxIdlePerShard = 256

// newClient returns the router's client: timeout per request, on a
// transport that keeps up to maxIdlePerShard idle connections to each
// shard.
func newClient(timeout time.Duration) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 0 // no cap across shards
	tr.MaxIdleConnsPerHost = maxIdlePerShard
	return &http.Client{Timeout: timeout, Transport: tr}
}
