// Command femux-split resizes a stopped femuxd fleet offline: it
// redistributes the apps of the old shards' data directories over new,
// empty ones by the same rendezvous hash femuxd and femux-shard route by
// (store.ShardOf), then prints each new shard's apps and observations.
//
// Usage:
//
//	femux-split -from data-0,data-1 -to new-0,new-1,new-2
//
// Stop every instance of the old fleet first, then start instance i of
// the new one with -data-dir new-i -shards 3 -shard-id i, and the router
// with the new backend list. Followers start over with empty data
// directories and bootstrap from their primary.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"github.com/ubc-cirrus-lab/femux-go/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("femux-split: ")
	from := flag.String("from", "", "comma-separated data directories of the stopped fleet, in shard order")
	to := flag.String("to", "", "comma-separated empty data directories of the new fleet, in shard order")
	flag.Parse()
	if *from == "" || *to == "" {
		log.Fatal("need -from and -to")
	}
	srcs, dsts := strings.Split(*from, ","), strings.Split(*to, ",")
	if err := store.Split(srcs, dsts); err != nil {
		log.Fatal(err)
	}
	for i, dir := range dsts {
		st, err := store.Open(dir, store.Options{CompactEvery: -1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("shard %d of %d (%s): %d apps, %d observations\n",
			i, len(dsts), dir, st.Apps(), st.TotalObservations())
		if err := st.Close(); err != nil {
			log.Fatal(err)
		}
	}
}
