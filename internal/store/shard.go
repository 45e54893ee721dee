package store

// ShardOf deterministically assigns an application to one of `shards`
// femuxd instances using rendezvous (highest-random-weight) hashing.
// Every component of the fleet — femuxd's ownership gate, the
// femux-shard router, and load generators — must call this same function
// so they agree on which instance owns which app. shards <= 1 means a
// single unsharded instance.
//
// Rendezvous hashing replaces the earlier modulo partition because of
// its resize behaviour: growing the fleet from N to N+1 shards changes
// the owner of only ~1/(N+1) of the apps, and every app that moves
// lands on the new shard (existing shards' weights are unchanged, so
// only the newcomer can win an app). A resize is done offline: Split
// rewrites the stopped shards' data directories by this function, and
// the fleet restarts with the new -shards.
func ShardOf(app string, shards int) int {
	if shards <= 1 {
		return 0
	}
	// 64-bit FNV-1a of the app ID, mixed per shard index below.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(app); i++ {
		h ^= uint64(app[i])
		h *= prime64
	}
	best, bestW := 0, shardWeight(h, 0)
	for i := 1; i < shards; i++ {
		if w := shardWeight(h, i); w > bestW {
			best, bestW = i, w
		}
	}
	return best
}

// shardWeight is the rendezvous weight of (app hash, shard index): a
// splitmix64 finalizer over the pair. The tie-break (strict > in ShardOf)
// keeps the mapping total even in the astronomically unlikely event of
// equal weights.
func shardWeight(appHash uint64, shard int) uint64 {
	x := appHash ^ (uint64(shard)+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
