package main

import (
	"fmt"
	"strconv"

	spv "github.com/authhints/spv"
)

// One world for every workload. The same constants become the daemon's
// flags (worldFlags) and the in-process graph (buildWorld), so the pool's
// ground truth and the daemon's proofs can only describe the same network.
const (
	worldDataset = "DE"
	worldScale   = 0.25
	worldSeed    = 1 // spvserve's -seed default; never driven by -seed

	queryRange = 4000.0 // target s→t network distance on the 10,000² map
	coldPairs  = 4096   // × 3 methods ≈ 350 MB of proofs: 5.5× the 64 MiB cache
	hotPairs   = 256    // × 3 methods ≈ 22 MB: fits the cache
)

// methods rotate per request. FULL is quadratic to outsource and is not a
// daemon default; it stays out.
var methods = []spv.Method{spv.DIJ, spv.LDM, spv.HYP}

func worldFlags() []string {
	return []string{
		"-dataset", worldDataset,
		"-scale", strconv.FormatFloat(worldScale, 'g', -1, 64),
		"-seed", strconv.Itoa(worldSeed),
	}
}

func buildWorld() (*spv.Graph, error) {
	return spv.BuildNetwork(worldDataset, worldScale, 0, 0, worldSeed)
}

// buildPool returns n distinct (S, T) pairs with ground-truth distances.
// spv.GenerateWorkload draws one pair per sampled source and samples
// sources with replacement, so its output repeats pairs; a repeated pair
// would be a cache hit on the workload that promises none.
func buildPool(g *spv.Graph, n int, seed int64) ([]spv.Query, error) {
	var drawn []spv.Query
	for round := int64(0); round < 16; round++ {
		// Each round draws from its own stream; seed*16 keeps the streams
		// of neighbouring seeds apart.
		qs, err := spv.GenerateWorkload(g, n, queryRange, seed*16+round)
		if err != nil {
			return nil, fmt.Errorf("pool: %w", err)
		}
		drawn = append(drawn, qs...)
		if pool := distinctPairs(drawn); len(pool) >= n {
			return pool[:n], nil
		}
	}
	return nil, fmt.Errorf("pool: fewer than %d distinct pairs after 16 rounds", n)
}

// distinctPairs keeps the first occurrence of every (S, T) pair, in order.
func distinctPairs(qs []spv.Query) []spv.Query {
	type pair struct{ s, t spv.NodeID }
	seen := make(map[pair]bool, len(qs))
	out := make([]spv.Query, 0, len(qs))
	for _, q := range qs {
		if k := (pair{q.S, q.T}); !seen[k] {
			seen[k] = true
			out = append(out, q)
		}
	}
	return out
}

// key names one cacheable request: a pool pair under one method.
type key struct {
	method spv.Method
	q      spv.Query
}

// keyAt is the cyclic walk the closed loops follow: the method rotates
// with every request and the pair advances every third, so one cycle
// touches all 3×len(pool) keys exactly once before any repeats. On `cold`
// a cycle is 5.5× the cache, so under LRU every key has been evicted by
// the time the walk returns to it.
func keyAt(pool []spv.Query, i int) key {
	k := i % (len(methods) * len(pool))
	return key{method: methods[k%len(methods)], q: pool[k/len(methods)]}
}
