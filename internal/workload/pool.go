package workload

import (
	"fmt"
	"math/rand"
)

// Locality names a pair-sampling distribution over a query pool — the
// knob that decides how kind the traffic is to a proof cache.
type Locality string

const (
	// Hostile draws pairs uniformly over the whole pool: with a pool much
	// larger than the cache's working set, almost every query is a cold
	// proof construction. This is the distribution that measures the
	// server's worst case.
	Hostile Locality = "hostile"
	// Friendly draws pairs Zipf-distributed over the pool (s=1.2), the
	// classic web-traffic shape: a handful of hot pairs dominate, so the
	// proof cache does its job. This is the
	// distribution that measures the steady state.
	Friendly Locality = "friendly"
)

// Pool is a deterministic sampler over a fixed query set: the same
// (queries, locality, seed) triple always yields the same sample
// sequence, so two load runs against the same world offer byte-identical
// traffic (pinned by TestPoolDeterministic). Not safe for concurrent use;
// the load generator samples from one goroutine.
type Pool struct {
	queries []Query
	rng     *rand.Rand
	zipf    *rand.Zipf // nil for Hostile
	perm    []int      // Friendly: rank→index, so hotness is seed-shuffled
}

// NewPool wraps a generated query set in a sampler. The queries slice is
// retained (not copied); callers must not mutate it afterwards.
func NewPool(queries []Query, locality Locality, seed int64) (*Pool, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("workload: empty query pool")
	}
	p := &Pool{queries: queries, rng: rand.New(rand.NewSource(seed))}
	switch locality {
	case Hostile:
	case Friendly:
		// Zipf s=1.2 over pool ranks; the permutation decouples hotness
		// from generation order so "the hot pairs" differ per seed.
		p.zipf = rand.NewZipf(p.rng, 1.2, 1, uint64(len(queries)-1))
		p.perm = p.rng.Perm(len(queries))
	default:
		return nil, fmt.Errorf("workload: unknown locality %q (want %q or %q)", locality, Hostile, Friendly)
	}
	return p, nil
}

// Next returns the next sampled query.
func (p *Pool) Next() Query {
	if p.zipf != nil {
		return p.queries[p.perm[p.zipf.Uint64()]]
	}
	return p.queries[p.rng.Intn(len(p.queries))]
}

// Size returns the number of distinct queries in the pool.
func (p *Pool) Size() int { return len(p.queries) }
