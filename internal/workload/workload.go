// Package workload generates shortest path query workloads as in the
// paper's experimental setup (§VI-A): a set of (vs, vt) pairs whose network
// distance is as close as possible to a target query range.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/sp"
)

// Query is one shortest path query with its ground-truth distance.
type Query struct {
	S, T graph.NodeID
	Dist float64 // exact shortest path distance from S to T
}

// Generate builds count queries whose distances approximate queryRange: for
// each query a random source is expanded (Dijkstra bounded a little past the
// range) and the settled node with distance closest to the range becomes the
// target. Sources whose reachable ball cannot get within 30% of the range
// are resampled a few times before accepting the best found.
func Generate(g graph.View, count int, queryRange float64, seed int64) ([]Query, error) {
	if g.NumNodes() < 2 {
		return nil, fmt.Errorf("workload: graph too small")
	}
	if count <= 0 {
		return nil, fmt.Errorf("workload: count %d must be positive", count)
	}
	if queryRange <= 0 || math.IsNaN(queryRange) || math.IsInf(queryRange, 0) {
		return nil, fmt.Errorf("workload: bad query range %v", queryRange)
	}
	rng := rand.New(rand.NewSource(seed))
	queries := make([]Query, 0, count)
	for len(queries) < count {
		var best Query
		bestErr := math.MaxFloat64
		for attempt := 0; attempt < 8; attempt++ {
			src := graph.NodeID(rng.Intn(g.NumNodes()))
			q, relErr, ok := bestTarget(g, src, queryRange)
			if ok && relErr < bestErr {
				best, bestErr = q, relErr
				if relErr <= 0.05 {
					break
				}
			}
		}
		if bestErr == math.MaxFloat64 {
			return nil, fmt.Errorf("workload: no node pair approaches range %v", queryRange)
		}
		queries = append(queries, best)
	}
	return queries, nil
}

// bestTarget expands src and returns the query to the settled node whose
// distance is closest to the range, with its relative error.
func bestTarget(g graph.View, src graph.NodeID, queryRange float64) (Query, float64, bool) {
	tree, settled := sp.DijkstraBounded(g, src, queryRange*1.25)
	var best graph.NodeID = graph.Invalid
	bestErr := math.MaxFloat64
	for _, v := range settled {
		if v == src {
			continue
		}
		relErr := math.Abs(tree.Dist[v]-queryRange) / queryRange
		if relErr < bestErr {
			best, bestErr = v, relErr
		}
	}
	if best == graph.Invalid {
		return Query{}, 0, false
	}
	return Query{S: src, T: best, Dist: tree.Dist[best]}, bestErr, true
}

// MeanDist returns the average ground-truth distance of a workload.
func MeanDist(qs []Query) float64 {
	if len(qs) == 0 {
		return 0
	}
	total := 0.0
	for _, q := range qs {
		total += q.Dist
	}
	return total / float64(len(qs))
}
