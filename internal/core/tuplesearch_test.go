package core

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"github.com/authhints/spv/internal/digest"
	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/sp"
)

// tableOf loads a graph's tuples — the "perfect proof" — into a fresh
// verification scratch, minus the dropped nodes. extra, when non-nil,
// supplies each node's method annotation bytes for the given kind.
func tableOf(t *testing.T, g *graph.Graph, kind tupleExtra, extra func(graph.NodeID) []byte, drop ...graph.NodeID) *verifyScratch {
	t.Helper()
	var recs []tupleRecord
	net := g.Freeze()
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if !slices.Contains(drop, v) {
			recs = append(recs, tupleRecord{Pos: uint32(v), Bytes: encodeTupleMsg(net, v, extra, nil)})
		}
	}
	s := &verifyScratch{}
	if err := s.tab.load(digest.SHA1, recs, kind); err != nil {
		t.Fatal(err)
	}
	return s
}

// searchFixture builds a small random connected graph and a query pair.
func searchFixture(t *testing.T, seed int64) (*graph.Graph, graph.NodeID, graph.NodeID, float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 40 + rng.Intn(60)
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(rng.Float64()*1000, rng.Float64()*1000)
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u, v := graph.NodeID(perm[i]), graph.NodeID(perm[rng.Intn(i)])
		g.MustAddEdge(u, v, 1+rng.Float64()*50)
	}
	for k := 0; k < n/2; k++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, 1+rng.Float64()*50)
		}
	}
	vs := graph.NodeID(rng.Intn(n))
	vt := graph.NodeID(rng.Intn(n))
	for vt == vs {
		vt = graph.NodeID(rng.Intn(n))
	}
	d, _ := sp.DijkstraTo(g, vs, vt)
	return g, vs, vt, d
}

func TestTupleDijkstraMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g, vs, vt, want := searchFixture(t, seed)
		got, err := tableOf(t, g, plainTuples, nil).tupleDijkstra(vs, vt, want)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !distEqual(got, want) {
			t.Errorf("seed %d: tupleDijkstra %v, oracle %v", seed, got, want)
		}
	}
}

func TestTupleDijkstraDetectsMissingRequiredNode(t *testing.T) {
	g, vs, vt, want := searchFixture(t, 3)
	// Remove a node strictly inside the bound (not the endpoints).
	tree, settled := sp.DijkstraBounded(g, vs, want)
	var victim graph.NodeID = graph.Invalid
	for _, v := range settled {
		if v != vs && v != vt && tree.Dist[v] < want*0.9 {
			victim = v
			break
		}
	}
	if victim == graph.Invalid {
		t.Skip("no interior node to drop")
	}
	_, err := tableOf(t, g, plainTuples, nil, victim).tupleDijkstra(vs, vt, want)
	if !errors.Is(err, ErrIncompleteProof) {
		t.Errorf("missing node not detected: %v", err)
	}
}

func TestTupleDijkstraUnreachableTarget(t *testing.T) {
	g := graph.New(3)
	g.AddNode(0, 0)
	g.AddNode(1, 0)
	g.AddNode(2, 0)
	g.MustAddEdge(0, 1, 1)
	got, err := tableOf(t, g, plainTuples, nil).tupleDijkstra(0, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got != sp.Unreachable {
		t.Errorf("got %v, want Unreachable", got)
	}
}

func zeroLB(int32) (float64, error) { return 0, nil }

func TestTupleAStarMatchesOracleWithZeroLB(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g, vs, vt, want := searchFixture(t, seed)
		got, err := tableOf(t, g, plainTuples, nil).tupleAStar(vs, vt, zeroLB, want)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !distEqual(got, want) {
			t.Errorf("seed %d: tupleAStar %v, oracle %v", seed, got, want)
		}
	}
}

func TestTupleAStarWithInconsistentAdmissibleLB(t *testing.T) {
	// A randomly deflated true distance is admissible but inconsistent; the
	// re-opening A* must still land on the oracle optimum.
	for seed := int64(0); seed < 8; seed++ {
		g, vs, vt, want := searchFixture(t, seed)
		toT, _ := sp.DijkstraBounded(g, vt, sp.Unreachable)
		rng := rand.New(rand.NewSource(seed * 31))
		scale := make([]float64, g.NumNodes())
		for i := range scale {
			scale[i] = rng.Float64()
		}
		s := tableOf(t, g, plainTuples, nil)
		lb := func(slot int32) (float64, error) {
			u := s.tab.ids[slot]
			if toT.Dist[u] == sp.Unreachable {
				return 0, nil
			}
			return toT.Dist[u] * scale[u], nil
		}
		got, err := s.tupleAStar(vs, vt, lb, want)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !distEqual(got, want) {
			t.Errorf("seed %d: %v, want %v", seed, got, want)
		}
	}
}

func TestTupleAStarPropagatesLBErrors(t *testing.T) {
	g, vs, vt, want := searchFixture(t, 5)
	bad := errors.New("payload missing")
	lb := func(int32) (float64, error) { return 0, bad }
	_, err := tableOf(t, g, plainTuples, nil).tupleAStar(vs, vt, lb, want)
	if !errors.Is(err, ErrIncompleteProof) {
		t.Errorf("LB error not mapped to incomplete proof: %v", err)
	}
}

func TestTupleAStarMissingNeighborDetected(t *testing.T) {
	g, vs, vt, want := searchFixture(t, 7)
	// Drop a neighbor of the source: A* must refuse on first expansion.
	nbr := g.Neighbors(vs)[0].To
	if nbr == vt {
		t.Skip("degenerate layout")
	}
	_, err := tableOf(t, g, plainTuples, nil, nbr).tupleAStar(vs, vt, zeroLB, want)
	if !errors.Is(err, ErrIncompleteProof) {
		t.Errorf("missing neighbor not detected: %v", err)
	}
}

func TestHypCoarseRequiresEndpointTuples(t *testing.T) {
	g, vs, vt, _ := searchFixture(t, 9)
	oneCell := func(graph.NodeID) []byte { return hyperExtra(0, false) }
	for _, gone := range []graph.NodeID{vs, vt} {
		if err := tableOf(t, g, hypTuples, oneCell, gone).hypCoarse(vs, vt, 1); !errors.Is(err, ErrIncompleteProof) {
			t.Errorf("missing endpoint %d not detected: %v", gone, err)
		}
	}
}

// twoCellLine is a 6-node line graph split into two "cells" of three, nodes
// 2 and 3 (the cut edge's endpoints) being the borders.
func twoCellLine() (*graph.Graph, func(graph.NodeID) []byte) {
	g := graph.New(6)
	for i := 0; i < 6; i++ {
		g.AddNode(float64(i), 0)
	}
	for i := 0; i < 5; i++ {
		g.MustAddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	return g, func(v graph.NodeID) []byte { return hyperExtra(uint32(v/3), v == 2 || v == 3) }
}

func TestCellDijkstraHonorsCellBoundaries(t *testing.T) {
	// The intra-cell search from one end must settle exactly its own
	// cell's nodes.
	g, extra := twoCellLine()
	s := tableOf(t, g, hypTuples, extra)
	if err := s.cellDijkstra(s.tab.slot(0)); err != nil {
		t.Fatal(err)
	}
	settled := 0
	for slot, m := range s.mark {
		if m != markDone {
			continue
		}
		settled++
		v := s.tab.ids[slot]
		if v >= 3 {
			t.Errorf("node %d outside cell was settled", v)
		}
		if want := float64(v); s.dist[slot] != want {
			t.Errorf("dist[%d] = %v, want %v", v, s.dist[slot], want)
		}
	}
	if settled != 3 {
		t.Errorf("settled %d nodes, want 3", settled)
	}
}

func TestCellDijkstraDetectsPrunedNonBorderNeighbor(t *testing.T) {
	// Node 1 (non-border, in cell 0) is pruned: the search from node 0
	// (non-border) must reject.
	g, extra := twoCellLine()
	s := tableOf(t, g, hypTuples, extra, 1)
	if err := s.cellDijkstra(s.tab.slot(0)); !errors.Is(err, ErrIncompleteProof) {
		t.Errorf("pruned non-border neighbor not detected: %v", err)
	}
	// Pruning across the border (node 4, reached only via border 3) is
	// legal: border nodes skip absent neighbors.
	s = tableOf(t, g, hypTuples, extra, 4)
	if err := s.cellDijkstra(s.tab.slot(0)); err != nil {
		t.Errorf("legal cross-border absence rejected: %v", err)
	}
}

// TestCheckClaimedPath: the path check sums certified edge weights, needs
// the tuple of every hop's tail (and only those), and holds the claimed
// distance to the sum.
func TestCheckClaimedPath(t *testing.T) {
	g, vs, vt, want := searchFixture(t, 11)
	_, path := sp.DijkstraTo(g, vs, vt)
	tab := &tableOf(t, g, plainTuples, nil, vt).tab // the head of the last hop certifies nothing
	if got, err := tab.checkClaimedPath(path, vs, vt, want); err != nil || !distEqual(got, want) {
		t.Errorf("checkClaimedPath = %v, %v; want %v, nil", got, err, want)
	}
	for name, err := range map[string]error{
		"wrong source":     second(tab.checkClaimedPath(path[1:], vs, vt, want)),
		"wrong target":     second(tab.checkClaimedPath(path[:len(path)-1], vs, vt, want)),
		"fabricated edge":  second(tab.checkClaimedPath(graph.Path{vs, vs, vt}, vs, vt, want)),
		"inflated claim":   second(tab.checkClaimedPath(path, vs, vt, want*1.01)),
		"missing tail":     second(tableOf(t, g, plainTuples, nil, path[len(path)-2]).tab.checkClaimedPath(path, vs, vt, want)),
		"single-node path": second(tab.checkClaimedPath(graph.Path{vs}, vs, vs, 0)),
	} {
		if !errors.Is(err, ErrPathMismatch) || !errors.Is(err, ErrRejected) {
			t.Errorf("%s: got %v, want a rejected path mismatch", name, err)
		}
	}
}

func second(_ float64, err error) error { return err }
