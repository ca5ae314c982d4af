package core

import (
	"sync"

	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/mbt"
	"github.com/authhints/spv/internal/mht"
	"github.com/authhints/spv/internal/sp"
)

// queryScratch is the reusable per-query state of the provider hot paths:
// a search workspace, an epoch-stamped node include-set and the Merkle prove
// scratch. Acquired from a pool per QueryProof call, so steady-state
// serving touches a small recycled set of workspaces instead of allocating
// O(|V|) state per request (the serving layer calls QueryProof
// concurrently; each call gets its own scratch).
//
// Nothing reachable from a scratch may be retained by a returned proof:
// proofs must stay valid after the scratch is released and reused.
type queryScratch struct {
	ws    *sp.Workspace
	prove mht.ProveScratch

	// Forest prove scratch for FULL: the per-query row subtree rebuild was
	// the cold-FULL allocation outlier (O(|V|) digests per proof) before it
	// moved onto this reusable storage.
	forest mbt.ForestScratch

	// Stamped include-set for LDM's proof node collection: mark[v]==epoch
	// ⇔ v ∈ nodes. Insertion order is kept in nodes (HYP also gathers its
	// set there, unmarked); ProveCanonical emits them by leaf position, so
	// set semantics match the previous map-based collection exactly.
	nodes []graph.NodeID
	mark  []uint32
	epoch uint32

	// leaves is a proof's Merkle leaf-position bitset (networkADS.leafSet),
	// all zero between uses.
	leaves []uint64
}

var scratchPool = sync.Pool{New: func() any { return &queryScratch{ws: sp.NewWorkspace(0)} }}

// acquireScratch returns a pooled scratch ready for a graph of n nodes.
func acquireScratch(n int) *queryScratch {
	s := scratchPool.Get().(*queryScratch)
	s.ws.Reset(n)
	s.resetMark(n)
	return s
}

// releaseScratch returns s to the pool; the caller must not touch s (or the
// node set obtained from it) afterwards.
func releaseScratch(s *queryScratch) { scratchPool.Put(s) }

// resetMark empties the include-set in O(1) and grows the stamp array to n.
func (s *queryScratch) resetMark(n int) {
	if n > len(s.mark) {
		s.mark = make([]uint32, n) // zeroed: 0 is never a valid epoch
	}
	s.nodes = s.nodes[:0]
	s.epoch++
	if s.epoch == 0 {
		for i := range s.mark {
			s.mark[i] = 0
		}
		s.epoch = 1
	}
}

// add inserts v into the include-set, reporting whether it was new.
func (s *queryScratch) add(v graph.NodeID) bool {
	if s.mark[v] == s.epoch {
		return false
	}
	s.mark[v] = s.epoch
	s.nodes = append(s.nodes, v)
	return true
}
