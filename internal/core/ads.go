package core

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/mht"
	"github.com/authhints/spv/internal/order"
	"github.com/authhints/spv/internal/par"
)

// networkADS is the graph-node Merkle tree of §III-B: extended-tuples Φ(v)
// laid out as leaves under a graph-node ordering, hashed into a tree of the
// configured fanout. It is shared by all four methods (with method-specific
// tuple extras) and lives on the provider's side; clients only ever see
// tuples plus mht proofs.
type networkADS struct {
	ord  *order.Ordering
	tree *mht.Tree
	msgs [][]byte // canonical tuple encoding per leaf position
	// lazy, when non-nil, fills msgs on demand: leaf encodings are a
	// deterministic function of the network and the method's extra bytes, so
	// an ADS loaded from a snapshot defers them until a query actually
	// covers a leaf (or an eager load materializes the table). All msgs
	// reads must go through msg() (or materialize() for whole-table
	// access) — the per-chunk sync.Once is what publishes the writes to
	// concurrent readers.
	lazy *tupleFill
}

// tupleChunk is the lazy-encoding granularity: one first-touch encodes
// this many leaves. Small enough that a query's resident cost stays
// proportional to the leaves it covers, large enough that the per-chunk
// sync.Once bookkeeping disappears against encoding cost.
const tupleChunk = 1024

// tupleFill is the on-demand encoder behind a snapshot-loaded networkADS.
// net is the provider's own network, never a later epoch's: the leaves it
// fills must be the ones the stored tree hashed.
type tupleFill struct {
	net     *graph.CSR
	extraFn func(graph.NodeID) []byte
	chunks  []sync.Once
	all     sync.Once
}

// msg returns the canonical tuple encoding at leaf position pos, encoding
// its chunk on first touch.
func (a *networkADS) msg(pos int) []byte {
	if a.lazy != nil {
		a.lazy.chunks[pos/tupleChunk].Do(func() { a.fillChunk(pos / tupleChunk) })
	}
	return a.msgs[pos]
}

func (a *networkADS) fillChunk(c int) {
	lo := c * tupleChunk
	hi := min(lo+tupleChunk, len(a.msgs))
	for pos := lo; pos < hi; pos++ {
		a.msgs[pos] = encodeTupleMsg(a.lazy.net, a.ord.Seq[pos], a.lazy.extraFn, nil)
	}
}

// materialize encodes every remaining chunk (in parallel), for paths that
// walk the whole message table: copy-on-write patching, snapshot
// re-publication, full-table audits. Idempotent and safe concurrently
// with msg readers.
func (a *networkADS) materialize() {
	if a.lazy == nil {
		return
	}
	a.lazy.all.Do(func() {
		par.Chunks(len(a.lazy.chunks), 1, func(lo, hi int) {
			for c := lo; c < hi; c++ {
				a.lazy.chunks[c].Do(func() { a.fillChunk(c) })
			}
		})
	})
}

// buildNetworkADS encodes every node's extended-tuple (with the method's
// extra bytes) in ordering sequence and folds them into the Merkle tree.
// Tuple encoding, leaf digesting and tree level hashing all fan out across
// GOMAXPROCS (each leaf position is independent), so owner outsourcing of
// large networks scales with cores while the root stays byte-identical to
// a serial build.
func buildNetworkADS(net *graph.CSR, cfg Config, extraFn func(graph.NodeID) []byte) (*networkADS, error) {
	ord, err := order.Compute(net, cfg.Ordering, cfg.OrderSeed)
	if err != nil {
		return nil, err
	}
	n := net.NumNodes()
	msgs := make([][]byte, n)
	par.Chunks(n, adsParallelThreshold, func(lo, hi int) {
		for pos := lo; pos < hi; pos++ {
			msgs[pos] = encodeTupleMsg(net, ord.Seq[pos], extraFn, nil)
		}
	})
	tree, err := mht.BuildFromMessages(cfg.Hash, cfg.Fanout, msgs)
	if err != nil {
		return nil, err
	}
	return &networkADS{ord: ord, tree: tree, msgs: msgs}, nil
}

// adsParallelThreshold is the node count below which tuple encoding runs
// inline — encoding is heavier per item than hashing, so fan-out pays off
// earlier than mht's default threshold.
const adsParallelThreshold = 512

// encodeTupleMsg builds the canonical leaf message of node v, encoding
// straight from the network's adjacency into one exactly-sized allocation.
func encodeTupleMsg(net *graph.CSR, v graph.NodeID, extraFn func(graph.NodeID) []byte, buf []byte) []byte {
	t := net.TupleOf(v)
	if extraFn != nil {
		t.Extra = extraFn(v)
	}
	return t.AppendBinary(slices.Grow(buf, t.EncodedSize()))
}

// patched returns a copy-on-write networkADS with the given leaf messages
// replaced and only the dirty Merkle paths rehashed. The receiver remains
// fully usable by concurrent readers (old providers keep serving it), and
// the result is byte-identical to rebuilding the ADS from the patched
// message set. dirtyMsgs is keyed by leaf position.
func (a *networkADS) patched(dirtyMsgs map[int][]byte) (*networkADS, int, error) {
	if len(dirtyMsgs) == 0 {
		return a, 0, nil
	}
	alg := a.tree.Alg()
	a.materialize()
	msgs := append([][]byte(nil), a.msgs...)
	dirtyLeaves := make(map[int][]byte, len(dirtyMsgs))
	digests := make([]byte, 0, len(dirtyMsgs)*alg.Size())
	for pos, msg := range dirtyMsgs {
		msgs[pos] = msg
		digests = alg.AppendSum(digests, msg)
		dirtyLeaves[pos] = digests[len(digests)-alg.Size():]
	}
	tree, err := a.tree.UpdateLeaves(dirtyLeaves)
	if err != nil {
		return nil, 0, err
	}
	return &networkADS{ord: a.ord, tree: tree, msgs: msgs}, len(dirtyMsgs), nil
}

// Root returns the tree root the owner signs.
func (a *networkADS) Root() []byte { return a.tree.Root() }

// Pos returns the leaf position of node v.
func (a *networkADS) Pos(v graph.NodeID) int { return a.ord.Pos[v] }

// Records assembles the wire records (position + bytes) for a node set, in
// the set's order.
func (a *networkADS) Records(nodes []graph.NodeID) []tupleRecord {
	recs := make([]tupleRecord, 0, len(nodes))
	for _, v := range nodes {
		recs = append(recs, tupleRecord{Pos: uint32(a.ord.Pos[v]), Bytes: a.msg(a.ord.Pos[v])})
	}
	return recs
}

// leafSet returns the Merkle leaf positions of a node set (any order,
// duplicates tolerated) ascending and de-duplicated, in s's Merkle index
// buffer: one pass sets them in s's position bitset, one walk over the
// words it touched reads them back and clears them. No comparison sort
// runs, here or in the Merkle fold that takes the positions.
func (a *networkADS) leafSet(s *queryScratch, nodes []graph.NodeID) []int {
	words := (len(a.ord.Seq) + 63) / 64
	if len(s.leaves) < words {
		s.leaves = make([]uint64, words)
	}
	set, pos := s.leaves, a.ord.Pos
	lo, hi := words, -1
	for _, v := range nodes {
		p := pos[v]
		w := p / 64
		set[w] |= 1 << (p % 64)
		lo, hi = min(lo, w), max(hi, w)
	}
	idx := s.prove.Indices(len(nodes))[:0]
	for w := lo; w <= hi; w++ {
		for b := set[w]; b != 0; b &= b - 1 {
			idx = append(idx, w*64+bits.TrailingZeros64(b))
		}
		set[w] = 0
	}
	return idx
}

// Prove builds the integrity proof for a node set (any order, duplicates
// tolerated). Hot paths use ProveWith instead.
func (a *networkADS) Prove(nodes []graph.NodeID) (*mht.Proof, error) {
	s := &queryScratch{}
	return a.ProveWith(s, nodes)
}

// ProveWith is Prove against caller scratch: the leaf positions land in the
// Merkle fold's own working set already in order, so a steady-state query
// allocates only the returned proof.
func (a *networkADS) ProveWith(s *queryScratch, nodes []graph.NodeID) (*mht.Proof, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("core: no nodes to prove")
	}
	return a.tree.ProveWith(&s.prove, a.leafSet(s, nodes))
}

// ProveCanonical proves a node set gathered in any order (LDM's and HYP's
// include sets) in its canonical form: the records in leaf order,
// de-duplicated, and the Merkle proof over the same positions. A given
// (method, vs, vt) query therefore always yields one byte-identical wire
// encoding — the property the serving layer's proof cache relies on.
func (a *networkADS) ProveCanonical(s *queryScratch, nodes []graph.NodeID) ([]tupleRecord, *mht.Proof, error) {
	if len(nodes) == 0 {
		return nil, nil, fmt.Errorf("core: no nodes to prove")
	}
	idx := a.leafSet(s, nodes)
	recs := make([]tupleRecord, len(idx))
	for i, p := range idx {
		recs[i] = tupleRecord{Pos: uint32(p), Bytes: a.msg(p)}
	}
	proof, err := a.tree.ProveWith(&s.prove, idx) // folds idx in place: records first
	return recs, proof, err
}
