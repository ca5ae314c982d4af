package core

import (
	"bytes"
	"fmt"
	"math"

	"github.com/authhints/spv/internal/digest"
	"github.com/authhints/spv/internal/geom"
	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/hints/landmark"
	"github.com/authhints/spv/internal/hiti"
	"github.com/authhints/spv/internal/mbt"
	"github.com/authhints/spv/internal/mht"
	"github.com/authhints/spv/internal/sp"
)

// This file is the reference verifier: the map-based client this package
// shipped before the tuple table — one map per fact (node → tuple, leaf →
// digest, (level, index) → digest, node → distance), a map-indexed heap, an
// allocation wherever one is convenient — kept, in tests only, as the slow
// obviously-correct oracle the fast path is judged against
// (TestVerifyMatchesReference). It shares no verification code with the
// production path: its own record parser, its own Merkle reconstruction
// (down to the grouping arithmetic), its own searches.
//
// It differs from the shipped map-based verifier in the two places that
// verifier was unsound, where it states the rule the table enforces:
// a proof is a set (a repeated node or leaf position is malformed, rather
// than silently skipped after its annotation was registered), and every
// digest a proof supplies must be folded into the root (an entry may not
// stand in for a subtree the client holds leaves of).

// refVerify verifies one proof the slow way; nil means authentic and
// optimal.
func refVerify(v SigVerifier, vs, vt graph.NodeID, pr Proof) error {
	switch p := pr.(type) {
	case *DIJProof:
		if p == nil || p.MHT == nil {
			return reject(fmt.Errorf("%w: missing parts", ErrMalformedProof))
		}
		parsed, err := refParse(p.MHT.Alg, p.Tuples, nil)
		if err != nil {
			return reject(err)
		}
		if err := refTupleRoot(parsed, p.MHT, dijSigCtx, p.RootSig, v); err != nil {
			return err
		}
		claimed, err := refClaimedPath(parsed.tuples, p.Path, vs, vt, p.Dist)
		if err != nil {
			return err
		}
		recomputed, err := refDijkstra(parsed.tuples, vs, vt, claimed)
		if err != nil {
			return reject(err)
		}
		return checkOptimal(recomputed, claimed)

	case *FULLProof:
		if p == nil || p.DistVO == nil || p.MHT == nil {
			return reject(fmt.Errorf("%w: missing parts", ErrMalformedProof))
		}
		i, j := p.DistVO.Entry.Key.Split()
		if graph.NodeID(i) != vs || graph.NodeID(j) != vt {
			return reject(fmt.Errorf("%w: distance entry is for (%d, %d)", ErrPathMismatch, i, j))
		}
		if p.DistVO.Row == nil || p.DistVO.Top == nil {
			return reject(fmt.Errorf("%w: forest proof missing parts", ErrIncompleteProof))
		}
		leaf := p.DistVO.Row.Alg.Sum(p.DistVO.Entry.AppendBinary(nil))
		rowRoot, err := refReconstruct(p.DistVO.Row, map[int][]byte{int(j): leaf})
		if err != nil {
			return reject(fmt.Errorf("%w: %v", ErrIncompleteProof, err))
		}
		distRoot, err := refReconstruct(p.DistVO.Top, map[int][]byte{int(i): rowRoot})
		if err != nil {
			return reject(fmt.Errorf("%w: %v", ErrIncompleteProof, err))
		}
		if v.Verify(append(append([]byte(nil), fullDistCtx...), distRoot...), p.DistSig) != nil {
			return reject(ErrBadSignature)
		}
		parsed, err := refParse(p.MHT.Alg, p.Tuples, nil)
		if err != nil {
			return reject(err)
		}
		if err := refTupleRoot(parsed, p.MHT, fullNetCtx, p.NetSig, v); err != nil {
			return err
		}
		claimed, err := refClaimedPath(parsed.tuples, p.Path, vs, vt, p.Dist)
		if err != nil {
			return err
		}
		return checkOptimal(p.DistVO.Entry.Value, claimed)

	case *LDMProof:
		if p == nil || p.MHT == nil {
			return reject(fmt.Errorf("%w: missing parts", ErrMalformedProof))
		}
		if p.Params.C <= 0 || p.Params.Bits <= 0 || p.Params.Bits > 30 ||
			p.Params.Lambda <= 0 || math.IsNaN(p.Params.Lambda) || math.IsInf(p.Params.Lambda, 0) {
			return reject(fmt.Errorf("%w: bad hint parameters %+v", ErrMalformedProof, p.Params))
		}
		resolver := landmark.NewResolver(p.Params)
		parsed, err := refParse(p.MHT.Alg, p.Tuples, func(t *graph.Tuple, rest []byte) (int, error) {
			payload, n, err := landmark.DecodePayload(rest, p.Params.C, p.Params.Bits)
			if err != nil {
				return 0, err
			}
			resolver.Add(t.ID, payload)
			return n, nil
		})
		if err != nil {
			return reject(err)
		}
		if err := refTupleRoot(parsed, p.MHT, ldmSigCtx(p.Params), p.RootSig, v); err != nil {
			return err
		}
		claimed, err := refClaimedPath(parsed.tuples, p.Path, vs, vt, p.Dist)
		if err != nil {
			return err
		}
		recomputed, err := refAStar(parsed.tuples, vs, vt, resolver.LB, claimed)
		if err != nil {
			return reject(err)
		}
		return checkOptimal(recomputed, claimed)

	case *HYPProof:
		if p == nil || p.MHT == nil {
			return reject(fmt.Errorf("%w: missing parts", ErrMalformedProof))
		}
		meta := make(map[graph.NodeID]refHypMeta)
		parsed, err := refParse(p.MHT.Alg, p.Tuples, func(t *graph.Tuple, rest []byte) (int, error) {
			cell, isBorder, err := hiti.DecodeExtra(rest)
			if err != nil {
				return 0, err
			}
			meta[t.ID] = refHypMeta{cell: cell, isBorder: isBorder}
			return hiti.ExtraSize, nil
		})
		if err != nil {
			return reject(err)
		}
		if err := refTupleRoot(parsed, p.MHT, hypNetCtx, p.NetSig, v); err != nil {
			return err
		}
		hyperW := make(map[mbt.Key]float64)
		if p.Hyper != nil {
			if p.Hyper.MHT == nil {
				return reject(fmt.Errorf("%w: hyper proof missing Merkle part", ErrIncompleteProof))
			}
			known := map[int][]byte{}
			for _, e := range p.Hyper.Entries {
				d := p.Hyper.MHT.Alg.Sum(e.Entry.AppendBinary(nil))
				if prev, dup := known[int(e.Index)]; dup && !bytes.Equal(prev, d) {
					return reject(fmt.Errorf("%w: conflicting entries at leaf %d", ErrIncompleteProof, e.Index))
				}
				known[int(e.Index)] = d
			}
			distRoot, err := refReconstruct(p.Hyper.MHT, known)
			if err != nil {
				return reject(fmt.Errorf("%w: %v", ErrIncompleteProof, err))
			}
			if v.Verify(append(append([]byte(nil), hypDistCtx...), distRoot...), p.DistSig) != nil {
				return reject(ErrBadSignature)
			}
			for _, e := range p.Hyper.Entries {
				hyperW[e.Key] = e.Value
			}
		}
		claimed, err := refClaimedPath(parsed.tuples, p.Path, vs, vt, p.Dist)
		if err != nil {
			return err
		}
		return refHypCoarse(parsed.tuples, meta, hyperW, vs, vt, claimed)
	}
	return fmt.Errorf("%w: reference verifier got proof type %T", ErrMalformedProof, pr)
}

type refParsed struct {
	tuples map[graph.NodeID]graph.Tuple
	known  map[int][]byte // leaf position → digest
}

// refParse decodes each record into a tuple, checking full consumption.
// parseExtra, when non-nil, is given the bytes after the base tuple and
// returns how many it consumed.
func refParse(alg digest.Alg, recs []tupleRecord, parseExtra func(t *graph.Tuple, rest []byte) (int, error)) (*refParsed, error) {
	out := &refParsed{tuples: map[graph.NodeID]graph.Tuple{}, known: map[int][]byte{}}
	for i, r := range recs {
		t, n, err := graph.DecodeTuple(r.Bytes, 0)
		if err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", ErrMalformedProof, i, err)
		}
		if _, dup := out.tuples[t.ID]; dup {
			return nil, fmt.Errorf("%w: node %d appears twice", ErrMalformedProof, t.ID)
		}
		if _, dup := out.known[int(r.Pos)]; dup {
			return nil, fmt.Errorf("%w: leaf position %d appears twice", ErrMalformedProof, r.Pos)
		}
		if parseExtra != nil {
			used, err := parseExtra(&t, r.Bytes[n:])
			if err != nil {
				return nil, fmt.Errorf("%w: record %d extra: %v", ErrMalformedProof, i, err)
			}
			n += used
		}
		if n != len(r.Bytes) {
			return nil, fmt.Errorf("%w: record %d has %d trailing bytes", ErrMalformedProof, i, len(r.Bytes)-n)
		}
		out.tuples[t.ID] = t
		out.known[int(r.Pos)] = alg.Sum(r.Bytes)
	}
	return out, nil
}

func refTupleRoot(p *refParsed, proof *mht.Proof, sigCtx, signature []byte, v SigVerifier) error {
	root, err := refReconstruct(proof, p.known)
	if err != nil {
		return reject(fmt.Errorf("%w: %v", ErrIncompleteProof, err))
	}
	if v.Verify(append(append([]byte(nil), sigCtx...), root...), signature) != nil {
		return reject(ErrBadSignature)
	}
	return nil
}

// refReconstruct folds leaves and entries to the root with one map per
// level. Level l of w positions splits into ⌈w/f⌉ groups as equal as
// possible, the first w mod groups one larger (the B⁺-style grouping of
// mht.Tree, restated here so the oracle owes the package under test
// nothing).
func refReconstruct(p *mht.Proof, known map[int][]byte) ([]byte, error) {
	f, n := int(p.Fanout), int(p.NumLeaves)
	if !p.Alg.Valid() || f < 2 || f > mht.MaxFanout || n <= 0 {
		return nil, fmt.Errorf("bad tree shape")
	}
	var widths []int
	for w := n; ; w = (w + f - 1) / f {
		widths = append(widths, w)
		if w == 1 {
			break
		}
	}
	have := make([]map[int][]byte, len(widths))
	for l := range have {
		have[l] = map[int][]byte{}
	}
	claim := func(l, i int, d []byte) error {
		if l >= len(widths) || i < 0 || i >= widths[l] || len(d) != p.Alg.Size() {
			return fmt.Errorf("claim (%d,%d) does not fit the tree", l, i)
		}
		if prev, ok := have[l][i]; ok && !bytes.Equal(prev, d) {
			return fmt.Errorf("conflicting digests at (%d,%d)", l, i)
		}
		have[l][i] = d
		return nil
	}
	for i, d := range known {
		if err := claim(0, i, d); err != nil {
			return nil, err
		}
	}
	for _, e := range p.Entries {
		if err := claim(int(e.Level), int(e.Index), e.Digest); err != nil {
			return nil, err
		}
	}
	for l := 0; l+1 < len(widths); l++ {
		w := widths[l]
		groups := (w + f - 1) / f
		base, rem := w/groups, w%groups
		big := rem * (base + 1) // positions below this sit in the larger groups
		parents := map[int]bool{}
		for c := range have[l] {
			if c < big {
				parents[c/(base+1)] = true
			} else {
				parents[rem+(c-big)/base] = true
			}
		}
		for g := range parents {
			first, size := g*(base+1), base+1
			if g >= rem {
				first, size = big+(g-rem)*base, base
			}
			var cat []byte
			for c := first; c < first+size; c++ {
				d, ok := have[l][c]
				if !ok {
					return nil, fmt.Errorf("group (%d,%d) is missing child %d", l+1, g, c)
				}
				cat = append(cat, d...)
			}
			if err := claim(l+1, g, p.Alg.Sum(cat)); err != nil {
				return nil, err
			}
		}
	}
	root, ok := have[len(widths)-1][0]
	if !ok {
		return nil, fmt.Errorf("nothing reaches the root")
	}
	return root, nil
}

func refClaimedPath(tuples map[graph.NodeID]graph.Tuple, path graph.Path, vs, vt graph.NodeID, claimed float64) (float64, error) {
	if len(path) < 2 || path.Source() != vs || path.Target() != vt {
		return 0, reject(fmt.Errorf("%w: endpoints", ErrPathMismatch))
	}
	sum := 0.0
	for i := 1; i < len(path); i++ {
		t, ok := tuples[path[i-1]]
		if !ok {
			return 0, reject(fmt.Errorf("%w: no tuple for node %d", ErrPathMismatch, path[i-1]))
		}
		w, ok := t.Weight(path[i])
		if !ok {
			return 0, reject(fmt.Errorf("%w: tuple %d has no edge to %d", ErrPathMismatch, path[i-1], path[i]))
		}
		sum += w
	}
	if !distEqual(sum, claimed) || math.IsNaN(claimed) {
		return 0, reject(fmt.Errorf("%w: claimed distance %g, path sums to %g", ErrPathMismatch, claimed, sum))
	}
	return sum, nil
}

func refDijkstra(tuples map[graph.NodeID]graph.Tuple, src, dst graph.NodeID, bound float64) (float64, error) {
	dist := map[graph.NodeID]float64{src: 0}
	done := map[graph.NodeID]bool{}
	h := newRefHeap()
	h.Push(src, 0)
	for h.Len() > 0 {
		v, d := h.Pop()
		if d > bound*(1+distTolerance) {
			break
		}
		done[v] = true
		t, ok := tuples[v]
		if !ok {
			return 0, fmt.Errorf("%w: node %d required by Dijkstra re-run is missing", ErrIncompleteProof, v)
		}
		for _, e := range t.Adj {
			if done[e.To] {
				continue
			}
			nd := d + e.W
			if old, seen := dist[e.To]; !seen || nd < old {
				if !seen {
					h.Push(e.To, nd)
				} else {
					h.DecreaseKey(e.To, nd)
				}
				dist[e.To] = nd
			}
		}
	}
	if d, ok := dist[dst]; ok && done[dst] {
		return d, nil
	}
	return sp.Unreachable, nil
}

func refAStar(tuples map[graph.NodeID]graph.Tuple, src, dst graph.NodeID,
	lb func(u, v graph.NodeID) (float64, error), bound float64) (float64, error) {
	lbSrc, err := lb(src, dst)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrIncompleteProof, err)
	}
	g := map[graph.NodeID]float64{src: 0}
	h := newRefHeap()
	h.Push(src, lbSrc)
	best := sp.Unreachable
	slack := bound * (1 + distTolerance)
	for h.Len() > 0 {
		if best < sp.Unreachable && h.Peek() >= best {
			break
		}
		v, f := h.Pop()
		if f > slack {
			break
		}
		if v == dst {
			best = g[v]
			continue
		}
		t, ok := tuples[v]
		if !ok {
			return 0, fmt.Errorf("%w: node %d required by A* re-run is missing", ErrIncompleteProof, v)
		}
		for _, e := range t.Adj {
			nd := g[v] + e.W
			if old, seen := g[e.To]; seen && nd >= old {
				continue
			}
			if _, ok := tuples[e.To]; !ok {
				return 0, fmt.Errorf("%w: neighbor %d of expanded node %d is missing", ErrIncompleteProof, e.To, v)
			}
			lbN, err := lb(e.To, dst)
			if err != nil {
				return 0, fmt.Errorf("%w: %v", ErrIncompleteProof, err)
			}
			g[e.To] = nd
			if fN := nd + lbN; h.Contains(e.To) {
				h.DecreaseKey(e.To, fN)
			} else {
				h.Push(e.To, fN)
			}
		}
	}
	if best == sp.Unreachable {
		if d, ok := g[dst]; ok {
			return d, nil
		}
	}
	return best, nil
}

type refHypMeta struct {
	cell     geom.CellID
	isBorder bool
}

func refCellDijkstra(tuples map[graph.NodeID]graph.Tuple, meta map[graph.NodeID]refHypMeta, src graph.NodeID) (map[graph.NodeID]float64, error) {
	cell := meta[src].cell
	dist := map[graph.NodeID]float64{src: 0}
	done := map[graph.NodeID]bool{}
	h := newRefHeap()
	h.Push(src, 0)
	for h.Len() > 0 {
		v, d := h.Pop()
		done[v] = true
		for _, e := range tuples[v].Adj {
			if done[e.To] {
				continue
			}
			nm, present := meta[e.To]
			if !present {
				if !meta[v].isBorder {
					return nil, fmt.Errorf("%w: non-border node %d has missing neighbor %d", ErrIncompleteProof, v, e.To)
				}
				continue
			}
			if nm.cell != cell {
				continue
			}
			nd := d + e.W
			if old, seen := dist[e.To]; !seen || nd < old {
				if !seen {
					h.Push(e.To, nd)
				} else {
					h.DecreaseKey(e.To, nd)
				}
				dist[e.To] = nd
			}
		}
	}
	for v := range dist {
		if !done[v] {
			delete(dist, v)
		}
	}
	return dist, nil
}

func refHypCoarse(tuples map[graph.NodeID]graph.Tuple, meta map[graph.NodeID]refHypMeta,
	hyperW map[mbt.Key]float64, vs, vt graph.NodeID, claimed float64) error {
	ms, ok := meta[vs]
	if !ok {
		return reject(fmt.Errorf("%w: no tuple for source %d", ErrIncompleteProof, vs))
	}
	mt, ok := meta[vt]
	if !ok {
		return reject(fmt.Errorf("%w: no tuple for target %d", ErrIncompleteProof, vt))
	}
	dS, err := refCellDijkstra(tuples, meta, vs)
	if err != nil {
		return reject(err)
	}
	dT, err := refCellDijkstra(tuples, meta, vt)
	if err != nil {
		return reject(err)
	}
	coarse := math.MaxFloat64
	if d, ok := dS[vt]; ok && ms.cell == mt.cell {
		coarse = d
	}
	for bs, ds := range dS {
		if !meta[bs].isBorder {
			continue
		}
		for bt, dt := range dT {
			if !meta[bt].isBorder {
				continue
			}
			w, ok := hyperW[hiti.HyperKey(bs, bt, meta[bs].cell, meta[bt].cell)]
			if !ok {
				return reject(fmt.Errorf("%w: hyper-edge (%d, %d) missing from proof", ErrIncompleteProof, bs, bt))
			}
			if w == sp.Unreachable {
				continue
			}
			if c := ds + w + dt; c < coarse {
				coarse = c
			}
		}
	}
	if coarse == math.MaxFloat64 {
		return reject(fmt.Errorf("%w: coarse graph does not connect source and target", ErrIncompleteProof))
	}
	return checkOptimal(coarse, claimed)
}

// refHeap is the map-indexed binary min-heap the map-based searches ran
// on: same ordering and swap discipline as sp.Heap, positions in a map.
type refHeap struct {
	items []refHeapItem
	pos   map[graph.NodeID]int
}

type refHeapItem struct {
	node graph.NodeID
	key  float64
}

func newRefHeap() *refHeap { return &refHeap{pos: map[graph.NodeID]int{}} }

func (h *refHeap) Len() int      { return len(h.items) }
func (h *refHeap) Peek() float64 { return h.items[0].key }

func (h *refHeap) Contains(node graph.NodeID) bool {
	_, ok := h.pos[node]
	return ok
}

func (h *refHeap) Push(node graph.NodeID, key float64) {
	h.items = append(h.items, refHeapItem{node, key})
	h.pos[node] = len(h.items) - 1
	h.up(len(h.items) - 1)
}

func (h *refHeap) Pop() (graph.NodeID, float64) {
	top := h.items[0]
	last := len(h.items) - 1
	h.swap(0, last)
	h.items = h.items[:last]
	delete(h.pos, top.node)
	if last > 0 {
		h.down(0)
	}
	return top.node, top.key
}

func (h *refHeap) DecreaseKey(node graph.NodeID, key float64) {
	i, ok := h.pos[node]
	if !ok || h.items[i].key <= key {
		return
	}
	h.items[i].key = key
	h.up(i)
}

func (h *refHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].key <= h.items[i].key {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *refHeap) down(i int) {
	for n := len(h.items); ; {
		l, r, small := 2*i+1, 2*i+2, i
		if l < n && h.items[l].key < h.items[small].key {
			small = l
		}
		if r < n && h.items[r].key < h.items[small].key {
			small = r
		}
		if small == i {
			return
		}
		h.swap(i, small)
		i = small
	}
}

func (h *refHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pos[h.items[i].node] = i
	h.pos[h.items[j].node] = j
}
