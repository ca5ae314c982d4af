package core

import (
	"bytes"
	"fmt"
	"math"
	"sync"

	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/hints/landmark"
	"github.com/authhints/spv/internal/hiti"
	"github.com/authhints/spv/internal/mbt"
	"github.com/authhints/spv/internal/par"
	"github.com/authhints/spv/internal/sp"
)

// This file is the owner's incremental update pipeline: edge re-weighting
// without a full re-outsource. The flow is
//
//	probe → re-weight → patch → re-sign
//
// ApplyUpdates copies the current network's edge array once per batch (the
// offsets and coordinates stay shared), re-weights the copy update by
// update, and publishes it as the next epoch's network at the end. Per
// update it runs two probe Dijkstras from the edge's endpoints over the
// copy as it stands before that update. Because the network is undirected,
// those two rows give dist(s, u) and dist(s, v) for *every* source s, which
// is exactly what the relaxation test needs to decide whether s's distances
// can change at all: an edge (u, v) is irrelevant for s when its relaxation
// fails — with a safety margin — under both the old and new weight. For
// irrelevant sources a fresh Dijkstra performs the identical sequence of
// successful relaxations, so its output row is *bitwise* unchanged; that is
// the property that lets each method's Patch re-run only dirty rows and
// still produce roots, signatures and proofs byte-identical to a
// from-scratch re-outsource (pinning LDM's landmark placement, which is a
// selection choice re-made only on full re-outsource).
//
// Patches are copy-on-write: the returned provider shares every
// clean Merkle digest, hint row and message with the old one, which keeps
// serving concurrently until the serving layer hot-swaps (internal/serve).

// EdgeUpdate re-weights one existing edge; the adjacency structure (and
// hence orderings, cells and border sets) never changes.
type EdgeUpdate struct {
	U graph.NodeID `json:"u"`
	V graph.NodeID `json:"v"`
	W float64      `json:"w"`
}

// UpdateBatch is the owner-side outcome of ApplyUpdates: the post-update
// network plus the dirty sets every method's Patch needs. It stays valid
// until the next ApplyUpdates call.
type UpdateBatch struct {
	owner   *Owner
	newView *graph.CSR
	epoch   int64
	oldView *graph.CSR // the network before the batch — what Rollback restores

	dirty    []graph.NodeID // endpoints of actually-changed edges, deduped
	affected []bool         // affected[s] ⇒ distances from s may have changed
	srcs     int            // count of affected sources

	// fast is the bridge resummation plan, set only for single-update
	// batches whose edge is a bridge; see bridgeFast.
	fast *bridgeFast
}

// bridgeFast is the single-update fast path for bridge edges — the common
// case on sparse road networks, and the worst case for row-granular
// patching: re-weighting a bridge changes distances from *every* source,
// so re-running rows would cost as much as a rebuild. But across a bridge
// the shortest-path trees on each side are fixed, so every stored row can
// be *resummed*: values on the source's side are untouched, and values
// across the bridge recompute as path-order additions along the probe's
// retained parent tree — O(|far side|) adds per row, no searches, and
// bitwise what a fresh Dijkstra computes (a float path sum depends only on
// its own path; near-ties are not a concern because with the bridge cut
// there are no alternative crossings).
type bridgeFast struct {
	u, v graph.NodeID
	wNew float64
	inF  []bool // x is on v's side of the bridge
	// view is the batch's network, read for adjacency and non-bridge
	// weights. The lazy near-side walk may run after the bridge is
	// re-weighted — harmless, because the masked search never reads the
	// bridge edge and a single-update batch changes nothing else.
	view *graph.CSR

	// Topological walks of each side (parents precede children): pX[k] is
	// orderX[k]'s shortest-path-tree parent and wX[k] the connecting edge
	// weight (the bridge itself carries wNew). The far side (orderF,
	// rooted at v) is built eagerly by one Dijkstra restricted to that
	// side; the near side (orderC, rooted at u) is built only if a stored
	// row's source turns out to live on the far side.
	orderF, orderC []graph.NodeID
	pF, pC         []graph.NodeID
	wF, wC         []float64
	nearBuilt      bool
}

// walk returns the resummation walk for a row from src: the side of the
// bridge src does not live on, parents first, and base, the bridge
// endpoint on src's side whose stored value the walk starts from. Not
// safe for concurrent use (the near-side walk builds lazily).
func (f *bridgeFast) walk(src graph.NodeID) (order, parent []graph.NodeID, weights []float64, base graph.NodeID) {
	if f.inF[src] {
		f.ensureNear()
		return f.orderC, f.pC, f.wC, f.v
	}
	return f.orderF, f.pF, f.wF, f.u
}

// resum rewrites row (a full distance row from src) to the post-update
// network: the far side of the bridge re-accumulates along its unchanged
// tree, the near side keeps its bytes.
func (f *bridgeFast) resum(src graph.NodeID, row []float64) {
	order, parent, weights, base := f.walk(src)
	if row[base] == sp.Unreachable {
		return // src is in a component the bridge does not serve
	}
	for k, x := range order {
		row[x] = row[parent[k]] + weights[k]
	}
}

// resumPaged is resum over a paged HYP row: writing through r, it copies
// only the pages whose values move.
func (f *bridgeFast) resumPaged(src graph.NodeID, r *hiti.RowWriter) {
	order, parent, weights, base := f.walk(src)
	if r.At(base) == sp.Unreachable {
		return
	}
	for k, x := range order {
		r.Set(x, r.At(parent[k])+weights[k])
	}
}

// maskedView is a CSR with one edge hidden — searching it from a bridge
// endpoint explores exactly that endpoint's side, which is what makes the
// fast path's tree construction O(|side|) instead of O(|V|).
type maskedView struct {
	view       graph.View
	u, v       graph.NodeID
	uAdj, vAdj []graph.Edge
}

func newMaskedView(view graph.View, u, v graph.NodeID) *maskedView {
	m := &maskedView{view: view, u: u, v: v}
	for _, e := range view.Neighbors(u) {
		if e.To != v {
			m.uAdj = append(m.uAdj, e)
		}
	}
	for _, e := range view.Neighbors(v) {
		if e.To != u {
			m.vAdj = append(m.vAdj, e)
		}
	}
	return m
}

func (m *maskedView) NumNodes() int { return m.view.NumNodes() }

func (m *maskedView) Neighbors(x graph.NodeID) []graph.Edge {
	switch x {
	case m.u:
		return m.uAdj
	case m.v:
		return m.vAdj
	}
	return m.view.Neighbors(x)
}

// bridgePlan returns the resummation plan for edge (u, v), or nil if the
// edge is not a bridge. Bridge-ness is topology-only, so the owner's
// Tarjan set (computed once, cached) answers membership; the far side's
// shortest-path tree then comes from one Dijkstra over the masked view,
// which explores only that side.
func (o *Owner) bridgePlan(view *graph.CSR, u, v graph.NodeID, wNew float64) *bridgeFast {
	side, ok := o.bridgeSet()[graph.EdgeKey(u, v)]
	if !ok {
		return nil
	}
	// Orient the far side F to the smaller cut side: the eager tree walk
	// and the per-row resum writes are both O(|F|), and most stored rows'
	// sources sit on the bigger side.
	far, near := side.Node, u
	if far == u {
		near = v
	}
	if int(side.Size)*2 > view.NumNodes() {
		far, near = near, far
	}
	f := &bridgeFast{u: near, v: far, wNew: wNew, inF: make([]bool, view.NumNodes()), view: view}
	ws := sp.AcquireWorkspace(view.NumNodes())
	_, pv := ws.DijkstraRowTree(newMaskedView(view, near, far), far, nil, nil)
	sp.ReleaseWorkspace(ws)
	f.orderF, f.pF, f.wF = treeWalk(view, pv, far, near, wNew, f.inF)
	return f
}

// ensureNear lazily builds the near-side walk — needed only when a stored
// row's source lives on the far side (a landmark or border behind the
// bridge).
func (f *bridgeFast) ensureNear() {
	if f.nearBuilt {
		return
	}
	f.nearBuilt = true
	ws := sp.AcquireWorkspace(f.view.NumNodes())
	_, pu := ws.DijkstraRowTree(newMaskedView(f.view, f.u, f.v), f.u, nil, nil)
	sp.ReleaseWorkspace(ws)
	f.orderC, f.pC, f.wC = treeWalk(f.view, pu, f.u, f.v, f.wNew, nil)
}

// treeWalk linearizes the shortest-path tree in par (rooted at root,
// everything else Invalid-parented or unreached) into a parents-first
// order with per-node parents and connecting edge weights; the root's
// resum parent is crossParent over the bridge at weight wNew. marks, when
// non-nil, records membership.
func treeWalk(view *graph.CSR, par []graph.NodeID, root, crossParent graph.NodeID, wNew float64, marks []bool) (order, p []graph.NodeID, w []float64) {
	children := make([][]graph.NodeID, len(par))
	for x, pp := range par {
		if pp != graph.Invalid {
			children[pp] = append(children[pp], graph.NodeID(x))
		}
	}
	order = append(order, root)
	if marks != nil {
		marks[root] = true
	}
	for k := 0; k < len(order); k++ {
		for _, c := range children[order[k]] {
			if marks != nil {
				marks[c] = true
			}
			order = append(order, c)
		}
	}
	p = make([]graph.NodeID, len(order))
	w = make([]float64, len(order))
	p[0], w[0] = crossParent, wNew // the bridge edge itself
	for k := 1; k < len(order); k++ {
		x := order[k]
		p[k] = par[x]
		w[k], _ = view.EdgeWeight(p[k], x) // parents always connect to children
	}
	return order, p, w
}

// Epoch returns the owner epoch this batch produced.
func (b *UpdateBatch) Epoch() int64 { return b.epoch }

// AffectedSources returns how many sources the probe marked dirty — the
// number of Dijkstra rows any full-row structure must re-run.
func (b *UpdateBatch) AffectedSources() int { return b.srcs }

// DirtyNodes returns the endpoints whose tuples changed.
func (b *UpdateBatch) DirtyNodes() []graph.NodeID { return b.dirty }

// PatchStats reports what one provider patch did.
type PatchStats struct {
	Method Method
	// RowsRecomputed counts hint/distance Dijkstra rows re-run.
	RowsRecomputed int
	// RowsResummed counts rows patched by bridge resummation (one addition
	// per node on the far side of the bridge) instead of a Dijkstra re-run.
	RowsResummed int
	// LeavesPatched counts network-ADS leaves rewritten.
	LeavesPatched int
	// DistLeavesPatched counts distance-ADS leaves rewritten (FULL row
	// roots, HYP hyper-edge entries).
	DistLeavesPatched int
	// RowPagesWritten counts the HYP full-row pages (hiti.PageLen values
	// each) the patch allocated; every other page is shared with the old
	// provider. The first update's upgrade allocates them all.
	RowPagesWritten int
	// DirtyLeaves lists the rewritten network-ADS leaf positions — the
	// serving layer invalidates exactly the cached proofs that cover them.
	DirtyLeaves []int
	// StaleCover lists leaf positions whose tuple bytes did NOT change but
	// whose derived proof data did: HYP borders whose rows were re-run — a
	// cached proof covering such a border carries outdated hyper-edge
	// values even though every tuple it shows is current.
	StaleCover []int
	// DirtyRows lists FULL sources whose distance row root changed; cached
	// FULL proofs whose endpoints include such a source are stale.
	DirtyRows []int
}

// ApplyUpdates validates and applies a batch of edge re-weightings to the
// owner's network and computes the dirty sets for incremental provider
// patching. Updates are applied in order; each one's probe runs against the
// network state it observes, so the accumulated affected set covers every
// source whose distances could have changed at any step.
//
// The batch re-weights a private copy of the network's edge array and
// publishes it as the owner's next epoch only at the end; the CSR the
// owner held before — and every provider searching it — never changes.
// ApplyUpdates must not run concurrently with Outsource or with another
// ApplyUpdates (the serving layer's Deployment serializes updates).
func (o *Owner) ApplyUpdates(ups []EdgeUpdate) (*UpdateBatch, error) {
	if len(ups) == 0 {
		return nil, fmt.Errorf("core: empty update batch")
	}
	old := o.Graph()
	// Validate the whole batch before re-weighting anything: a bad update
	// mid-batch must not publish a half-applied network.
	for _, up := range ups {
		if _, ok := old.EdgeWeight(up.U, up.V); !ok {
			return nil, fmt.Errorf("%w: no edge (%d, %d)", graph.ErrBadEdge, up.U, up.V)
		}
		if up.W < 0 || math.IsNaN(up.W) || math.IsInf(up.W, 0) {
			return nil, fmt.Errorf("%w: weight %v", graph.ErrBadEdge, up.W)
		}
	}
	n := old.NumNodes()
	b := &UpdateBatch{owner: o, affected: make([]bool, n), oldView: old}
	net := old // becomes the batch's private copy at the first real change
	seen := make(map[graph.NodeID]bool, 2*len(ups))
	var du, dv []float64
	for _, up := range ups {
		oldW, _ := net.EdgeWeight(up.U, up.V)
		if up.W == oldW {
			continue // no-op: nothing dirtied
		}
		if net == old {
			net = old.WithPrivateEdges()
		}
		// Probes and plans read net before this step re-weights it.
		b.fast = nil
		if len(ups) == 1 {
			// A lone bridge update resums rows instead of re-running them
			// (multi-update batches fall back to row granularity — their
			// resum bases would be mid-sequence states).
			b.fast = o.bridgePlan(net, up.U, up.V, up.W)
		}
		if b.fast != nil {
			// A bridge shifts every crossing distance, so every row is
			// dirty; no probes needed (resum skips unreachable sources).
			for s := range b.affected {
				b.affected[s] = true
			}
		} else {
			// Probe: two endpoint Dijkstras over the pre-step network
			// bound which sources the re-weighting can matter to.
			w := sp.AcquireWorkspace(n)
			du = w.DijkstraRow(net, up.U, du)
			dv = w.DijkstraRow(net, up.V, dv)
			sp.ReleaseWorkspace(w)
			markAffected(b.affected, du, dv, math.Min(oldW, up.W))
		}
		if _, err := net.SetEdgeWeight(up.U, up.V, up.W); err != nil {
			return nil, err
		}
		for _, v := range [2]graph.NodeID{up.U, up.V} {
			if !seen[v] {
				seen[v] = true
				b.dirty = append(b.dirty, v)
			}
		}
	}
	for _, a := range b.affected {
		if a {
			b.srcs++
		}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if net != old {
		// All no-ops publish nothing and keep the epoch: callers see an
		// empty batch whose patches return their providers untouched.
		o.net = net
		o.epoch++
	}
	b.newView, b.epoch = o.net, o.epoch
	return b, nil
}

// Rollback returns the owner to where it stood before this batch — network
// and epoch — for a caller whose provider patches failed and who therefore
// swaps nothing. Only the owner's latest batch may be rolled back; a second
// call is a no-op, and providers patched from the batch are to be dropped.
func (b *UpdateBatch) Rollback() {
	o := b.owner
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.net == b.newView && b.newView != b.oldView {
		o.net, o.epoch = b.oldView, b.epoch-1
	}
}

// markAffected ORs in the relaxation test: source s is possibly affected
// unless relaxing (u, v) fails by more than the float-drift margin under
// the smaller of the old and new weights (failing for min fails for both).
// The margin absorbs (a) last-ulp differences between probe rows (summed
// from u's and v's shortest path trees) and a source's own row, and (b)
// near-ties whose tie-break could flip — both re-run rather than risked.
func markAffected(affected []bool, du, dv []float64, wmin float64) {
	par.Chunks(len(affected), 0, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			if affected[s] {
				continue
			}
			ds, dt := du[s], dv[s]
			if ds == sp.Unreachable || dt == sp.Unreachable {
				continue // s is in another component than the edge
			}
			m := distTolerance * (1 + ds + dt)
			if ds+wmin <= dt+m || dt+wmin <= ds+m {
				affected[s] = true
			}
		}
	})
}

// payloadChanged reports whether node v's LDM payload bytes differ
// between two hint derivations over the same landmark placement: the
// compression assignment (reference + ε) or, for vector carriers, any
// quantized unit.
func payloadChanged(old, new *landmark.Hints, v graph.NodeID) bool {
	if old.Ref[v] != new.Ref[v] || old.Eps[v] != new.Eps[v] {
		return true
	}
	if new.Ref[v] != v {
		return false // compressed: payload is (ref, ε) only
	}
	a, b := old.Units[v], new.Units[v]
	for i := range a {
		if a[i] != b[i] {
			return true
		}
	}
	return false
}

// dirtyTupleMsgs re-encodes the batch's dirty nodes' tuples against the
// post-update network and returns the leaf messages that actually changed
// — compared with the provider's own leaves, which its own (pre-update)
// network encodes.
func (b *UpdateBatch) dirtyTupleMsgs(a *networkADS, extraFn func(graph.NodeID) []byte) map[int][]byte {
	out := make(map[int][]byte, len(b.dirty))
	for _, v := range b.dirty {
		pos := a.ord.Pos[v]
		msg := encodeTupleMsg(b.newView, v, extraFn, nil)
		if !bytes.Equal(msg, a.msg(pos)) {
			out[pos] = msg
		}
	}
	return out
}

func dirtyPositions(m map[int][]byte) []int {
	out := make([]int, 0, len(m))
	for pos := range m {
		out = append(out, pos)
	}
	return out
}

// Patch derives an updated DIJ provider: only the endpoints' tuples
// changed, so the patch rewrites at most 2·|batch| leaves and re-signs.
func (dijImpl) Patch(b *UpdateBatch, prov Provider) (Provider, *PatchStats, error) {
	p, err := providerAs[*DIJProvider](DIJ, prov)
	if err != nil {
		return nil, nil, err
	}
	st := &PatchStats{Method: DIJ}
	dirtyMsgs := b.dirtyTupleMsgs(p.ads, nil)
	ads, k, err := p.ads.patched(dirtyMsgs)
	if err != nil {
		return nil, nil, err
	}
	st.LeavesPatched = k
	st.DirtyLeaves = dirtyPositions(dirtyMsgs)
	rootSig := p.rootSig
	if k > 0 {
		if rootSig, err = b.owner.signRoot(dijSigCtx, ads.Root()); err != nil {
			return nil, nil, err
		}
	}
	return &DIJProvider{providerBase{b.newView, ads}, rootSig}, st, nil
}

// Patch derives an updated LDM provider: re-run only the affected
// landmarks' rows, re-derive quantization and compression from the patched
// row set (cheap, O(n·c)), and rewrite exactly the leaves whose messages
// changed. Landmark placement is pinned — re-selection is a full
// re-outsource decision, and the pinned set keeps hints exact (rows are
// true distances in the updated network).
func (ldmImpl) Patch(b *UpdateBatch, prov Provider) (Provider, *PatchStats, error) {
	p, err := providerAs[*LDMProvider](LDM, prov)
	if err != nil {
		return nil, nil, err
	}
	st := &PatchStats{Method: LDM}
	h := p.hints
	if h.Dists == nil {
		return nil, nil, fmt.Errorf("core: LDM provider predates row retention; re-outsource instead")
	}
	var rows []int
	if b.fast == nil {
		for i, l := range h.Landmarks {
			if b.affected[l] {
				rows = append(rows, i)
			}
		}
		st.RowsRecomputed = len(rows)
	}

	nh := h
	var dirtyMsgs map[int][]byte
	switch {
	case b.fast == nil && len(rows) == 0:
		// No landmark row can have changed ⇒ λ, units and compression are
		// untouched; only the endpoints' adjacency bytes differ.
		dirtyMsgs = b.dirtyTupleMsgs(p.ads, func(v graph.NodeID) []byte {
			return h.PayloadOf(v).AppendBinary(h.Bits, nil)
		})
	default:
		dists := append([][]float64(nil), h.Dists...)
		if b.fast != nil {
			// Bridge: every row resums with O(|V|) additions, no searches.
			for i := range dists {
				nr := append([]float64(nil), dists[i]...)
				b.fast.resum(h.Landmarks[i], nr)
				dists[i] = nr
			}
			st.RowsResummed = len(dists)
		} else {
			par.Work(len(rows), func(k int) {
				i := rows[k]
				w := sp.AcquireWorkspace(b.newView.NumNodes())
				defer sp.ReleaseWorkspace(w)
				dists[i] = w.DijkstraRow(b.newView, h.Landmarks[i], nil)
			})
		}
		if h.QuantizationUnchanged(dists) {
			// Distances moved by less than half a quantization step: every
			// unit, compression assignment and payload byte is reproduced
			// exactly, so only the endpoints' adjacency bytes differ.
			nh = h.WithRows(dists)
			dirtyMsgs = b.dirtyTupleMsgs(p.ads, func(v graph.NodeID) []byte {
				return nh.PayloadOf(v).AppendBinary(nh.Bits, nil)
			})
			break
		}
		nh, _ = landmark.FromRows(h.Landmarks, dists, landmark.Options{
			C:           len(h.Landmarks),
			Bits:        h.Bits,
			Xi:          b.owner.cfg.Xi,
			FixedLambda: h.Lambda, // λ is pinned across updates
		})
		// Quantization moved: re-encode exactly the nodes whose derived
		// payload state (vector units, compression assignment) changed,
		// plus the endpoints' adjacency — a value compare is far cheaper
		// than encode-and-hash for the untouched majority.
		a := p.ads
		a.materialize() // the compare below walks the whole message table
		n := len(a.msgs)
		endpoint := make(map[graph.NodeID]bool, len(b.dirty))
		for _, v := range b.dirty {
			endpoint[v] = true
		}
		dirtyMsgs = make(map[int][]byte)
		var mu sync.Mutex
		par.Chunks(n, adsParallelThreshold, func(lo, hi int) {
			local := make(map[int][]byte)
			for pos := lo; pos < hi; pos++ {
				v := a.ord.Seq[pos]
				if !endpoint[v] && !payloadChanged(h, nh, v) {
					continue
				}
				msg := encodeTupleMsg(b.newView, v, func(v graph.NodeID) []byte {
					return nh.PayloadOf(v).AppendBinary(nh.Bits, nil)
				}, nil)
				if !bytes.Equal(msg, a.msgs[pos]) {
					local[pos] = msg
				}
			}
			if len(local) == 0 {
				return
			}
			mu.Lock()
			for pos, msg := range local {
				dirtyMsgs[pos] = msg
			}
			mu.Unlock()
		})
	}

	ads, k, err := p.ads.patched(dirtyMsgs)
	if err != nil {
		return nil, nil, err
	}
	st.LeavesPatched = k
	st.DirtyLeaves = dirtyPositions(dirtyMsgs)
	rootSig := p.rootSig
	if k > 0 || nh.Lambda != h.Lambda {
		params := landmark.Params{C: nh.C(), Bits: nh.Bits, Lambda: nh.Lambda}
		if rootSig, err = b.owner.signRoot(ldmSigCtx(params), ads.Root()); err != nil {
			return nil, nil, err
		}
	}
	return &LDMProvider{providerBase: providerBase{b.newView, ads}, hints: nh, rootSig: rootSig}, st, nil
}

// Patch derives an updated HYP provider: the grid partition and border
// sets never change under re-weighting, so the patch rewrites only the
// affected border rows, copy-on-write by page; rewrites the hyper-edge
// entries whose values moved, read off the pages the new Hyper does not
// share with the old (hiti's rows are the values' one home); and patches
// the endpoints' tuples.
func (hypImpl) Patch(b *UpdateBatch, prov Provider) (Provider, *PatchStats, error) {
	p, err := providerAs[*HYPProvider](HYP, prov)
	if err != nil {
		return nil, nil, err
	}
	st := &PatchStats{Method: HYP}
	hyper := p.hyper
	var stale []graph.NodeID // borders whose rows were rewritten
	switch {
	case !hyper.HasFullRows():
		// First update against this provider: materialize full rows on the
		// post-update network (one row rebuild — static deployments never
		// pay the B·|V| form). Updates from here on are incremental.
		hyper = hyper.WithFullRows(b.newView, p.ads.ord)
		st.RowsRecomputed = len(hyper.Borders)
		stale = hyper.Borders
	case b.fast != nil:
		// Bridge: every border row resums along the far side's tree,
		// writing through to copied pages.
		hyper = hyper.WithRewrittenRows(b.fast.resumPaged)
		st.RowsResummed = len(hyper.Borders)
		stale = hyper.Borders
	default:
		var rows []int
		for i, bn := range hyper.Borders {
			if b.affected[bn] {
				rows = append(rows, i)
				stale = append(stale, bn)
			}
		}
		st.RowsRecomputed = len(rows)
		if len(rows) > 0 {
			hyper = hyper.WithUpdatedRows(b.newView, rows)
		}
	}
	for _, bn := range stale {
		st.StaleCover = append(st.StaleCover, p.ads.ord.Pos[bn])
	}

	dirtyMsgs := b.dirtyTupleMsgs(p.ads, hyper.Extra)
	ads, k, err := p.ads.patched(dirtyMsgs)
	if err != nil {
		return nil, nil, err
	}
	st.LeavesPatched = k
	st.DirtyLeaves = dirtyPositions(dirtyMsgs)

	distMBT, distSig := p.distMBT, p.distSig
	var entries []mbt.ProvenEntry
	if hyper != p.hyper {
		entries, st.RowPagesWritten = hyper.Moved(p.hyper)
	}
	if distMBT != nil && len(entries) > 0 {
		if distMBT, err = distMBT.UpdateValues(entries); err != nil {
			return nil, nil, err
		}
		st.DistLeavesPatched = len(entries)
		if distSig, err = b.owner.signRoot(hypDistCtx, distMBT.Root()); err != nil {
			return nil, nil, err
		}
	}
	netSig := p.netSig
	if k > 0 {
		if netSig, err = b.owner.signRoot(hypNetCtx, ads.Root()); err != nil {
			return nil, nil, err
		}
	}
	return &HYPProvider{
		providerBase: providerBase{b.newView, ads},
		hyper:        hyper, distMBT: distMBT, netSig: netSig, distSig: distSig,
	}, st, nil
}

// Patch derives an updated FULL provider: re-run the affected sources'
// rows (parallel), re-fold their row subtrees, and patch only those leaves
// of the top tree. FULL's update cost is proportional to how many rows the
// edge actually dirtied — still the quadratic method's weak spot under
// far-reaching decreases, but orders of magnitude below a rebuild for the
// common localized re-weighting.
func (fullImpl) Patch(b *UpdateBatch, prov Provider) (Provider, *PatchStats, error) {
	p, err := providerAs[*FULLProvider](FULL, prov)
	if err != nil {
		return nil, nil, err
	}
	st := &PatchStats{Method: FULL}
	n := b.newView.NumNodes()
	var rows []int
	for s := 0; s < n; s++ {
		if b.affected[s] {
			rows = append(rows, s)
		}
	}
	st.RowsRecomputed = len(rows)
	newRoots := make(map[int][]byte, len(rows))
	var mu sync.Mutex
	var rowErr error
	par.Work(len(rows), func(k int) {
		i := rows[k]
		w := sp.AcquireWorkspace(n)
		row := w.DijkstraRow(b.newView, graph.NodeID(i), nil)
		sp.ReleaseWorkspace(w)
		root, err := mbt.RowRoot(b.owner.cfg.Hash, b.owner.cfg.Fanout, n, i, row)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if rowErr == nil {
				rowErr = err
			}
			return
		}
		if !p.forest.RowRootEqual(i, root) {
			newRoots[i] = root
		}
	})
	if rowErr != nil {
		return nil, nil, rowErr
	}
	st.DistLeavesPatched = len(newRoots)
	for i := range newRoots {
		st.DirtyRows = append(st.DirtyRows, i)
	}
	forest, err := p.forest.WithPatchedRows(newRoots, fullRowFn(b.newView))
	if err != nil {
		return nil, nil, err
	}

	dirtyMsgs := b.dirtyTupleMsgs(p.ads, nil)
	ads, k, err := p.ads.patched(dirtyMsgs)
	if err != nil {
		return nil, nil, err
	}
	st.LeavesPatched = k
	st.DirtyLeaves = dirtyPositions(dirtyMsgs)

	netSig, distSig := p.netSig, p.distSig
	if k > 0 {
		if netSig, err = b.owner.signRoot(fullNetCtx, ads.Root()); err != nil {
			return nil, nil, err
		}
	}
	if len(newRoots) > 0 {
		if distSig, err = b.owner.signRoot(fullDistCtx, forest.Root()); err != nil {
			return nil, nil, err
		}
	}
	return &FULLProvider{
		providerBase: providerBase{b.newView, ads},
		forest:       forest, netSig: netSig, distSig: distSig,
	}, st, nil
}
