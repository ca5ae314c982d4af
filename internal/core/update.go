package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/hints/landmark"
	"github.com/authhints/spv/internal/mbt"
	"github.com/authhints/spv/internal/par"
	"github.com/authhints/spv/internal/sp"
)

// This file is the owner's incremental update pipeline: edge re-weighting
// without a full re-outsource. The flow is
//
//	re-weight → patch → re-sign
//
// ApplyUpdates gives every real re-weighting its own network: a copy of
// the previous step's edge array (the offsets and coordinates stay shared)
// with that one edge re-weighted, the last of them published as the next
// epoch's network. It runs no search. Stored distance rows — LDM's
// landmark rows, HYP's full border rows — are then kept current by one
// routine, sp's Workspace.Repair, replayed step by step over those
// networks: it re-settles only the nodes whose distance can change, and
// its rows are bitwise a fresh Dijkstra's (see its doc), so patched roots,
// signatures and proofs stay byte-identical to a from-scratch re-outsource
// (pinning LDM's landmark placement, which is a selection choice re-made
// only on full re-outsource).
//
// FULL retains no rows, so its patch selects the rows to re-run: per step,
// two Dijkstras from the edge's endpoints over the network before the step.
// Because the network is undirected, those two rows give dist(s, u) and
// dist(s, v) for *every* source s, which is exactly what the relaxation
// test needs to decide whether s's distances can change at all: an edge
// (u, v) is irrelevant for s when its relaxation fails — with a safety
// margin — under both the old and new weight.
//
// Each patch reports which cached proofs it made stale from what it
// rewrote (PatchStats.Stale): a proof goes stale only when bytes it shows
// move.
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
// network, each real re-weighting with its own network, and the endpoints
// whose tuples they change — what every method's Patch works from. It
// stays valid until the next ApplyUpdates call.
type UpdateBatch struct {
	owner   *Owner
	newView *graph.CSR
	epoch   int64
	oldView *graph.CSR // the network before the batch — what Rollback restores

	steps []sp.Step      // the real re-weightings, each with its network
	dirty []graph.NodeID // endpoints of actually-changed edges, deduped
}

// repair replays the batch's steps on row, the stored landmark row from
// src, on a pooled workspace, and adds the nodes it re-settled to settled.
func (b *UpdateBatch) repair(src graph.NodeID, row sp.Row, settled *atomic.Int64) {
	ws := sp.AcquireWorkspace(b.newView.NumNodes())
	for _, s := range b.steps {
		settled.Add(int64(ws.Repair(s, src, row)))
	}
	sp.ReleaseWorkspace(ws)
}

// cowRow is a landmark row under repair: it reads old until the first
// changed value, which copies it.
type cowRow struct{ old, row []float64 }

func (r *cowRow) At(x graph.NodeID) float64 { return r.row[x] }

func (r *cowRow) Set(x graph.NodeID, d float64, _ graph.NodeID) {
	if math.Float64bits(r.row[x]) == math.Float64bits(d) {
		return
	}
	if !r.copied() {
		r.row = slices.Clone(r.old)
	}
	r.row[x] = d
}

func (r *cowRow) copied() bool { return &r.row[0] != &r.old[0] }

// Epoch returns the owner epoch this batch produced.
func (b *UpdateBatch) Epoch() int64 { return b.epoch }

// DirtyNodes returns the endpoints whose tuples changed.
func (b *UpdateBatch) DirtyNodes() []graph.NodeID { return b.dirty }

// PatchStats reports what one provider patch did.
type PatchStats struct {
	Method Method
	// RowsRecomputed counts the distance rows the patch rewrote: LDM and
	// HYP rows whose values repair moved, every HYP row at the first
	// update's upgrade, FULL rows re-run.
	RowsRecomputed int
	// NodesResettled counts the nodes repair re-settled across LDM's and
	// HYP's stored rows.
	NodesResettled int
	// LeavesPatched counts network-ADS leaves rewritten.
	LeavesPatched int
	// DistLeavesPatched counts distance-ADS leaves rewritten (FULL row
	// roots, HYP hyper-edge entries).
	DistLeavesPatched int
	// RowBytesWritten counts the bytes of HYP row storage the patch
	// allocated — tree pages (hiti.PageLen parents each) and W* pages;
	// everything else is shared with the old provider. The first update's
	// upgrade allocates it all.
	RowBytesWritten int
	// Stale lists, ascending and without repeats, the network-ADS leaf
	// positions whose cached proofs the patch made stale — the serving
	// layer drops exactly the proofs whose tuples cover one. It holds the
	// rewritten tuples; for HYP, both borders of every hyper-edge entry
	// whose value moved (a proof showing the entry shows both borders'
	// tuples); for FULL, every source whose row root changed (a proof
	// shows its endpoints' tuples).
	Stale []int
}

// ApplyUpdates validates and applies a batch of edge re-weightings to the
// owner's network and records what each method's Patch works from: the
// real steps, in order, and the endpoints whose tuples they change. It
// runs no search.
//
// Each real step re-weights its own copy of the previous step's edge array
// — one copy for a single update — and the batch publishes the last as the
// owner's next epoch only at the end; the CSR the owner held before — and
// every provider searching it — never changes.
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
	b := &UpdateBatch{owner: o, oldView: old}
	net := old
	seen := make(map[graph.NodeID]bool, 2*len(ups))
	for _, up := range ups {
		oldW, _ := net.EdgeWeight(up.U, up.V)
		if up.W == oldW {
			continue // no-op: nothing dirtied
		}
		net = net.WithPrivateEdges()
		if _, err := net.SetEdgeWeight(up.U, up.V, up.W); err != nil {
			return nil, err
		}
		b.steps = append(b.steps, sp.Step{G: net, U: up.U, V: up.V, Old: oldW, New: up.W})
		for _, v := range [2]graph.NodeID{up.U, up.V} {
			if !seen[v] {
				seen[v] = true
				b.dirty = append(b.dirty, v)
			}
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

// stale returns PatchStats.Stale: the positions of the rewritten tuples
// m plus extra, sorted and without repeats. It may reuse extra.
func stale(m map[int][]byte, extra []int) []int {
	for pos := range m {
		extra = append(extra, pos)
	}
	slices.Sort(extra)
	return slices.Compact(extra)
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
	st.Stale = stale(dirtyMsgs, nil)
	rootSig := p.rootSig
	if k > 0 {
		if rootSig, err = b.owner.signRoot(dijSigCtx, ads.Root()); err != nil {
			return nil, nil, err
		}
	}
	return &DIJProvider{providerBase{b.newView, ads}, rootSig}, st, nil
}

// Patch derives an updated LDM provider: repair every landmark row
// (copy-on-first-change, so a row no step moves stays shared), re-derive
// quantization and compression from the patched row set (cheap, O(n·c)),
// and rewrite exactly the leaves whose messages changed. Landmark
// placement is pinned — re-selection is a full re-outsource decision, and
// the pinned set keeps hints exact (rows are true distances in the updated
// network).
func (ldmImpl) Patch(b *UpdateBatch, prov Provider) (Provider, *PatchStats, error) {
	p, err := providerAs[*LDMProvider](LDM, prov)
	if err != nil {
		return nil, nil, err
	}
	st := &PatchStats{Method: LDM}
	h := p.hints
	rows := make([]cowRow, len(h.Dists))
	var settled atomic.Int64
	par.Work(len(rows), func(i int) {
		rows[i] = cowRow{old: h.Dists[i], row: h.Dists[i]}
		b.repair(h.Landmarks[i], &rows[i], &settled)
	})
	st.NodesResettled = int(settled.Load())
	dists := slices.Clone(h.Dists)
	for i, r := range rows {
		if r.copied() {
			dists[i] = r.row
			st.RowsRecomputed++
		}
	}

	var nh *landmark.Hints
	var dirtyMsgs map[int][]byte
	if st.RowsRecomputed == 0 || h.QuantizationUnchanged(dists) {
		// No landmark row moved, or none by half a quantization step:
		// every unit, compression assignment and payload byte is
		// reproduced exactly, so only the endpoints' adjacency bytes differ.
		nh = h.WithRows(dists)
		dirtyMsgs = b.dirtyTupleMsgs(p.ads, func(v graph.NodeID) []byte {
			return nh.PayloadOf(v).AppendBinary(nh.Bits, nil)
		})
	} else {
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
	st.Stale = stale(dirtyMsgs, nil)
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
// sets never change under re-weighting, so the patch takes the border rows
// from hiti's one update entry (the first update upgrades them to full
// rows, later ones repair each row's shortest-path tree, copy-on-write by
// page); re-hashes the distance tree's groups holding a hyper-edge entry
// whose value moved, read off the W* pages the new Hyper does not share
// with the old (hiti holds the values' one home); and patches the
// endpoints' tuples.
func (hypImpl) Patch(b *UpdateBatch, prov Provider) (Provider, *PatchStats, error) {
	p, err := providerAs[*HYPProvider](HYP, prov)
	if err != nil {
		return nil, nil, err
	}
	st := &PatchStats{Method: HYP}
	hyper, rows, resettled, err := p.hyper.Updated(b.newView, p.ads.ord, b.steps)
	if err != nil {
		return nil, nil, err
	}
	st.RowsRecomputed, st.NodesResettled = rows, resettled

	dirtyMsgs := b.dirtyTupleMsgs(p.ads, hyper.Extra)
	ads, k, err := p.ads.patched(dirtyMsgs)
	if err != nil {
		return nil, nil, err
	}
	st.LeavesPatched = k

	distMBT, distSig := p.distMBT, p.distSig
	var entries []mbt.ProvenEntry
	var borders []int
	if hyper != p.hyper {
		entries, borders, st.RowBytesWritten = hyper.Moved(p.hyper)
	}
	st.Stale = stale(dirtyMsgs, borders)
	if distMBT != nil && hyper != p.hyper {
		// The tree reads its entries from the Hyper it serves with, so it
		// moves to the new one even when no value did.
		if distMBT, err = distMBT.UpdateValues(hyper.AppendEntries, entries); err != nil {
			return nil, nil, err
		}
		st.DistLeavesPatched = len(entries)
		if len(entries) > 0 {
			if distSig, err = b.owner.signRoot(hypDistCtx, distMBT.Root()); err != nil {
				return nil, nil, err
			}
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

// Patch derives an updated FULL provider: re-run the rows of the sources
// the batch may have affected (parallel), re-fold their row subtrees, and
// patch only those leaves of the top tree. FULL's update cost is
// proportional to how many rows the edge actually dirtied — still the
// quadratic method's weak spot under far-reaching decreases, but orders of
// magnitude below a rebuild for the common localized re-weighting.
func (fullImpl) Patch(b *UpdateBatch, prov Provider) (Provider, *PatchStats, error) {
	p, err := providerAs[*FULLProvider](FULL, prov)
	if err != nil {
		return nil, nil, err
	}
	st := &PatchStats{Method: FULL}
	// Select the rows to re-run: per step, two endpoint Dijkstras over the
	// network before it feed the relaxation test, so the accumulated set
	// covers every source whose distances could have changed at any step.
	n := b.newView.NumNodes()
	affected := make([]bool, n)
	net := b.oldView
	var du, dv []float64
	for _, step := range b.steps {
		w := sp.AcquireWorkspace(n)
		du = w.DijkstraRow(net, step.U, du)
		dv = w.DijkstraRow(net, step.V, dv)
		sp.ReleaseWorkspace(w)
		markAffected(affected, du, dv, math.Min(step.Old, step.New))
		net = step.G
	}
	var rows []int
	for s, a := range affected {
		if a {
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
	srcs := make([]int, 0, len(newRoots))
	for i := range newRoots {
		srcs = append(srcs, p.ads.ord.Pos[i])
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
	st.Stale = stale(dirtyMsgs, srcs)

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
