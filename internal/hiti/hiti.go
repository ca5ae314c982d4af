// Package hiti implements the 2-level HiTi hyper-graph of the HYP method
// (paper §V-B, after [28]): a Euclidean grid partition of the nodes into p
// cells, border-node detection, and materialized hyper-edge weights
// W*(u, v) = dist(u, v) between *all* pairs of border nodes (the paper's
// footnote 1 departs from [28] exactly here: hyper-edges exist for any pair
// of border nodes, not just borders of the same cell).
//
// The per-node cell identifier and border flag become part of the
// authenticated extended-tuple Φ(v) (Eq. 7); the hyper-edge weights go into
// a distance Merkle B-tree. Theorem 2 (border passage) makes the coarse
// source-cell/target-cell subgraph plus these hyper-edges sufficient to
// reproduce exact shortest path distances.
package hiti

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/authhints/spv/internal/geom"
	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/mbt"
	"github.com/authhints/spv/internal/par"
	"github.com/authhints/spv/internal/sp"
)

// Hyper is the owner-computed HiTi structure for a graph.
type Hyper struct {
	Grid     *geom.Grid
	CellOf   []geom.CellID  // cell identifier per node
	IsBorder []bool         // border flag per node
	Borders  []graph.NodeID // all border nodes, ascending

	// row[v] is border v's row in W* (its index in Borders) and slot[v] its
	// index among its own cell's borders; both are -1 for non-borders.
	row, slot []int32
	// Leaf order of the hyper-edge tree (see HyperKey), per cell c:
	// before[c] borders live in lower cells, and first[c] is the leaf index
	// of the cell's first entry. Both carry one slot past the last cell, so
	// cell c holds before[c+1]-before[c] borders.
	before, first []int
	// Static builds hold W* border-indexed: wb[i][j] = dist(Borders[i],
	// Borders[j]), O(B²) memory. The first incremental update upgrades to
	// full rows w[i][x] (indexed by node, O(B·|V|) memory, wb dropped):
	// full rows are what make bridge-edge re-weightings resummable with
	// O(|V|) additions along retained shortest-path prefixes instead of B
	// fresh searches — a cost only update-serving deployments pay.
	wb        [][]float64
	w         [][]float64
	cellNodes [][]graph.NodeID // per cell, ascending
	// cellBorders caches each cell's border nodes (ascending) so the query
	// hot path never re-scans cell membership.
	cellBorders [][]graph.NodeID
}

// Build partitions net into approximately p grid cells and materializes
// all border-pair distances (one bounded Dijkstra per border node;
// parallelized).
func Build(net *graph.CSR, p int) (*Hyper, error) {
	h, err := partition(net, p)
	if err != nil {
		return nil, err
	}
	// Materialize W* border-indexed: one Dijkstra per border node, all
	// borders as targets, early-terminating once they settle. Workers
	// search the network with a pooled workspace each.
	h.wb = make([][]float64, len(h.Borders))
	par.Work(len(h.Borders), func(i int) {
		ws := sp.AcquireWorkspace(net.NumNodes())
		defer sp.ReleaseWorkspace(ws)
		h.wb[i] = ws.DijkstraToTargets(net, h.Borders[i], h.Borders, nil)
	})
	return h, nil
}

// partition derives everything that depends only on coordinates and
// adjacency — the grid, cell membership, border flags and border order.
// It is deterministic in g and p, which is what lets snapshot loading
// (Rehydrate) rebuild it instead of persisting it.
func partition(g *graph.CSR, p int) (*Hyper, error) {
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("hiti: empty graph")
	}
	if g.NumNodes() >= MaxNodes {
		return nil, fmt.Errorf("hiti: %d nodes exceed key capacity %d", g.NumNodes(), MaxNodes)
	}
	minX, minY, maxX, maxY := g.Bounds()
	grid, err := geom.NewGrid(minX, minY, maxX, maxY, p)
	if err != nil {
		return nil, err
	}
	if grid.NumCells() > MaxCells {
		return nil, fmt.Errorf("hiti: %d cells exceed key capacity %d", grid.NumCells(), MaxCells)
	}
	n, cells := g.NumNodes(), grid.NumCells()
	h := &Hyper{
		Grid:        grid,
		CellOf:      make([]geom.CellID, n),
		IsBorder:    make([]bool, n),
		row:         make([]int32, n),
		slot:        make([]int32, n),
		before:      make([]int, cells+1),
		first:       make([]int, cells+1),
		cellNodes:   make([][]graph.NodeID, cells),
		cellBorders: make([][]graph.NodeID, cells),
	}
	for v := 0; v < n; v++ {
		id := graph.NodeID(v)
		c := grid.Cell(g.X(id), g.Y(id))
		h.CellOf[v] = c
		h.cellNodes[c] = append(h.cellNodes[c], id)
	}
	for v := 0; v < n; v++ {
		for _, e := range g.Neighbors(graph.NodeID(v)) {
			if h.CellOf[e.To] != h.CellOf[v] {
				h.IsBorder[v] = true
				break
			}
		}
		h.row[v], h.slot[v] = -1, -1
		if h.IsBorder[v] {
			c := h.CellOf[v]
			h.row[v], h.slot[v] = int32(len(h.Borders)), int32(len(h.cellBorders[c]))
			h.Borders = append(h.Borders, graph.NodeID(v))
			h.cellBorders[c] = append(h.cellBorders[c], graph.NodeID(v))
		}
	}
	// A cell with k borders opens with its own k(k+1)/2 triangle, then one
	// k×k' block per higher cell — k × (borders in higher cells) in all.
	for c, bs := range h.cellBorders {
		k := len(bs)
		h.before[c+1] = h.before[c] + k
		h.first[c+1] = h.first[c] + k*(k+1)/2 + k*(len(h.Borders)-h.before[c+1])
	}
	return h, nil
}

// Rows exposes the materialized W* rows and their storage form for
// snapshot serialization: full reports whether rows are full distance rows
// (w, indexed by node) or the static border-indexed form (wb). The rows
// are the Hyper's own storage — read-only for callers. Pair with
// Rehydrate.
func (h *Hyper) Rows() (full bool, rows [][]float64) {
	if h.w != nil {
		return true, h.w
	}
	return false, h.wb
}

// Rehydrate reconstructs a Hyper over net from previously materialized rows
// without running a single search: the partition (grid, cells, borders) is
// recomputed — it is cheap and deterministic in net and p — and the given
// rows are installed under the storage form they were exported with. Row
// dimensions are validated against the recomputed border set, so a
// snapshot from a different graph or cell count fails loudly here rather
// than as a root mismatch downstream. The rows slice is retained.
func Rehydrate(net *graph.CSR, p int, full bool, rows [][]float64) (*Hyper, error) {
	h, err := partition(net, p)
	if err != nil {
		return nil, err
	}
	if len(rows) != len(h.Borders) {
		return nil, fmt.Errorf("hiti: %d rows for %d borders", len(rows), len(h.Borders))
	}
	want := len(h.Borders)
	if full {
		want = net.NumNodes()
	}
	for i, row := range rows {
		if len(row) != want {
			return nil, fmt.Errorf("hiti: row %d has %d values, want %d", i, len(row), want)
		}
	}
	if full {
		h.w = rows
	} else {
		h.wb = rows
	}
	return h, nil
}

// value returns W*(Borders[i], x) for border x under either storage form.
func (h *Hyper) value(i int, x graph.NodeID) float64 {
	if h.w != nil {
		return h.w[i][x]
	}
	return h.wb[i][h.row[x]]
}

// HasFullRows reports whether full distance rows have been materialized
// (the update pipeline's storage form).
func (h *Hyper) HasFullRows() bool { return h.w != nil }

// WithFullRows returns a Hyper carrying full distance rows computed over
// view, dropping the border-indexed form. The update pipeline upgrades a
// static Hyper with this exactly once (cost: one row rebuild), after which
// updates patch incrementally. DijkstraRow settles the border targets with
// the same relaxations DijkstraToTargets performs before its early stop,
// so border values are bitwise unchanged by the upgrade.
func (h *Hyper) WithFullRows(view graph.View) *Hyper {
	nh := *h
	nh.wb = nil
	nh.w = make([][]float64, len(h.Borders))
	nh.materializeRows(view, nil)
	return &nh
}

// materializeRows (re)computes full border rows over view: all of them
// when rows is nil, else exactly the given border indices. Rows are
// independent Dijkstra runs, so recomputation is bitwise identical to a
// fresh build for any row whose distances are unchanged. Full-rows form
// only.
func (h *Hyper) materializeRows(view graph.View, rows []int) {
	n := len(rows)
	if rows == nil {
		n = len(h.Borders)
	}
	par.Work(n, func(k int) {
		i := k
		if rows != nil {
			i = rows[k]
		}
		ws := sp.AcquireWorkspace(view.NumNodes())
		defer sp.ReleaseWorkspace(ws)
		h.w[i] = ws.DijkstraRow(view, h.Borders[i], nil)
	})
}

// WithPatchedRows returns a Hyper sharing the partition and border sets
// with the receiver, with every row deep-copied and handed to patch for
// in-place mutation (the update pipeline's bridge resummation). The
// receiver stays valid for concurrent readers. Full-rows form only.
func (h *Hyper) WithPatchedRows(patch func(src graph.NodeID, row []float64)) *Hyper {
	nh := *h
	nh.w = make([][]float64, len(h.w))
	for i, row := range h.w {
		nr := append([]float64(nil), row...)
		patch(h.Borders[i], nr)
		nh.w[i] = nr
	}
	return &nh
}

// WithUpdatedRows returns a Hyper sharing the partition, border sets and
// every clean row with the receiver, with the given border rows re-run
// against view (the post-update network). The receiver stays valid for
// concurrent readers.
func (h *Hyper) WithUpdatedRows(view graph.View, rows []int) *Hyper {
	nh := *h
	nh.w = append([][]float64(nil), h.w...)
	nh.materializeRows(view, rows)
	return &nh
}

// CrossingEntries returns the hyper-edge entries, each with its leaf index,
// for border pairs that straddle the given node partition (inF[x] = x on the
// far side). Across a bridge only straddling pairs can change value, so the
// update pipeline diffs exactly these instead of all B² pairs.
func (h *Hyper) CrossingEntries(inF []bool) []mbt.ProvenEntry {
	var bf, bc []graph.NodeID
	for _, bn := range h.Borders {
		if inF[bn] {
			bf = append(bf, bn)
		} else {
			bc = append(bc, bn)
		}
	}
	out := make([]mbt.ProvenEntry, 0, len(bf)*len(bc))
	for _, u := range bf {
		for _, v := range bc {
			out = append(out, h.proven(u, v))
		}
	}
	return out
}

// RowEntries returns the hyper-edge entries whose values derive from border
// row i — the pairs (Borders[i], Borders[j ≥ i]) — each with its leaf index.
// Patch paths recompute exactly these after re-running row i.
func (h *Hyper) RowEntries(i int) []mbt.ProvenEntry {
	out := make([]mbt.ProvenEntry, 0, len(h.Borders)-i)
	for _, v := range h.Borders[i:] {
		out = append(out, h.proven(h.Borders[i], v))
	}
	return out
}

// CellPairEntries returns, each with its leaf index, the hyper-edges between
// the borders of cells cs and ct (all pairs within one cell when the cells
// coincide) — what a query between the two cells proves. Distinct cells
// have disjoint border sets, so pairs are unique by construction; for a
// shared cell the i ≤ j triangle covers each unordered pair (and self-pair)
// exactly once. cs-major order is the order the proof lists them in. The
// slice is the caller's.
func (h *Hyper) CellPairEntries(cs, ct geom.CellID) []mbt.ProvenEntry {
	bs, bt := h.cellBorders[cs], h.cellBorders[ct]
	n := len(bs) * len(bt)
	if cs == ct {
		n = len(bs) * (len(bs) + 1) / 2
	}
	out := make([]mbt.ProvenEntry, 0, n)
	for i, a := range bs {
		if cs == ct {
			bt = bs[i:]
		}
		for _, b := range bt {
			out = append(out, h.proven(a, b))
		}
	}
	return out
}

// MovedFrom filters entries, which the receiver produced, down to those
// whose value differs bitwise from old's for the same border pair: the
// leaves an update has to rewrite. old must share the receiver's partition.
// In place.
func (h *Hyper) MovedFrom(old *Hyper, entries []mbt.ProvenEntry) []mbt.ProvenEntry {
	moved := entries[:0]
	for _, e := range entries {
		u, v := graph.NodeID(e.Key>>nodeBits&(MaxNodes-1)), graph.NodeID(e.Key&(MaxNodes-1))
		if math.Float64bits(old.weight(u, v)) != math.Float64bits(e.Value) {
			moved = append(moved, e)
		}
	}
	return moved
}

// weight is W* of the border pair {u, v} as the tree carries it: read from
// the lower-ID border's row, since dist(u, v) and dist(v, u) come from
// different searches and may differ in their last bits, and the signed
// leaves have always carried that row's.
func (h *Hyper) weight(u, v graph.NodeID) float64 {
	if v < u {
		u, v = v, u
	}
	return h.value(int(h.row[u]), v)
}

// entry is the tree entry of the border pair {u, v}.
func (h *Hyper) entry(u, v graph.NodeID) mbt.Entry {
	return mbt.Entry{Key: HyperKey(u, v, h.CellOf[u], h.CellOf[v]), Value: h.weight(u, v)}
}

// proven is entry plus the pair's leaf index.
func (h *Hyper) proven(u, v graph.NodeID) mbt.ProvenEntry {
	return mbt.ProvenEntry{Entry: h.entry(u, v), Index: uint32(h.LeafIndex(u, v))}
}

// NumBorders returns the number of border nodes.
func (h *Hyper) NumBorders() int { return len(h.Borders) }

// BordersOf returns the border nodes of a cell, ascending. The slice is
// owned by the Hyper and must not be modified.
func (h *Hyper) BordersOf(c geom.CellID) []graph.NodeID {
	return h.cellBorders[c]
}

// NodesOf returns all nodes of a cell, ascending (cell lists are built by
// one ascending node sweep, so they are sorted by construction). The slice
// is owned by the Hyper and must not be modified.
func (h *Hyper) NodesOf(c geom.CellID) []graph.NodeID {
	return h.cellNodes[c]
}

// HyperEdge returns W*(u, v) for two border nodes, or false if either is not
// a border node.
func (h *Hyper) HyperEdge(u, v graph.NodeID) (float64, bool) {
	if h.row[u] < 0 || h.row[v] < 0 {
		return 0, false
	}
	return h.value(int(h.row[u]), v), true
}

// Hyper-edge key layout: the distance Merkle B-tree is keyed cell-pair
// first, border-pair second —
//
//	cell_a (10 bits) | cell_b (10 bits) | node_a (22 bits) | node_b (22 bits)
//
// with (cell_a, node_a) ≤ (cell_b, node_b) canonically. Every hyper-edge a
// query needs lies between the borders of exactly two cells, so this layout
// makes them contiguous B-tree leaves and the multi-key verification object
// collapses to a near-single path of sibling digests. This is a provider-
// side layout choice the client never has to trust: keys are reconstructed
// from authenticated cell annotations and bound by the root signature.
//
// Sorted by key, the entries of cell c form one run per cell d ≥ c: first
// the triangle of c's own k border pairs (u ≤ v, row-major), then for each
// higher cell a k×k' block, c's border major. Run lengths depend on border
// counts alone, so a pair's leaf index is arithmetic (LeafIndex) and Entries
// emits the tree's leaf order without a sort.
const (
	cellBits = 10
	nodeBits = 22
	// MaxCells and MaxNodes bound what the key layout can address.
	MaxCells = 1 << cellBits
	MaxNodes = 1 << nodeBits
)

// HyperKey is the canonical MBT key for the border pair (u, v) living in
// cells (cu, cv).
func HyperKey(u, v graph.NodeID, cu, cv geom.CellID) mbt.Key {
	if cv < cu || (cv == cu && v < u) {
		u, v = v, u
		cu, cv = cv, cu
	}
	return mbt.Key(uint64(cu)<<(cellBits+2*nodeBits) |
		uint64(cv)<<(2*nodeBits) |
		uint64(u)<<nodeBits |
		uint64(v))
}

// LeafIndex returns the position of border pair {u, v}'s entry in key
// order, i.e. its leaf in the distance tree. Both must be border nodes.
func (h *Hyper) LeafIndex(u, v graph.NodeID) int {
	cu, cv := h.CellOf[u], h.CellOf[v]
	if cv < cu || (cv == cu && v < u) {
		u, v = v, u
		cu, cv = cv, cu
	}
	a, b := int(h.slot[u]), int(h.slot[v])
	k := h.before[cu+1] - h.before[cu]
	if cu == cv {
		return h.first[cu] + a*k - a*(a-1)/2 + b - a
	}
	block := h.first[cu] + k*(k+1)/2 + k*(h.before[cv]-h.before[cu+1])
	return block + a*(h.before[cv+1]-h.before[cv]) + b
}

// Entries materializes all hyper-edges as Merkle B-tree entries in strictly
// increasing key order, including self-pairs (weight 0) so that border sets
// of size one still yield a provable key set. Cell c's entries start at
// first[c], so cells are filled in parallel.
func (h *Hyper) Entries() []mbt.Entry {
	out := make([]mbt.Entry, h.NumHyperEdges())
	par.Work(len(h.cellBorders), func(c int) {
		bc, k := h.cellBorders[c], h.first[c]
		for d := c; d < len(h.cellBorders) && len(bc) > 0; d++ {
			for i, u := range bc {
				bd := h.cellBorders[d]
				if d == c {
					bd = bc[i:] // own cell: the u ≤ v triangle
				}
				for _, v := range bd {
					out[k] = h.entry(u, v)
					k++
				}
			}
		}
	})
	return out
}

// NumHyperEdges returns the number of canonical hyper-edge entries.
func (h *Hyper) NumHyperEdges() int {
	b := len(h.Borders)
	return b * (b + 1) / 2
}

// --- Extended-tuple extras (Eq. 7) ---

// ExtraSize is the wire size of the HYP per-node tuple extra: a 4-byte cell
// identifier plus a 1-byte border flag.
const ExtraSize = 5

// Extra encodes the Eq. 7 additions (v.c, v.is_border) for node v.
func (h *Hyper) Extra(v graph.NodeID) []byte {
	buf := make([]byte, ExtraSize)
	binary.BigEndian.PutUint32(buf, uint32(h.CellOf[v]))
	if h.IsBorder[v] {
		buf[4] = 1
	}
	return buf
}

// DecodeExtra parses a tuple extra produced by Extra.
func DecodeExtra(buf []byte) (cell geom.CellID, isBorder bool, err error) {
	if len(buf) < ExtraSize {
		return 0, false, fmt.Errorf("hiti: tuple extra truncated (%d bytes)", len(buf))
	}
	flag := buf[4]
	if flag > 1 {
		return 0, false, fmt.Errorf("hiti: bad border flag %d", flag)
	}
	return geom.CellID(binary.BigEndian.Uint32(buf)), flag == 1, nil
}
