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
	"slices"
	"sync"
	"sync/atomic"

	"github.com/authhints/spv/internal/geom"
	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/mbt"
	"github.com/authhints/spv/internal/order"
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
	// full rows (one value per node, O(B·|V|) memory, wb dropped): a full
	// row is what an update can repair in place — re-settling only the
	// nodes whose distance moves — instead of B fresh searches, a cost only
	// update-serving deployments pay.
	wb [][]float64
	// w holds the full rows as pages of PageLen values in the network
	// tree's leaf order: dist(Borders[i], x) sits at slot pos[x] of row i,
	// on page w[i][pos[x]/PageLen], and seq[slot] is the node at a slot
	// (pos and seq are the network ordering's Pos and Seq, shared). A page
	// is never written once a Hyper holding it is published: a patched
	// Hyper shares every page whose values are bitwise unchanged and owns
	// only the pages holding a moved value, so an update costs the pages it
	// changes, not B·|V|. A spatially compact change lands on few pages
	// because the leaf order keeps neighbours on nearby slots.
	w         [][]*page
	pos       []int
	seq       []graph.NodeID
	cellNodes [][]graph.NodeID // per cell, ascending
	// cellBorders caches each cell's border nodes (ascending) so the query
	// hot path never re-scans cell membership.
	cellBorders [][]graph.NodeID
}

// PageLen is the number of values on one page of a full W* row (1 KiB):
// the unit an update copies.
const PageLen = 128

// page is PageLen consecutive slots of one full row. Pages are allocated
// one by one, never in slabs, so a page a patch replaces is freed as soon
// as no published Hyper holds it.
type page [PageLen]float64

// rowScratch pools the node-indexed rows searches write before they are
// paged.
var rowScratch = sync.Pool{New: func() any { return new([]float64) }}

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

// AppendRow appends stored row i to dst in its storage form — node-indexed
// (W*(Borders[i], x) at x) for full rows, border-indexed for the static
// form — and returns the extended slice. It is how whole rows leave the
// Hyper: snapshot streaming and the certificate audit. Pair with Rehydrate.
func (h *Hyper) AppendRow(dst []float64, i int) []float64 {
	if h.w == nil {
		return append(dst, h.wb[i]...)
	}
	n := len(dst)
	dst = slices.Grow(dst, len(h.seq))[:n+len(h.seq)]
	row := dst[n:]
	for k, p := range h.w[i] {
		for j, x := range h.slots(k) {
			row[x] = p[j]
		}
	}
	return dst
}

// Rehydrate reconstructs a Hyper over net from previously materialized rows
// without running a single search: the partition (grid, cells, borders) is
// recomputed — it is cheap and deterministic in net and p — and numRows
// rows of rowLen values, in the storage form AppendRow exported them in,
// are installed, read calling fill once per row in order. Full rows are
// paged under ord, the network's leaf ordering, one row at a time, so no
// second full copy is ever held. Row dimensions are validated against the
// recomputed border set before fill is first called, so a snapshot from a
// different graph or cell count fails loudly here rather than as a root
// mismatch downstream.
func Rehydrate(net *graph.CSR, p int, ord *order.Ordering, full bool, numRows, rowLen int, fill func(row []float64)) (*Hyper, error) {
	h, err := partition(net, p)
	if err != nil {
		return nil, err
	}
	if numRows != len(h.Borders) {
		return nil, fmt.Errorf("hiti: %d rows for %d borders", numRows, len(h.Borders))
	}
	want := len(h.Borders)
	if full {
		want = net.NumNodes()
	}
	if numRows > 0 && rowLen != want {
		return nil, fmt.Errorf("hiti: rows have %d values, want %d", rowLen, want)
	}
	if !full {
		slab := make([]float64, numRows*rowLen)
		h.wb = make([][]float64, numRows)
		for i := range h.wb {
			h.wb[i] = slab[i*rowLen : (i+1)*rowLen : (i+1)*rowLen]
			fill(h.wb[i])
		}
		return h, nil
	}
	h.pos, h.seq = ord.Pos, ord.Seq
	h.w = make([][]*page, numRows)
	row := make([]float64, rowLen)
	for i := range h.w {
		fill(row)
		h.w[i] = h.pageRow(row)
	}
	return h, nil
}

// value returns W*(Borders[i], x) for border x under either storage form.
func (h *Hyper) value(i int, x graph.NodeID) float64 {
	if h.w != nil {
		s := uint(h.pos[x])
		return h.w[i][s/PageLen][s%PageLen]
	}
	return h.wb[i][h.row[x]]
}

// slots returns the nodes on page k of every full row, in slot order.
func (h *Hyper) slots(k int) []graph.NodeID {
	return h.seq[k*PageLen : min((k+1)*PageLen, len(h.seq))]
}

// pageRow lays row (node-indexed) out in fresh pages.
func (h *Hyper) pageRow(row []float64) []*page {
	out := make([]*page, (len(h.seq)+PageLen-1)/PageLen)
	for k := range out {
		p := new(page)
		for j, x := range h.slots(k) {
			p[j] = row[x]
		}
		out[k] = p
	}
	return out
}

// HasFullRows reports whether full distance rows have been materialized
// (the update pipeline's storage form).
func (h *Hyper) HasFullRows() bool { return h.w != nil }

// WithFullRows returns a Hyper carrying full distance rows computed over
// view and paged under ord, the network's leaf ordering, dropping the
// border-indexed form. The update pipeline upgrades a static Hyper with
// this exactly once (cost: one row rebuild), after which updates patch
// incrementally. DijkstraRow settles the border targets with the same
// relaxations DijkstraToTargets performs before its early stop, so border
// values are bitwise unchanged by the upgrade.
func (h *Hyper) WithFullRows(view graph.View, ord *order.Ordering) *Hyper {
	nh := *h
	nh.wb = nil
	nh.pos, nh.seq = ord.Pos, ord.Seq
	nh.w = make([][]*page, len(h.Borders))
	par.Work(len(h.Borders), func(i int) {
		ws := sp.AcquireWorkspace(view.NumNodes())
		buf := rowScratch.Get().(*[]float64)
		*buf = ws.DijkstraRow(view, h.Borders[i], *buf)
		sp.ReleaseWorkspace(ws)
		nh.w[i] = nh.pageRow(*buf)
		rowScratch.Put(buf)
	})
	return &nh
}

// RowWriter rewrites one full row for WithRewrittenRows. Reads see the
// writes made so far; a write of the value already stored, bit for bit, is
// dropped; and the first changed value on a page the row still shares
// with the receiver copies that page.
type RowWriter struct {
	pos   []int
	old   []*page // the row as the receiver holds it
	pages []*page // the row being written: old until a page is copied
}

// At returns the row's value at node x.
func (r *RowWriter) At(x graph.NodeID) float64 {
	s := uint(r.pos[x])
	return r.pages[s/PageLen][s%PageLen]
}

// Set stores v at node x.
func (r *RowWriter) Set(x graph.NodeID, v float64) {
	s := uint(r.pos[x])
	k, j := s/PageLen, s%PageLen
	if math.Float64bits(r.pages[k][j]) == math.Float64bits(v) {
		return
	}
	if r.pages[k] == r.old[k] {
		r.copyPage(k)
	}
	r.pages[k][j] = v
}

func (r *RowWriter) copyPage(k uint) {
	if &r.pages[0] == &r.old[0] {
		r.pages = slices.Clone(r.old)
	}
	p := *r.old[k]
	r.pages[k] = &p
}

// WithRewrittenRows returns a Hyper sharing the partition, border sets and
// every page write leaves unchanged with the receiver, after handing each
// border row to write (the update pipeline's row repair), and the number
// of rows write changed — the receiver itself when it changed none. Rows
// are written in parallel, each through its own RowWriter, so write must
// be safe for concurrent calls on distinct rows. A row costs the values
// written and the pages they change — nothing is copied or compared whole.
// The receiver stays valid for concurrent readers. Full-rows form only.
func (h *Hyper) WithRewrittenRows(write func(src graph.NodeID, r *RowWriter)) (*Hyper, int) {
	nh := *h
	nh.w = make([][]*page, len(h.w))
	var changed atomic.Int64
	par.Work(len(h.w), func(i int) {
		r := RowWriter{pos: h.pos, old: h.w[i], pages: h.w[i]}
		write(h.Borders[i], &r)
		if &r.pages[0] != &r.old[0] {
			changed.Add(1)
		}
		nh.w[i] = r.pages
	})
	if changed.Load() == 0 {
		return h, 0
	}
	return &nh, int(changed.Load())
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

// Moved returns, each with its leaf index, the hyper-edge entries whose
// values differ bitwise from old's — the leaves an update rewrites — and
// fresh, the number of pages the receiver does not share with old. It reads
// only those pages: the entry {u, v} with u < v takes its value from u's
// row (weight), so only a changed value at a border column v > u of row u
// can move one. old shares the receiver's partition and holds either
// storage form (against the static form every page is fresh); the receiver
// holds full rows.
func (h *Hyper) Moved(old *Hyper) (moved []mbt.ProvenEntry, fresh int) {
	for i, row := range h.w {
		u := h.Borders[i]
		for k, p := range row {
			if old.w != nil && old.w[i][k] == p {
				continue
			}
			fresh++
			for j, v := range h.slots(k) {
				if v > u && h.row[v] >= 0 && math.Float64bits(p[j]) != math.Float64bits(old.weight(u, v)) {
					moved = append(moved, h.proven(u, v))
				}
			}
		}
	}
	return moved, fresh
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
