// Package hiti implements the 2-level HiTi hyper-graph of the HYP method
// (paper §V-B, after [28]): a Euclidean grid partition of the nodes into p
// cells, border-node detection, and materialized hyper-edge weights
// W*(u, v) = dist(u, v) between *all* pairs of border nodes (the paper's
// footnote 1 departs from [28] exactly here: hyper-edges exist for any pair
// of border nodes, not just borders of the same cell). W* comes from one
// full Dijkstra per border; the first update upgrades the rows to full
// rows — the same searches, each kept as its shortest-path tree — which
// later updates repair in place. Which form a Hyper holds is this
// package's alone: callers update through Updated and read stored values
// through WalkRow.
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
	"sort"
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
	// wb holds W* border-indexed in both storage forms: dist(Borders[i],
	// Borders[j]) at column j of row i, on page wb[i][j/WPageLen], O(B²)
	// memory — what queries, proofs and the distance tree's entries read.
	// Full rows' pages are copy-on-write: a page is never written once a
	// Hyper holding it is published, and a patched Hyper owns only the
	// pages holding a moved value — a border whose distances all move
	// costs one page per row, not every row. The static form's pages are
	// never replaced and share one slab (staticRows).
	wb [][]*wpage
	// The first incremental update upgrades to full rows (one value per
	// node, O(B·|V|)): a full row is what an update can repair in place —
	// re-settling only the nodes whose distance moves — instead of B fresh
	// searches, a cost only update-serving deployments pay.
	//
	// A full row is stored as its shortest-path tree. tree[i] gives each
	// node x the index, in net's adjacency list of x, of a tight parent p:
	// dist(Borders[i], x) = fl(dist(Borders[i], p) + w(p, x)) in net, bit
	// for bit — graph.NoParent at the border itself and at unreachable
	// nodes. Folding the tree from the border down repeats the additions
	// Dijkstra made, so it reproduces the row exactly at two bytes a node
	// instead of eight.
	// Repair (sp.Workspace.Repair) keeps it a tree: a node repair leaves
	// alone keeps a tight parent, and a node it re-settles gets a parent
	// settled before it.
	//
	// Trees are paged in the network tree's leaf order: x's entry sits at
	// slot pos[x] of tree[i], on page tree[i][pos[x]/PageLen], and
	// seq[slot] is the node at a slot (pos and seq are the network
	// ordering's Pos and Seq, shared). Pages are copy-on-write like wb's,
	// so an update costs the pages whose parents it changes, not
	// B·|V|; a spatially compact change lands on few pages because the
	// leaf order keeps neighbours on nearby slots.
	tree [][]*page
	net  *graph.CSR // the network the trees are tight in
	pos  []int
	seq  []graph.NodeID

	cellNodes [][]graph.NodeID // per cell, ascending
	// cellBorders caches each cell's border nodes (ascending) so the query
	// hot path never re-scans cell membership.
	cellBorders [][]graph.NodeID
}

// PageLen is the number of nodes on one page of a full row's tree: the
// unit an update copies.
const PageLen = 128

// page is PageLen consecutive slots of one tree, 256 B. Pages are
// allocated one by one, never in slabs, so a page a patch replaces is
// freed as soon as no published Hyper holds it.
type page [PageLen]uint16

// WPageLen is the number of values on one page of a W* row, 512 B.
const WPageLen = 64

type wpage [WPageLen]float64

const (
	pageBytes  = PageLen * 2
	wpageBytes = WPageLen * 8
)

// Build partitions net into approximately p grid cells and materializes
// all border-pair distances: one full search per border (searchRows,
// parallelized), W* its distances at the borders. Each search is also
// handed to trees, when it is not nil, before its workspace is reused —
// how a certificate issued with the build takes the borders' trees
// without searching again.
func Build(net *graph.CSR, p int, trees sp.TreeSink) (*Hyper, error) {
	h, err := partition(net, p)
	if err != nil {
		return nil, err
	}
	h.wb = staticRows(len(h.Borders))
	h.searchRows(net, trees)
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

// WalkRow calls f with each value stored row i holds, in node order, and
// returns f's first error, where the walk stops: W*(Borders[i], v) at each
// border v for the static form, and for full rows W*(Borders[i], x) at
// every node x, folded from the tree. It is how the certificate audit holds
// what the provider stores to the certified distances.
func (h *Hyper) WalkRow(i int, f func(x graph.NodeID, d float64) error) error {
	if h.tree == nil {
		for j, v := range h.Borders {
			if err := f(v, h.wb[i][j/WPageLen][j%WPageLen]); err != nil {
				return err
			}
		}
		return nil
	}
	s := acquireScratch(len(h.seq))
	defer releaseScratch(s)
	for x := range h.seq {
		if err := f(graph.NodeID(x), h.fold(s, h.net, h.tree[i], h.wb[i], graph.NodeID(x))); err != nil {
			return err
		}
	}
	return nil
}

// AppendW appends W* row i — dist(Borders[i], Borders[j]) at j — to dst
// and returns the extended slice: the W* half of a snapshot, in either
// storage form.
func (h *Hyper) AppendW(dst []float64, i int) []float64 {
	for k, p := range h.wb[i] {
		dst = append(dst, p[:min(WPageLen, len(h.Borders)-k*WPageLen)]...)
	}
	return dst
}

// AppendTree appends full row i's tree — one parent slot per node, in the
// network's leaf order — to dst and returns the extended slice: the tree
// half of a full-row snapshot.
func (h *Hyper) AppendTree(dst []uint16, i int) []uint16 {
	for k, p := range h.tree[i] {
		dst = append(dst, p[:min(PageLen, len(h.seq)-k*PageLen)]...)
	}
	return dst
}

// Rehydrate reconstructs a Hyper over net from a saved one without running
// a single search: the partition (grid, cells, borders) is recomputed — it
// is cheap and deterministic in net and p — and the stored rows are read
// into the Hyper's own pages as they were saved: numBorders W* rows
// (AppendW) through w, then, for full rows, numBorders trees of |V| slots
// in ord's leaf order (AppendTree) through tree. Each reader is called
// with a run of one row's page to fill, rows in order. The row count is
// validated against the recomputed border set before the first read, so a
// snapshot from a different graph or cell count fails loudly here rather
// than as a root mismatch downstream; a tree that fold or Repair could not
// walk — a slot past its node's degree, a parent cycle — fails the load.
func Rehydrate(net *graph.CSR, p int, ord *order.Ordering, full bool, numBorders int, w func([]float64), tree func([]uint16)) (*Hyper, error) {
	h, err := partition(net, p)
	if err != nil {
		return nil, err
	}
	b := len(h.Borders)
	if numBorders != b {
		return nil, fmt.Errorf("hiti: %d rows for %d borders", numBorders, b)
	}
	if full {
		// A full row's W* lives on pages of its own: patches replace them.
		if err := h.fullOver(net, ord); err != nil {
			return nil, err
		}
	} else {
		h.wb = staticRows(b)
	}
	for i := range h.wb {
		for k, pg := range h.wb[i] {
			w(pg[:min(WPageLen, b-k*WPageLen)])
		}
	}
	if !full {
		return h, nil
	}
	n := net.NumNodes()
	for i := range h.tree {
		for k, pg := range h.tree[i] {
			tree(pg[:min(PageLen, n-k*PageLen)])
		}
	}
	a, errs := h.leafAdjOf(), make([]error, len(h.tree))
	par.Chunks(len(h.tree), 1, func(lo, hi int) {
		walk := make([]int32, n)
		for i := lo; i < hi; i++ {
			if err := a.checkTree(h.tree[i], walk); err != nil {
				errs[i] = fmt.Errorf("hiti: row %d: %w", i, err)
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return h, nil
}

// leafAdj is the network in leaf order, what checkTree walks: slot s's
// neighbours, in adjacency order, are the slots adj[first[s]:first[s+1]],
// and border[s] tells whether s holds a border.
type leafAdj struct {
	first, adj []int32
	border     []bool
}

// leafAdjOf lays h.net out in h's leaf order.
func (h *Hyper) leafAdjOf() *leafAdj {
	n := len(h.seq)
	a := &leafAdj{first: make([]int32, n+1), adj: make([]int32, 0, 2*h.net.NumEdges()), border: make([]bool, n)}
	for s, x := range h.seq {
		for _, e := range h.net.Neighbors(x) {
			a.adj = append(a.adj, int32(h.pos[e.To]))
		}
		a.first[s+1] = int32(len(a.adj))
		a.border[s] = h.row[x] >= 0
	}
	return a
}

// checkTree holds tree, in one pass over its slots, to what fold and Repair
// walk: every slot is graph.NoParent or an index into its node's
// adjacency, and no parent chain closes a cycle before it reaches a border
// or graph.NoParent.
// walk is |V| scratch. Whether the tree's edges are tight is not checked:
// queries and proofs read W*, never a tree, and a loose tree folds to
// values the certificate audit rejects.
func (a *leafAdj) checkTree(tree []*page, walk []int32) error {
	// walk[s] is 1 + the slot whose chain first passed s: a chain that
	// meets its own mark closes a cycle, one that meets an earlier chain's
	// ends where that chain did.
	clear(walk)
	for s0 := range walk {
		mark := int32(s0) + 1
		for s := s0; ; {
			k := tree[s/PageLen][s%PageLen]
			if k != graph.NoParent && int32(k) >= a.first[s+1]-a.first[s] {
				return fmt.Errorf("parent slot %d of %d at leaf %d", k, a.first[s+1]-a.first[s], s)
			}
			if a.border[s] || k == graph.NoParent {
				break
			}
			walk[s] = mark
			if s = int(a.adj[a.first[s]+int32(k)]); walk[s] != 0 {
				if walk[s] == mark {
					return fmt.Errorf("parents close a cycle through leaf %d", s)
				}
				break
			}
		}
	}
	return nil
}

// HasFullRows reports whether full distance rows have been materialized
// (the update pipeline's storage form).
func (h *Hyper) HasFullRows() bool { return h.tree != nil }

// Updated is the update pipeline's one entry: it returns a Hyper with full
// rows over net, the batch's network, paged under ord, the network's leaf
// ordering, together with the number of rows whose values were recomputed
// or moved and the nodes repair re-settled. A static receiver is upgraded
// (WithFullRows: every row recomputed, static deployments never pay the
// B·|V| form); a full one has its rows repaired through steps, the batch's
// real re-weightings (WithRepairedRows), and is returned as it is when
// there are none.
func (h *Hyper) Updated(net *graph.CSR, ord *order.Ordering, steps []sp.Step) (*Hyper, int, int, error) {
	switch {
	case h.tree == nil:
		nh, err := h.WithFullRows(net, ord)
		if err != nil {
			return nil, 0, 0, err
		}
		return nh, len(h.Borders), 0, nil
	case len(steps) == 0:
		return h, 0, 0, nil
	}
	nh, rows, resettled := h.WithRepairedRows(steps)
	return nh, rows, resettled, nil
}

// WithFullRows returns a Hyper carrying full distance rows computed over
// net and paged under ord, the network's leaf ordering: the same searches
// Build runs (searchRows), each tree its search's parent labels, so W* is
// bitwise what Build computes over net. Updates from here on repair the
// trees.
func (h *Hyper) WithFullRows(net *graph.CSR, ord *order.Ordering) (*Hyper, error) {
	nh := *h
	if err := nh.fullOver(net, ord); err != nil {
		return nil, err
	}
	nh.searchRows(net, nil)
	return &nh, nil
}

// searchRows fills the receiver's rows, W* pages and, for full rows,
// trees laid out beforehand, with one full search (sp.Workspace.FullRow)
// per border over net, workers in parallel: W* row i is search i's
// distances at the borders and tree i its parent slots, tight bit for bit
// by construction — a node's label is fl(d + w) over its parent's d. It is
// the one producer of both row forms, and hands each search to trees when
// that is not nil.
func (h *Hyper) searchRows(net *graph.CSR, trees sp.TreeSink) {
	n := net.NumNodes()
	par.Work(len(h.Borders), func(i int) {
		ws := sp.AcquireWorkspace(n)
		defer sp.ReleaseWorkspace(ws)
		ws.FullRow(net, h.Borders[i])
		w := h.wb[i]
		for j, v := range h.Borders {
			w[j/WPageLen][j%WPageLen] = ws.DistOf(v)
		}
		if trees != nil {
			trees(h.Borders[i], ws)
		}
		if h.tree == nil {
			return
		}
		tree := h.tree[i]
		for x := range graph.NodeID(n) {
			sl := h.pos[x]
			tree[sl/PageLen][sl%PageLen] = ws.SlotOf(x)
		}
	})
}

// fullOver readies the receiver for full rows over net in ord's leaf
// order: every row's W* and tree pages, the trees' slots graph.NoParent,
// yet to be filled.
func (h *Hyper) fullOver(net *graph.CSR, ord *order.Ordering) error {
	if err := net.CheckSlots(); err != nil {
		return err
	}
	h.net, h.pos, h.seq = net, ord.Pos, ord.Seq
	b := len(h.Borders)
	h.tree = make([][]*page, b)
	h.wb = make([][]*wpage, b)
	for i := range b {
		h.tree[i], h.wb[i] = newTree(net.NumNodes()), newW(b)
	}
	return nil
}

// newTree returns the pages of a tree over n nodes, every slot
// graph.NoParent.
func newTree(n int) []*page {
	out := make([]*page, (n+PageLen-1)/PageLen)
	for k := range out {
		p := new(page)
		for j := range p {
			p[j] = graph.NoParent
		}
		out[k] = p
	}
	return out
}

// newW returns the pages of a full row's W* row of b values.
func newW(b int) []*wpage {
	out := make([]*wpage, (b+WPageLen-1)/WPageLen)
	for k := range out {
		out[k] = new(wpage)
	}
	return out
}

// staticRows lays the b W* rows of b values out in one slab, as pages.
// Row i starts at value i·b, so its last page runs on into the next row (or
// into the slack after the last): pages overlap, which is sound because
// nothing reads or writes a page past its row's last column, and nothing
// writes a static page once built or loaded — full rows keep W* on pages
// of their own, so the slab pins nothing a patch frees.
func staticRows(b int) [][]*wpage {
	per := (b + WPageLen - 1) / WPageLen
	slab := make([]float64, b*b+WPageLen)
	pages := make([]*wpage, b*per)
	wb := make([][]*wpage, b)
	for i := range wb {
		row := pages[i*per : (i+1)*per : (i+1)*per]
		for k := range row {
			row[k] = (*wpage)(slab[i*b+k*WPageLen:])
		}
		wb[i] = row
	}
	return wb
}

// cow returns row with page k its own: row is old until its first page is
// copied, and a page still shared with old is copied before it is written.
func cow[P any](row, old []*P, k int) []*P {
	if &row[0] == &old[0] {
		row = slices.Clone(old)
	}
	if row[k] == old[k] {
		p := *old[k]
		row[k] = &p
	}
	return row
}

// WithRepairedRows returns a Hyper over the last step's network whose
// trees are the receiver's repaired through steps — the batch's edge
// re-weightings, each with the network after it, the first applying to
// the receiver's network — together with the number of rows whose values
// moved and the nodes repair re-settled. The receiver holds full rows and
// stays valid for concurrent readers: the result shares every tree and W*
// page whose contents are unchanged.
//
// Rows are repaired in parallel, one sp.Workspace.Repair per row and step.
// Repair reads values through treeRow, which folds each value it is asked
// for from the tree in a per-worker memo, so a row costs the chain walks
// to the nodes repair reads and the pages it changes — no row is folded
// whole.
func (h *Hyper) WithRepairedRows(steps []sp.Step) (*Hyper, int, int) {
	n := len(h.seq)
	nh := *h
	nh.net = steps[len(steps)-1].G
	nh.tree = make([][]*page, len(h.tree))
	nh.wb = make([][]*wpage, len(h.wb))
	var moved, resettled atomic.Int64
	par.Work(len(h.tree), func(i int) {
		ws := sp.AcquireWorkspace(n)
		r := treeRow{h: h, i: i, net: h.net, s: acquireScratch(n), tree: h.tree[i], w: h.wb[i]}
		for _, st := range steps {
			resettled.Add(int64(ws.Repair(st, h.Borders[i], &r)))
			r.flush()
			r.net = st.G
		}
		sp.ReleaseWorkspace(ws)
		releaseScratch(r.s)
		nh.tree[i], nh.wb[i] = r.tree, r.w
		if r.moved {
			moved.Add(1)
		}
	})
	return &nh, int(moved.Load()), int(resettled.Load())
}

// treeRow is one border's row under repair, an sp.Row over its tree. At
// folds the value the tree held before the step (memoized); Set is held
// back until the step ends, because Repair reads nodes it has not set yet
// while their old parents may lead through nodes it has — flush then
// writes the values into the memo and the parents and W* values that
// changed into copies of the pages holding them.
type treeRow struct {
	h     *Hyper
	i     int        // the row's index in Borders
	net   *graph.CSR // the network before the step being repaired
	s     *treeScratch
	tree  []*page  // h.tree's row until a page is copied
	w     []*wpage // h.wb's row until a page is copied
	moved bool     // some value changed
}

// At returns the row's value at x before the step.
func (r *treeRow) At(x graph.NodeID) float64 {
	if m := r.s.memo[x]; m.epoch == r.s.epoch {
		return m.d
	}
	return r.h.fold(r.s, r.net, r.tree, r.w, x)
}

// Set records x's value after the step and its parent.
func (r *treeRow) Set(x graph.NodeID, d float64, p graph.NodeID) {
	r.s.sets = append(r.s.sets, settle{x, p, d})
}

func (r *treeRow) flush() {
	h := r.h
	for _, c := range r.s.sets {
		if m := r.s.memo[c.x]; m.epoch != r.s.epoch || math.Float64bits(m.d) != math.Float64bits(c.d) {
			r.moved = true
		}
		r.s.mark(c.x, c.d)
		s := uint(h.pos[c.x])
		if k := r.tree[s/PageLen][s%PageLen]; !h.isParent(c.x, k, c.p) {
			k = h.net.ParentSlot(c.x, c.p)
			r.tree = cow(r.tree, h.tree[r.i], int(s/PageLen))
			r.tree[s/PageLen][s%PageLen] = k
		}
		if j := uint(h.row[c.x]); h.row[c.x] >= 0 && math.Float64bits(r.w[j/WPageLen][j%WPageLen]) != math.Float64bits(c.d) {
			r.w = cow(r.w, h.wb[r.i], int(j/WPageLen))
			r.w[j/WPageLen][j%WPageLen] = c.d
		}
	}
	r.s.sets = r.s.sets[:0]
}

// fold returns x's value in the row of tree and W* row w over net,
// memoizing x and every node the walk up to a known ancestor passes: a
// memoized node, or a border, whose value W* holds (the walk never needs
// to pass one: a chain into x's cell enters it through a border, and the
// row's own border is one). From that ancestor down, each value is
// fl(parent's value + w), the addition the search that settled it made.
func (h *Hyper) fold(s *treeScratch, net *graph.CSR, tree []*page, w []*wpage, x graph.NodeID) float64 {
	walk := s.walk[:0]
	y := x
	for s.memo[y].epoch != s.epoch {
		if j := uint(h.row[y]); h.row[y] >= 0 {
			s.mark(y, w[j/WPageLen][j%WPageLen])
			break
		}
		sl := uint(h.pos[y])
		k := tree[sl/PageLen][sl%PageLen]
		if k == graph.NoParent {
			s.mark(y, sp.Unreachable)
			break
		}
		e := net.Neighbors(y)[k]
		walk = append(walk, link{y, e.W})
		y = e.To
	}
	d := s.memo[y].d
	for j := len(walk) - 1; j >= 0; j-- {
		d += walk[j].w
		s.mark(walk[j].x, d)
	}
	s.walk = walk
	return d
}

// isParent reports whether slot k names p as x's parent.
func (h *Hyper) isParent(x graph.NodeID, k uint16, p graph.NodeID) bool {
	if k == graph.NoParent {
		return p == graph.Invalid
	}
	return p != graph.Invalid && h.net.Neighbors(x)[k].To == p
}

// treeScratch is one worker's scratch over a row: memo[x] holds x's
// folded value while its epoch is the scratch's (one epoch per row), walk
// the chain being folded, sets Repair's writes of one step.
type treeScratch struct {
	epoch uint32
	memo  []memo
	walk  []link
	sets  []settle
}

// memo is a node's folded value, stamped so a reset costs O(1).
type memo struct {
	epoch uint32
	d     float64
}

type link struct {
	x graph.NodeID
	w float64
}

type settle struct {
	x, p graph.NodeID
	d    float64
}

var treeScratchPool = sync.Pool{New: func() any { return new(treeScratch) }}

// acquireScratch returns a pooled scratch for rows of n nodes, reset.
func acquireScratch(n int) *treeScratch {
	s := treeScratchPool.Get().(*treeScratch)
	if len(s.memo) < n {
		s.memo, s.epoch = make([]memo, n), 0
	}
	s.reset()
	return s
}

func releaseScratch(s *treeScratch) { treeScratchPool.Put(s) }

// reset forgets every memoized value in O(1).
func (s *treeScratch) reset() {
	s.epoch++
	if s.epoch == 0 {
		clear(s.memo)
		s.epoch = 1
	}
}

func (s *treeScratch) mark(x graph.NodeID, d float64) {
	s.memo[x] = memo{s.epoch, d}
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
// values differ bitwise from old's — the leaves an update rewrites — with
// ends, the leaf positions (in the network tree's order) of both borders
// of each, and fresh, the bytes of tree and W* pages the receiver does
// not share with old. ends may repeat a position. It reads only the W*
// pages not shared: the entry {u, v} with u < v takes its value from u's
// row (weight), so only a changed value at a border column v > u of row u
// can move one. old shares the receiver's partition and holds either
// storage form (against the static form every page is fresh); the
// receiver holds full rows.
func (h *Hyper) Moved(old *Hyper) (moved []mbt.ProvenEntry, ends []int, fresh int) {
	for i, row := range h.wb {
		u := h.Borders[i]
		for k, p := range row {
			q := old.wb[i][k]
			if p == q {
				continue
			}
			fresh += wpageBytes
			for j, v := range h.Borders[k*WPageLen : min((k+1)*WPageLen, len(h.Borders))] {
				if v > u && math.Float64bits(p[j]) != math.Float64bits(q[j]) {
					moved = append(moved, h.proven(u, v))
					ends = append(ends, h.pos[u], h.pos[v])
				}
			}
		}
	}
	for i, tree := range h.tree {
		for k, p := range tree {
			if old.tree == nil || old.tree[i][k] != p {
				fresh += pageBytes
			}
		}
	}
	return moved, ends, fresh
}

// weight is W* of the border pair {u, v} as the tree carries it: read from
// the lower-ID border's row, since dist(u, v) and dist(v, u) come from
// different searches and may differ in their last bits, and the signed
// leaves have always carried that row's.
func (h *Hyper) weight(u, v graph.NodeID) float64 {
	if v < u {
		u, v = v, u
	}
	return h.at(u, v)
}

// at is W*(u, v) as u's row holds it.
func (h *Hyper) at(u, v graph.NodeID) float64 {
	j := uint(h.row[v])
	return h.wb[h.row[u]][j/WPageLen][j%WPageLen]
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
	return h.at(u, v), true
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

// AppendEntries appends the hyper-edge entries at leaf indices [lo, hi)
// to dst, in leaf order — strictly increasing by key, self-pairs (weight
// 0) included so that border sets of size one still yield a provable key
// set — and returns the extended slice: the distance tree's mbt.Source.
// The first entry is located by LeafIndex's arithmetic run backwards, the
// rest by stepping through the layout, so a range costs its length.
func (h *Hyper) AppendEntries(dst []mbt.Entry, lo, hi int) []mbt.Entry {
	if lo >= hi {
		return dst
	}
	cells := len(h.cellBorders)
	// Cell c's run holds leaves [first[c], first[c+1]); an empty cell's is
	// empty, so the search lands on the cell holding lo.
	c := sort.Search(cells, func(c int) bool { return h.first[c+1] > lo })
	k := len(h.cellBorders[c])
	d, a, b := c, 0, 0
	if r := lo - h.first[c]; r < k*(k+1)/2 {
		// The triangle: row a holds k-a pairs.
		for ; r >= k-a; a++ {
			r -= k - a
		}
		b = a + r
	} else {
		// The blocks: cell d's is k × (its border count), c's border major.
		r -= k * (k + 1) / 2
		d = c + 1 + sort.Search(cells-c-1, func(i int) bool { return h.before[c+2+i]-h.before[c+1] > r/k })
		r -= k * (h.before[d] - h.before[c+1])
		a, b = r/len(h.cellBorders[d]), r%len(h.cellBorders[d])
	}
	for i := lo; i < hi; i++ {
		bc, bd := h.cellBorders[c], h.cellBorders[d]
		dst = append(dst, h.entry(bc[a], bd[b]))
		if b++; b < len(bd) {
			continue
		}
		if a++; a == len(bc) {
			// The next cell with borders: above d in c's run, else the
			// next run's own triangle.
			a = 0
			for d++; d < cells && len(h.cellBorders[d]) == 0; d++ {
			}
			if d == cells {
				for c++; c < cells && len(h.cellBorders[c]) == 0; c++ {
				}
				d = c
			}
		}
		b = 0
		if d == c {
			b = a
		}
	}
	return dst
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
