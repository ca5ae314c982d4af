// Package sp implements the shortest path searches the owner and the
// provider run (paper §II-C): Dijkstra's algorithm on a reusable
// Workspace — the bounded, ball and targeted searches that serve queries,
// and FullRow, the one search behind every full distance row, whose heap
// holds only branch nodes while degree-2 chains are walked in place —
// all-pairs rows as repeated full rows, with Floyd–Warshall kept as their
// oracle, and Repair, which carries a stored row across one edge
// re-weighting by re-settling only the nodes whose distance moves, bitwise
// what a fresh search would give (the owner's incremental updates keep
// LDM's and HYP's rows current with it alone). The client's A* runs over a
// proof's own tuples (core's tupleAStar) on this package's Heap. All
// searches require non-negative edge weights, which the graph substrate
// enforces.
package sp

import "github.com/authhints/spv/internal/graph"

// Heap is an indexed binary min-heap over the dense ID range [0, n), keyed
// by float64 priorities. Decrease-key runs in O(log n) through a position
// array (no map), which keeps Dijkstra at the textbook O((V+E) log V)
// without a per-search allocation. It is the one heap in the tree: the
// graph-side searches (Workspace) index it by node ID, the
// client-side proof searches in the core package by tuple-table slot —
// never by an attacker-chosen ID, so the dense array cannot be used to
// amplify allocations.
type Heap struct {
	items []heapItem
	pos   []int32 // pos[v] = 1 + index of v in items; 0 ⇔ not queued
}

type heapItem struct {
	node graph.NodeID
	key  float64
}

// NewHeap returns an empty heap for IDs in [0, n).
func NewHeap(n int) *Heap {
	h := &Heap{}
	h.Reset(n)
	return h
}

// Reset empties the heap for reuse over IDs in [0, n), keeping its
// storage. Only the positions of still-queued IDs need clearing (Pop
// clears its own), so a reset costs O(queued), not O(n).
func (h *Heap) Reset(n int) {
	for _, it := range h.items {
		h.pos[it.node] = 0
	}
	h.items = h.items[:0]
	if n > len(h.pos) {
		h.pos = make([]int32, n)
	}
}

func (h *Heap) Len() int { return len(h.items) }

// Push inserts node with the given key. The node must not be present.
func (h *Heap) Push(node graph.NodeID, key float64) {
	h.items = append(h.items, heapItem{node, key})
	h.up(len(h.items) - 1)
}

// Pop removes and returns the minimum-key node.
func (h *Heap) Pop() (graph.NodeID, float64) {
	top := h.items[0]
	last := len(h.items) - 1
	moved := h.items[last]
	h.items = h.items[:last]
	h.pos[top.node] = 0
	if last > 0 {
		h.items[0] = moved
		h.down(0)
	}
	return top.node, top.key
}

// Peek returns the minimum key without removing it. Valid only when
// Len() > 0.
func (h *Heap) Peek() float64 { return h.items[0].key }

// DecreaseKey lowers the key of a queued node. It is a no-op if the node
// is not queued or the new key is not smaller.
func (h *Heap) DecreaseKey(node graph.NodeID, key float64) {
	i := int(h.pos[node]) - 1
	if i < 0 || h.items[i].key <= key {
		return
	}
	h.items[i].key = key
	h.up(i)
}

// Contains reports whether node is currently queued.
func (h *Heap) Contains(node graph.NodeID) bool {
	return int(node) < len(h.pos) && h.pos[node] != 0
}

// up and down sift a hole, not swaps: the moving item is carried, each
// displaced item is written (with its position) once, and the carried item
// lands once at the end. The comparisons, and their order, are those of the
// swapping sift, so pop order — ties included — is unchanged.
func (h *Heap) up(i int) {
	it := h.items[i]
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].key <= it.key {
			break
		}
		h.items[i] = h.items[parent]
		h.pos[h.items[i].node] = int32(i + 1)
		i = parent
	}
	h.items[i] = it
	h.pos[it.node] = int32(i + 1)
}

func (h *Heap) down(i int) {
	n := len(h.items)
	it := h.items[i]
	for {
		l, r := 2*i+1, 2*i+2
		small, key := i, it.key
		if l < n && h.items[l].key < key {
			small, key = l, h.items[l].key
		}
		if r < n && h.items[r].key < key {
			small = r
		}
		if small == i {
			break
		}
		h.items[i] = h.items[small]
		h.pos[h.items[i].node] = int32(i + 1)
		i = small
	}
	h.items[i] = it
	h.pos[it.node] = int32(i + 1)
}
