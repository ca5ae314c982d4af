package serve

import (
	"container/list"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/authhints/spv/internal/core"
	"github.com/authhints/spv/internal/graph"
)

// cacheKey identifies one proof: queries are symmetric in cost but not in
// encoding (paths are directed), so (vs, vt) and (vt, vs) are distinct
// entries.
type cacheKey struct {
	m      core.Method
	vs, vt graph.NodeID
}

// pageSize is the unit cached wires are stored in. It is a multiple of 3,
// so a wire base64-encodes page by page to exactly its one-shot encoding.
const pageSize = 3 << 10

// chunkPages pages make one chunk of the arena. A heap-backed arena
// allocates a chunk when its first page is handed out, so it grows with the
// high-water mark of pages in use rather than with the budget.
const chunkPages = 64

// entryOverhead approximates the per-entry bookkeeping cost charged against
// the byte budget on top of the wire's pages: key, list element, map slot,
// page list and the entry struct.
const entryOverhead = 128

// pagesFor returns how many pages an n-byte wire occupies.
func pagesFor(n int) int { return (n + pageSize - 1) / pageSize }

// entrySize is what caching an n-byte wire charges against the budget.
func entrySize(n int) int64 { return int64(pagesFor(n))*pageSize + entryOverhead }

// lruCache is a mutex-guarded LRU over exact proof encodings, bounded by
// total held bytes rather than entry count: proof sizes span orders of
// magnitude between methods (a FULL proof is a few hundred bytes, a
// long-range DIJ proof hundreds of KB), so an entry budget would make the
// cache's real memory footprint workload-dependent. An entry larger than
// the whole budget is simply not cached — caching it would evict everything
// else for one key.
//
// Keys, order and coverage live on the Go heap; the wires live in the
// pages of one arena outside it (anonymously mapped where the platform
// allows), so the collector neither scans nor paces against them and a
// budget of B costs B resident, not the twice-B a heap-held cache grows to.
// A reader pins an entry at lookup and unpins it once its response is
// written; an entry evicted or invalidated while pinned is dead — out of
// the index and the byte count — and its pages go back to the free list on
// the last unpin.
type lruCache struct {
	mu           sync.Mutex
	maxBytes     int64
	bytes        int64      // held by live entries, including per-entry overhead
	order        *list.List // front = most recent; values are *lruEntry
	items        map[cacheKey]*list.Element
	evictions    int64
	evictedBytes int64
	arena        arena
	closed       bool
}

// cached is an entry's answer apart from its wire: the headline numbers
// and the leaf coverage a hot-swap invalidates by.
type cached struct {
	dist float64
	hops int
	cov  cover
}

type lruEntry struct {
	key   cacheKey
	val   cached
	n     int     // wire length
	pages []int32 // the wire, pageSize bytes a page, in order
	size  int64
	// refs is 1 while the entry is cached plus 1 per pin; whoever drops it
	// to 0 returns the pages.
	refs atomic.Int32
}

func newLRU(maxBytes int64) *lruCache {
	c := &lruCache{
		maxBytes: maxBytes,
		order:    list.New(),
		items:    make(map[cacheKey]*list.Element),
		arena:    newArena(int(min(maxBytes/pageSize, math.MaxInt32))),
	}
	// An engine nobody closed must not keep its mapping: nothing reads the
	// pages once the cache is unreachable (a pinned reader holds it).
	runtime.SetFinalizer(c, (*lruCache).close)
	return c
}

// pin returns k's entry, promoted to most-recent and pinned, or nil. The
// caller reads it through pages and then calls unpin, exactly once.
func (c *lruCache) pin(k cacheKey) *lruEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return nil
	}
	c.order.MoveToFront(el)
	ent := el.Value.(*lruEntry)
	ent.refs.Add(1)
	return ent
}

// unpin releases a pin; the last reference to a dead entry frees its pages.
func (c *lruCache) unpin(ent *lruEntry) {
	if ent.refs.Add(-1) == 0 {
		c.mu.Lock()
		c.freePages(ent)
		c.mu.Unlock()
	}
}

// pages is a pinned entry's wire, read in place.
type pages struct {
	c   *lruCache
	ent *lruEntry
}

// each calls fn on the wire's bytes in order, one contiguous run of pages
// at a time. Every run but the last is a whole number of pages.
func (p pages) each(fn func([]byte)) {
	a, pg, left := &p.c.arena, p.ent.pages, p.ent.n
	for i := 0; i < len(pg); {
		j := i + 1
		for j < len(pg) && a.adjacent(pg[j-1], pg[j]) {
			j++
		}
		run := a.span(pg[i], j-i)
		run = run[:min(len(run), left)]
		left -= len(run)
		fn(run)
		i = j
	}
}

// contiguous returns the wire as one slice: its pages as they are when
// they form a single run, else a copy.
func (p pages) contiguous() []byte {
	var b []byte
	p.each(func(run []byte) {
		switch {
		case len(run) == p.ent.n:
			b = run // the whole wire
		case b == nil:
			b = append(make([]byte, 0, p.ent.n), run...)
		default:
			b = append(b, run...)
		}
	})
	return b
}

// insert caches wire under k with v's numbers, unless the counter gen no
// longer reads want when the entry is published (gen nil: no check). The
// wire is copied into reserved pages outside the lock; the compare and the
// publish happen under it, so a hot-swap that bumps gen and then
// invalidates under the same lock either refuses the entry or sees it. It
// reports whether the entry is now cached. An insert never waits for a
// pinned read and never grows the arena: when no page can be found it
// caches nothing.
func (c *lruCache) insert(k cacheKey, v cached, wire []byte, gen *atomic.Int64, want int64) bool {
	ent := &lruEntry{key: k, val: v, n: len(wire), size: entrySize(len(wire))}
	if !c.reserve(ent) {
		return false
	}
	for i, p := range ent.pages {
		copy(c.arena.span(p, 1), wire[i*pageSize:])
	}
	ent.refs.Store(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || (gen != nil && gen.Load() != want) {
		c.freePages(ent)
		return false
	}
	if el, ok := c.items[k]; ok {
		c.drop(el) // a concurrent miss on the same key got here first
	}
	c.items[k] = c.order.PushFront(ent)
	c.bytes += ent.size
	for c.bytes > c.maxBytes {
		c.evict(c.order.Back())
	}
	return true
}

// reserve takes ent's pages off the arena, evicting unpinned entries from
// the least-recent end while too few are free. It fails for an entry over
// the whole budget, on a closed cache, and when pinned entries hold every
// page it would need.
func (c *lruCache) reserve(ent *lruEntry) bool {
	k := pagesFor(ent.n)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || ent.size > c.maxBytes {
		return false
	}
	for el := c.order.Back(); c.arena.avail() < k && el != nil; {
		prev := el.Prev()
		if el.Value.(*lruEntry).refs.Load() == 1 {
			c.evict(el)
		}
		el = prev
	}
	if c.arena.avail() < k {
		return false
	}
	ent.pages = make([]int32, k)
	for i := range ent.pages {
		ent.pages[i] = c.arena.alloc()
	}
	return true
}

// evict removes el under budget pressure, counting it.
func (c *lruCache) evict(el *list.Element) {
	ent := el.Value.(*lruEntry)
	c.evictions++
	c.evictedBytes += ent.size
	c.drop(el)
}

// drop takes el out of the index and the byte count and releases the
// cache's reference: the pages are freed now, or by the last unpin.
func (c *lruCache) drop(el *list.Element) {
	ent := el.Value.(*lruEntry)
	c.order.Remove(el)
	delete(c.items, ent.key)
	c.bytes -= ent.size
	if ent.refs.Add(-1) == 0 {
		c.freePages(ent)
	}
}

// freePages returns ent's pages to the free list (in reverse, so the next
// reservation pops them in their old, contiguous order) and, on a closed
// cache, releases the arena once no page is in use. Caller holds mu.
func (c *lruCache) freePages(ent *lruEntry) {
	for i := len(ent.pages) - 1; i >= 0; i-- {
		c.arena.free = append(c.arena.free, ent.pages[i])
	}
	ent.pages = nil
	if c.closed && c.arena.inUse() == 0 {
		c.arena.release()
	}
}

// Invalidate removes every entry of method m for which pred returns true,
// returning how many were dropped. Invalidations are not counted as
// evictions — they are correctness drops, not budget pressure.
func (c *lruCache) Invalidate(m core.Method, pred func(cacheKey, cached) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	removed := 0
	var next *list.Element
	for el := c.order.Front(); el != nil; el = next {
		next = el.Next()
		ent := el.Value.(*lruEntry)
		if ent.key.m != m || !pred(ent.key, ent.val) {
			continue
		}
		c.drop(el)
		removed++
	}
	return removed
}

// close drops every entry and refuses later inserts; the arena is released
// as soon as no pinned entry still reads from it. Idempotent.
func (c *lruCache) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	for el := c.order.Front(); el != nil; el = c.order.Front() {
		c.drop(el)
	}
	if c.arena.inUse() == 0 {
		c.arena.release()
	}
}

// Len returns the current entry count.
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Bytes returns the bytes currently held (wire pages plus per-entry
// overhead).
func (c *lruCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Evictions returns the lifetime eviction count.
func (c *lruCache) Evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// EvictedBytes returns the lifetime bytes evicted.
func (c *lruCache) EvictedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictedBytes
}

// arena is the page store behind the cache: a fixed number of pageSize
// pages, handed out last-freed-first and fresh only when none is free, so
// what is resident is the high-water mark of pages in use. Guarded by the
// cache's mutex, except that a pinned or reserved entry's pages are read
// and written without it.
type arena struct {
	mem    []byte   // the anonymous mapping, page p at p·pageSize; nil on the heap
	chunks [][]byte // heap-backed: chunk j holds pages [j·chunkPages, (j+1)·chunkPages)
	n      int32    // pages in the arena
	next   int32    // pages [0, next) have been handed out at least once
	free   []int32  // LIFO
}

func newArena(pages int) arena {
	a := arena{n: int32(pages)}
	if a.mem = mapPages(pages * pageSize); a.mem == nil {
		a.chunks = make([][]byte, (pages+chunkPages-1)/chunkPages)
	}
	return a
}

func (a *arena) avail() int { return len(a.free) + int(a.n-a.next) }

func (a *arena) inUse() int { return int(a.next) - len(a.free) }

// alloc hands out one page; the caller has checked avail.
func (a *arena) alloc() int32 {
	if n := len(a.free); n > 0 {
		p := a.free[n-1]
		a.free = a.free[:n-1]
		return p
	}
	p := a.next
	a.next++
	if j := p / chunkPages; a.mem == nil && a.chunks[j] == nil {
		a.chunks[j] = make([]byte, int(min(chunkPages, a.n-j*chunkPages))*pageSize)
	}
	return p
}

// adjacent reports whether page q directly follows page p in memory.
func (a *arena) adjacent(p, q int32) bool {
	return q == p+1 && (a.mem != nil || q%chunkPages != 0)
}

// span returns k pages from p, each adjacent to the one before.
func (a *arena) span(p int32, k int) []byte {
	if a.mem != nil {
		return a.mem[int(p)*pageSize : (int(p)+k)*pageSize]
	}
	off := int(p%chunkPages) * pageSize
	return a.chunks[p/chunkPages][off : off+k*pageSize]
}

// release gives the arena's memory back; no page may be in use.
func (a *arena) release() {
	if a.mem != nil {
		unmapPages(a.mem)
	}
	a.mem, a.chunks, a.free, a.n, a.next = nil, nil, nil, 0, 0
}
