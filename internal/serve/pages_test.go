package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"github.com/authhints/spv/internal/core"
	"github.com/authhints/spv/internal/graph"
)

// add caches an n-byte wire under k, with no generation check.
func (c *lruCache) add(k cacheKey, n int) bool {
	return c.insert(k, cached{}, make([]byte, n), nil, 0)
}

// has reports whether k is cached, refreshing it as a hit would.
func (c *lruCache) has(k cacheKey) bool {
	ent := c.pin(k)
	if ent != nil {
		c.unpin(ent)
	}
	return ent != nil
}

// checkPages fails t unless every page ever handed out is either free or
// held by exactly one live, unpinned entry, and the live entries' pages fit
// the budget.
func (c *lruCache) checkPages(t *testing.T) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := make(map[int32]string, c.arena.next)
	claim := func(p int32, by string) {
		if p < 0 || p >= c.arena.next {
			t.Errorf("%s holds page %d, outside the %d handed out", by, p, c.arena.next)
		} else if prev, dup := seen[p]; dup {
			t.Errorf("page %d held by %s and by %s", p, prev, by)
		}
		seen[p] = by
	}
	for _, p := range c.arena.free {
		claim(p, "the free list")
	}
	held := 0
	for el := c.order.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*lruEntry)
		if r := ent.refs.Load(); r != 1 {
			t.Errorf("entry %v has %d references at rest, want 1", ent.key, r)
		}
		if len(ent.pages) != pagesFor(ent.n) {
			t.Errorf("entry %v: %d pages for %d bytes", ent.key, len(ent.pages), ent.n)
		}
		for _, p := range ent.pages {
			claim(p, fmt.Sprint(ent.key))
		}
		held += len(ent.pages)
	}
	if len(seen) != int(c.arena.next) {
		t.Errorf("%d pages accounted for, %d handed out", len(seen), c.arena.next)
	}
	if int64(held)*pageSize > c.maxBytes || c.bytes > c.maxBytes {
		t.Errorf("%d pages and %d bytes held over a %d-byte budget", held, c.bytes, c.maxBytes)
	}
}

// released reports whether the arena has given its memory back.
func (a *arena) released() bool { return a.mem == nil && a.chunks == nil }

// TestStaleBuildNotCachedAfterSwap drives the interleaving a proof build
// can lose to a hot-swap: the build reads its method's generation, the swap
// bumps it and runs its invalidation pass, and only then does the build
// insert. The insert compares generations under the cache lock, so the
// pre-swap proof is refused rather than served until evicted.
func TestStaleBuildNotCachedAfterSwap(t *testing.T) {
	w := testWorld(t)
	e := w.engine(Options{})
	sl := e.run[core.LDM]
	q := w.queries[0]
	k := cacheKey{m: core.LDM, vs: q.S, vt: q.T}
	pr, err := w.ldm.QueryProof(q.S, q.T)
	if err != nil {
		t.Fatal(err)
	}
	wire := pr.AppendBinary(nil)

	gen := sl.gen.Load() // the build starts
	if err := e.Swap(w.ldm, nil); err != nil {
		t.Fatal(err)
	}
	if e.cache.insert(k, cached{}, wire, &sl.gen, gen) || e.cache.has(k) {
		t.Error("a proof built before a swap was cached after its invalidation pass")
	}
	if !e.cache.insert(k, cached{}, wire, &sl.gen, sl.gen.Load()) || !e.cache.has(k) {
		t.Error("a proof built after the swap was not cached")
	}
	e.cache.checkPages(t)
}

// TestArenaReusesFreedPages pins the page store's growth rule: freed pages
// are handed out again, last freed first and in their old order, before a
// fresh page is touched, so what is resident is the high-water mark of
// pages in use.
func TestArenaReusesFreedPages(t *testing.T) {
	c := newLRU(64 * pageSize)
	defer c.close()
	a, b := cacheKey{m: core.DIJ, vs: 1, vt: 2}, cacheKey{m: core.LDM, vs: 1, vt: 2}
	pagesOf := func(k cacheKey) []int32 {
		ent := c.pin(k)
		defer c.unpin(ent)
		return slices.Clone(ent.pages)
	}
	c.add(a, 3*pageSize)
	c.add(b, 2*pageSize+1)
	for i := 0; i < 4; i++ {
		first := pagesOf(a)
		c.Invalidate(core.DIJ, func(cacheKey, cached) bool { return true })
		c.add(a, 3*pageSize)
		if got := pagesOf(a); !slices.Equal(got, first) {
			t.Errorf("round %d: re-added entry got pages %v, freed %v", i, got, first)
		}
		if c.arena.next != 6 {
			t.Errorf("round %d: %d pages touched, want the high-water mark 6", i, c.arena.next)
		}
	}
	c.checkPages(t)
}

// blockingWriter is a ResponseWriter whose first Write announces itself and
// then waits, so a test can act while a handler is mid-write.
type blockingWriter struct {
	sinkWriter
	entered, proceed chan struct{}
	body             []byte
}

func (b *blockingWriter) Write(p []byte) (int, error) {
	if b.body == nil {
		close(b.entered)
		<-b.proceed
	}
	b.body = append(b.body, p...) // read after the wait: the pages must still be there
	return b.sinkWriter.Write(p)
}

// TestCloseDuringPinnedRead closes an engine while a binary /query hit is
// writing from its pinned pages: the body completes intact, the arena is
// released only when that write returns, Close is idempotent, and the
// engine answers on, uncached.
func TestCloseDuringPinnedRead(t *testing.T) {
	w := testWorld(t)
	e := w.engine(Options{})
	srv, err := NewServer(e, w.verifier)
	if err != nil {
		t.Fatal(err)
	}
	q := largestProof(t, w.dij, w.queries)
	want, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	bw := &blockingWriter{sinkWriter: sinkWriter{h: http.Header{}}, entered: make(chan struct{}), proceed: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeHTTP(bw, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/query?method=DIJ&vs=%d&vt=%d&format=binary", q.VS, q.VT), nil))
	}()
	<-bw.entered
	e.Close()
	e.Close()
	e.cache.mu.Lock()
	inUse, released := e.cache.arena.inUse(), e.cache.arena.released()
	e.cache.mu.Unlock()
	if released || inUse == 0 {
		t.Errorf("arena released (%v, %d pages in use) under a pinned read", released, inUse)
	}
	close(bw.proceed)
	<-done
	if bw.sinkWriter.h.Get("X-Spv-Cached") != "true" || !bytes.Equal(bw.body, want.Proof) {
		t.Errorf("the pinned read did not complete intact (cached %q, %d of %d bytes)",
			bw.sinkWriter.h.Get("X-Spv-Cached"), len(bw.body), len(want.Proof))
	}
	e.cache.mu.Lock()
	released = e.cache.arena.released()
	e.cache.mu.Unlock()
	if !released {
		t.Error("arena still held after the last pinned read returned")
	}
	for i := 0; i < 2; i++ {
		a, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if a.Cached || !bytes.Equal(a.Proof, want.Proof) {
			t.Errorf("query %d after Close: cached %v, proof equal %v", i, a.Cached, bytes.Equal(a.Proof, want.Proof))
		}
	}
	if s := e.Stats(); s.CacheLen != 0 || s.CacheBytes != 0 {
		t.Errorf("closed cache holds %d entries, %d bytes", s.CacheLen, s.CacheBytes)
	}
}

// TestPageStoreHammer runs JSON, binary and /batch (inline and shared)
// reads — hits, misses and LRU evictions — on a cache of a few pages while
// hot-swaps invalidate underneath them. Every body must carry exactly the
// proof built for its key, and at rest every page must be free or held by
// one live entry. Under make race it also checks that pins order every page
// write after the last read of the page's previous entry.
func TestPageStoreHammer(t *testing.T) {
	w := testWorld(t)
	provs := []core.Provider{w.dij, w.full, w.ldm, w.hyp}
	type key struct {
		m      core.Method
		vs, vt int32
	}
	want := map[key][]byte{}
	var keys []key
	for _, p := range provs {
		for _, s := range w.queries {
			for _, d := range w.queries[:4] {
				pr, err := p.QueryProof(s.S, d.T)
				if err != nil {
					continue
				}
				k := key{p.Method(), int32(s.S), int32(d.T)}
				want[k] = pr.AppendBinary(nil)
				keys = append(keys, k)
			}
		}
	}
	e := NewEngine(Options{CacheBytes: 8 * pageSize})
	for _, p := range provs {
		e.Register(p)
	}
	srv, err := NewServer(e, w.verifier)
	if err != nil {
		t.Fatal(err)
	}

	const workers, rounds = 4, 300
	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			fail := func(format string, a ...any) { errc <- fmt.Errorf(format, a...) }
			for i := 0; i < rounds; i++ {
				k := keys[rng.Intn(len(keys))]
				url := fmt.Sprintf("/query?method=%s&vs=%d&vt=%d", k.m, k.vs, k.vt)
				rec := httptest.NewRecorder()
				switch mode := rng.Intn(4); mode {
				case 0:
					srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
					var a wireAnswer
					if err := json.Unmarshal(rec.Body.Bytes(), &a); err != nil || !bytes.Equal(a.Proof, want[k]) {
						fail("JSON %v: err %v, proof differs", k, err)
						return
					}
				case 1:
					srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url+"&format=binary", nil))
					if !bytes.Equal(rec.Body.Bytes(), want[k]) {
						fail("binary %v: proof differs", k)
						return
					}
				default:
					ks := []key{k, keys[rng.Intn(len(keys))], k, keys[rng.Intn(len(keys))]}
					qs := make([]string, len(ks))
					for j, k := range ks {
						qs[j] = fmt.Sprintf(`{"method":%q,"vs":%d,"vt":%d}`, k.m, k.vs, k.vt)
					}
					enc := ""
					if mode == 3 {
						enc = `,"encoding":"shared"`
					}
					body := `{"queries":[` + strings.Join(qs, ",") + `]` + enc + `}`
					srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(body)))
					var reply batchReply
					if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || len(reply.Answers) != len(ks) {
						fail("batch: status %d, err %v", rec.Code, err)
						return
					}
					if mode == 2 {
						for j, a := range reply.Answers {
							if !bytes.Equal(a.Proof, want[ks[j]]) {
								fail("batch item %d %v: proof differs", j, ks[j])
								return
							}
						}
						continue
					}
					for _, b := range reply.Batches {
						items := make([]core.WireItem, len(b.Items))
						for j, it := range b.Items {
							k := ks[it]
							items[j] = core.WireItem{VS: reply.Answers[it].VS, VT: reply.Answers[it].VT, Wire: want[k]}
						}
						blob, err := core.AppendWireBatch(nil, b.Method, items)
						if err != nil || !bytes.Equal(blob, b.Batch) {
							fail("shared %s blob differs (err %v)", b.Method, err)
							return
						}
					}
				}
			}
		}(int64(g + 1))
	}
	swapped := make(chan struct{})
	go func() {
		defer close(swapped)
		for i := 0; !stop.Load(); i++ {
			p := provs[i%len(provs)]
			var st *core.PatchStats
			if i%2 == 1 {
				st = &core.PatchStats{Stale: []int{i % 64}}
			}
			if err := e.Swap(p, st); err != nil {
				errc <- err
				return
			}
			e.cache.mu.Lock()
			over := int64(e.cache.arena.inUse())*pageSize > e.cache.maxBytes
			e.cache.mu.Unlock()
			if over {
				errc <- fmt.Errorf("pages in use exceed the budget")
				return
			}
		}
	}()
	wg.Wait()
	stop.Store(true)
	<-swapped
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	s := e.Stats()
	if s.Hits == 0 || s.CacheEvictions == 0 || s.CacheInvalidated == 0 {
		t.Errorf("hammer missed a path: %d hits, %d evictions, %d invalidated", s.Hits, s.CacheEvictions, s.CacheInvalidated)
	}
	assertLedger(t, s)
	e.cache.checkPages(t)
}

// TestScatteredPagesEncodeAsOneWire writes an entry into pages that are not
// adjacent and checks every reader of pages against the wire itself: the
// JSON answer (base64 run by run) against encoding/json's, the contiguous
// view /batch frames, and a library caller's copy.
func TestScatteredPagesEncodeAsOneWire(t *testing.T) {
	c := newLRU(16 * pageSize)
	defer c.close()
	for vt := 1; vt <= 3; vt++ {
		c.add(cacheKey{m: core.DIJ, vs: 0, vt: graph.NodeID(vt)}, pageSize)
	}
	// Drop the first and third: their pages, 0 and 2, are what is free.
	c.Invalidate(core.DIJ, func(k cacheKey, _ cached) bool { return k.vt != 2 })
	wire := make([]byte, 2*pageSize-7)
	rand.New(rand.NewSource(1)).Read(wire)
	k := cacheKey{m: core.LDM, vs: 4, vt: 5}
	c.insert(k, cached{dist: 3, hops: 2}, wire, nil, 0)
	ent := c.pin(k)
	if ent == nil || len(ent.pages) != 2 || ent.pages[1] == ent.pages[0]+1 {
		t.Fatalf("entry not scattered across pages: %+v", ent)
	}
	r := reply{Answer: answer(Query{Method: core.LDM, VS: 4, VT: 5}, ent.val, true), pinned: pages{c, ent}}
	got, err := appendAnswer(nil, toWire(&r))
	if err != nil {
		t.Fatal(err)
	}
	wa := toWire(&r)
	wa.Proof, wa.pinned = wire, pages{}
	want, _ := json.Marshal(wa)
	if !bytes.Equal(got, want) {
		t.Errorf("JSON from scattered pages differs from encoding/json's")
	}
	if !bytes.Equal(r.pinned.contiguous(), wire) {
		t.Error("contiguous view of scattered pages differs from the wire")
	}
	if a := r.own(); !bytes.Equal(a.Proof, wire) {
		t.Error("owned copy of scattered pages differs from the wire")
	}
	c.checkPages(t)
}

// TestUnreachableCacheReleasesArena pins that an engine nobody closes does
// not keep its mapping: once the cache is unreachable its finalizer unmaps
// the arena. Tests build engines by the dozen and never close them.
func TestUnreachableCacheReleasesArena(t *testing.T) {
	c := newLRU(64 * pageSize)
	if c.arena.mem == nil {
		t.Skip("heap-backed arena")
	}
	c.add(cacheKey{m: core.DIJ, vs: 1, vt: 2}, 5*pageSize)
	addr := uint64(uintptr(unsafe.Pointer(unsafe.SliceData(c.arena.mem))))
	mapped := func() bool {
		maps, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Skip("no /proc/self/maps to look for the mapping in")
		}
		for _, line := range strings.Split(string(maps), "\n") {
			var lo, hi uint64
			if _, err := fmt.Sscanf(line, "%x-%x", &lo, &hi); err == nil && lo <= addr && addr < hi {
				return true
			}
		}
		return false
	}
	if !mapped() {
		t.Fatalf("arena at %#x not in /proc/self/maps", addr)
	}
	c = nil
	for i := 0; i < 20 && mapped(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if mapped() {
		t.Errorf("arena at %#x still mapped after its cache became unreachable", addr)
	}
}
