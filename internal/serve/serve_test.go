package serve

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/authhints/spv/internal/core"
	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/netgen"
	"github.com/authhints/spv/internal/sig"
	"github.com/authhints/spv/internal/workload"
)

// world is one owner + all four outsourced providers on a small network,
// shared across the package's tests (providers are immutable, so sharing
// is safe even under -race).
type world struct {
	g        *graph.Graph
	owner    *core.Owner
	verifier *sig.Verifier
	dij      core.Provider
	full     core.Provider
	ldm      core.Provider
	hyp      core.Provider
	queries  []workload.Query
}

var (
	worldOnce sync.Once
	theWorld  *world
	worldErr  error
)

func testWorld(t testing.TB) *world {
	t.Helper()
	worldOnce.Do(func() {
		g, err := netgen.Generate(netgen.DE, netgen.Config{Scale: 0.01})
		if err != nil {
			worldErr = err
			return
		}
		cfg := core.DefaultConfig()
		cfg.Landmarks = 8
		cfg.Cells = 16
		owner, err := core.NewOwner(g, cfg)
		if err != nil {
			worldErr = err
			return
		}
		w := &world{g: g, owner: owner, verifier: owner.Verifier()}
		outsource := func(m core.Method) core.Provider {
			p, e := owner.Outsource(m)
			worldErr = cmp.Or(worldErr, e)
			return p
		}
		w.dij, w.full = outsource(core.DIJ), outsource(core.FULL)
		w.ldm, w.hyp = outsource(core.LDM), outsource(core.HYP)
		if worldErr != nil {
			return
		}
		if w.queries, err = workload.Generate(g, 8, 2000, 7); err != nil {
			worldErr = err
			return
		}
		theWorld = w
	})
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	return theWorld
}

func (w *world) engine(opts Options) *Engine {
	e := NewEngine(opts)
	for _, p := range []core.Provider{w.dij, w.full, w.ldm, w.hyp} {
		e.Register(p)
	}
	return e
}

// verifyAnswer decodes an answer's wire proof and runs full client-side
// verification against the owner's public key.
func verifyAnswer(t *testing.T, v *sig.Verifier, a Answer) {
	t.Helper()
	if a.Err != nil {
		t.Fatalf("%v: %v", a.Query, a.Err)
	}
	q := a.Query
	pr, n, err := core.DecodeProof(q.Method, a.Proof)
	if err == nil {
		err = core.VerifyProof(v, q.Method, q.VS, q.VT, pr)
	}
	if err != nil {
		t.Fatalf("%s (%d→%d): %v", q.Method, q.VS, q.VT, err)
	}
	if n != len(a.Proof) {
		t.Fatalf("%s: decoded %d of %d proof bytes", q.Method, n, len(a.Proof))
	}
}

func TestEngineServesAllMethodsVerified(t *testing.T) {
	w := testWorld(t)
	e := w.engine(Options{})
	q := w.queries[0]
	for _, m := range core.Methods() {
		a, err := e.Query(Query{Method: m, VS: q.S, VT: q.T})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		verifyAnswer(t, w.verifier, a)
		if a.Cached {
			t.Errorf("%s: first query reported cached", m)
		}
	}
	if got := e.Stats().Misses; got != 4 {
		t.Errorf("misses = %d, want 4", got)
	}
}

// TestEngineCacheServesIdenticalWire pins what a cached answer is. A hit
// serves exactly the miss's bytes. A library caller's proof is its own: the
// engine copies it out of the cache's pages, so modifying it never reaches
// the cache or another answer, and a hit allocates that one slice. The HTTP
// handlers write straight from the pinned pages, so a JSON or binary hit
// allocates nothing proof-sized.
func TestEngineCacheServesIdenticalWire(t *testing.T) {
	w := testWorld(t)
	e := w.engine(Options{})
	q := largestProof(t, w.dij, w.queries)
	cold, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Error("second identical query not served from cache")
	}
	if !bytes.Equal(cold.Proof, warm.Proof) {
		t.Error("cached proof differs from cold proof")
	}
	verifyAnswer(t, w.verifier, warm)
	want := bytes.Clone(cold.Proof)
	if &warm.Proof[0] == &cold.Proof[0] {
		t.Error("two answers share one proof slice")
	}
	cold.Proof[0] ^= 0xff
	warm.Proof[len(warm.Proof)/2] ^= 0xff
	if last, err := e.Query(q); err != nil || !bytes.Equal(want, last.Proof) {
		t.Errorf("modifying a returned proof reached the cache (err %v)", err)
	}
	s := e.Stats()
	if s.Queries != 3 || s.Hits != 2 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 3 queries / 2 hits / 1 miss", s)
	}
	if n := testing.AllocsPerRun(100, func() { e.Query(q) }); n != 1 {
		t.Errorf("a library cache hit allocates %v times, want 1 (its proof)", n)
	}

	srv, err := NewServer(e, w.verifier)
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"", "&format=binary"} {
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/query?method=DIJ&vs=%d&vt=%d%s", q.VS, q.VT, format), nil)
		sw := &sinkWriter{h: http.Header{}}
		hit := func() {
			clear(sw.h)
			sw.code = 0
			srv.ServeHTTP(sw, req)
		}
		hit()
		if sw.code != http.StatusOK || sw.h.Get("X-Spv-Cached") == "false" {
			t.Fatalf("GET /query%s: status %d, cached header %q", format, sw.code, sw.h.Get("X-Spv-Cached"))
		}
		if raceEnabled {
			continue // sync.Pool drops pooled bodies at random under -race
		}
		var before, after runtime.MemStats
		const runs = 100
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			hit()
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("GET /query%s hit: %d B allocated, proof %d B", format, per, len(want))
		if per >= uint64(len(want))/2 {
			t.Errorf("GET /query%s hit allocates %d B, want well under the %d-byte proof", format, per, len(want))
		}
	}
}

// largestProof returns the query, from a source in qs to a target in qs,
// whose proof from p is longest.
func largestProof(t testing.TB, p core.Provider, qs []workload.Query) Query {
	t.Helper()
	var best Query
	most := 0
	for _, s := range qs {
		for _, d := range qs {
			pr, err := p.QueryProof(s.S, d.T)
			if err != nil {
				continue // vs == vt
			}
			if n := len(pr.AppendBinary(nil)); n > most {
				best, most = Query{Method: p.Method(), VS: s.S, VT: d.T}, n
			}
		}
	}
	return best
}

func TestEngineCacheDisabled(t *testing.T) {
	w := testWorld(t)
	e := w.engine(Options{CacheBytes: -1})
	q := Query{Method: core.LDM, VS: w.queries[0].S, VT: w.queries[0].T}
	for i := 0; i < 2; i++ {
		a, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if a.Cached {
			t.Error("cache disabled but answer reported cached")
		}
	}
	if s := e.Stats(); s.Misses != 2 || s.Hits != 0 {
		t.Errorf("stats = %+v, want 2 misses / 0 hits", s)
	}
}

func TestEngineLRUEviction(t *testing.T) {
	w := testWorld(t)
	qs := make([]Query, 3)
	for i := range qs {
		qs[i] = Query{Method: core.FULL, VS: w.queries[i].S, VT: w.queries[i].T}
	}
	// Measure the three proofs' cache footprints on a cache-less engine,
	// then budget the real engine for exactly the last two: adding the
	// third proof must push the first one out.
	probe := w.engine(Options{CacheBytes: -1})
	sizes := make([]int64, len(qs))
	for i, q := range qs {
		a, err := probe.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		sizes[i] = entrySize(len(a.Proof))
	}
	e := w.engine(Options{CacheBytes: sizes[1] + sizes[2]})
	for _, q := range qs {
		if _, err := e.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if s.CacheLen != 2 || s.CacheEvictions != 1 {
		t.Errorf("cache len %d evictions %d, want 2 and 1", s.CacheLen, s.CacheEvictions)
	}
	if s.CacheBytes > sizes[1]+sizes[2] || s.CacheBytes <= 0 {
		t.Errorf("cache bytes %d outside budget (0, %d]", s.CacheBytes, sizes[1]+sizes[2])
	}
	if s.CacheBytesEvicted != sizes[0] {
		t.Errorf("evicted bytes %d, want %d", s.CacheBytesEvicted, sizes[0])
	}
	// qs[0] was evicted: querying it again is a miss, not a hit.
	if _, err := e.Query(qs[0]); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Misses != 4 || s.Hits != 0 {
		t.Errorf("stats = %+v, want 4 misses / 0 hits", s)
	}
}

// TestLRUOversizedEntry pins the byte-bounded cache's oversize rule: an
// entry larger than the whole budget is served but never cached (caching it
// would evict everything else for one key). An entry is charged its whole
// pages.
func TestLRUOversizedEntry(t *testing.T) {
	c := newLRU(entryOverhead + pageSize)
	k := cacheKey{m: core.DIJ, vs: 1, vt: 2}
	c.add(k, pageSize+1)
	if c.has(k) {
		t.Error("oversized entry was cached")
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Errorf("len %d bytes %d after oversized add, want 0/0", c.Len(), c.Bytes())
	}
	c.add(k, pageSize)
	if !c.has(k) {
		t.Error("fitting entry was not cached")
	}
	if got, want := c.Bytes(), int64(entryOverhead+pageSize); got != want {
		t.Errorf("bytes %d, want %d", got, want)
	}
}

// TestLRUEvictionOrder pins strict LRU order under the byte budget: a hit
// refreshes recency, so the untouched middle entry goes first.
func TestLRUEvictionOrder(t *testing.T) {
	one := entrySize(8)
	c := newLRU(2 * one)
	ka := cacheKey{m: core.DIJ, vs: 1, vt: 2}
	kb := cacheKey{m: core.DIJ, vs: 3, vt: 4}
	kc := cacheKey{m: core.DIJ, vs: 5, vt: 6}
	c.add(ka, 8)
	c.add(kb, 8)
	c.has(ka) // refresh a: b is now least-recent
	c.add(kc, 8)
	if c.has(kb) {
		t.Error("least-recent entry survived eviction")
	}
	if !c.has(ka) {
		t.Error("refreshed entry was evicted")
	}
	if c.Evictions() != 1 || c.EvictedBytes() != one {
		t.Errorf("evictions %d bytes %d, want 1 and %d", c.Evictions(), c.EvictedBytes(), one)
	}
}

func TestEngineBatchPreservesOrderAndErrors(t *testing.T) {
	w := testWorld(t)
	e := w.engine(Options{})
	e.workers = 4
	qs := []Query{
		{Method: core.LDM, VS: w.queries[0].S, VT: w.queries[0].T},
		{Method: core.LDM, VS: w.queries[0].S, VT: w.queries[0].S}, // vs == vt rejected
		{Method: "NOPE", VS: w.queries[1].S, VT: w.queries[1].T},
		{Method: core.HYP, VS: w.queries[1].S, VT: w.queries[1].T},
	}
	out := e.QueryBatch(qs)
	if len(out) != len(qs) {
		t.Fatalf("got %d answers, want %d", len(out), len(qs))
	}
	for i, a := range out {
		if a.Query != qs[i] {
			t.Errorf("answer %d is for %v, want %v", i, a.Query, qs[i])
		}
	}
	verifyAnswer(t, w.verifier, out[0])
	if out[1].Err == nil {
		t.Error("vs == vt accepted")
	}
	if !errors.Is(out[2].Err, ErrUnknownMethod) {
		t.Errorf("unknown method error = %v", out[2].Err)
	}
	verifyAnswer(t, w.verifier, out[3])
	if s := e.Stats(); s.Errors != 2 {
		t.Errorf("errors = %d, want 2", s.Errors)
	}
}

func TestEngineUnknownMethod(t *testing.T) {
	w := testWorld(t)
	e := NewEngine(Options{})
	e.Register(w.ldm)
	if _, err := e.Query(Query{Method: core.HYP, VS: 0, VT: 1}); !errors.Is(err, ErrUnknownMethod) {
		t.Errorf("got %v, want ErrUnknownMethod", err)
	}
	if got := e.Methods(); len(got) != 1 || got[0] != core.LDM {
		t.Errorf("Methods() = %v, want [LDM]", got)
	}
}

// TestEngineConcurrentHammer is the serving-layer race test: many
// goroutines fire mixed repeated/distinct queries across all methods at one
// shared engine. Every answer must be byte-identical to the sequential
// baseline, and the hit/miss accounting must add up exactly.
// Run with -race to validate the lock-free provider sharing.
func TestEngineConcurrentHammer(t *testing.T) {
	w := testWorld(t)
	e := w.engine(Options{})
	e.workers = 8

	methods := core.Methods()
	distinct := make([]Query, 0, len(methods)*4)
	for _, m := range methods {
		for i := 0; i < 4; i++ {
			distinct = append(distinct, Query{Method: m, VS: w.queries[i].S, VT: w.queries[i].T})
		}
	}
	// Sequential baseline from a separate engine.
	baseline := make(map[Query][]byte, len(distinct))
	be := w.engine(Options{})
	for _, q := range distinct {
		a, err := be.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		baseline[q] = a.Proof
	}

	const goroutines = 16
	const perG = 40 // mixed workload: every goroutine cycles the same keys
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				q := distinct[(g+i)%len(distinct)]
				a, err := e.Query(q)
				if err != nil {
					errCh <- err
					return
				}
				if !bytes.Equal(a.Proof, baseline[q]) {
					errCh <- errors.New("concurrent proof differs from sequential baseline")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	s := e.Stats()
	total := int64(goroutines * perG)
	if s.Queries != total {
		t.Errorf("queries = %d, want %d", s.Queries, total)
	}
	if s.Errors != 0 {
		t.Errorf("errors = %d, want 0", s.Errors)
	}
	assertLedger(t, s)
	// Every distinct key is built at least once; concurrent misses on one
	// key may each build, and the cache keeps one entry per key.
	if s.Misses < int64(len(distinct)) {
		t.Errorf("misses = %d, want at least %d (one cold build per distinct query)", s.Misses, len(distinct))
	}
	if s.CacheLen != len(distinct) {
		t.Errorf("cache holds %d entries, want %d", s.CacheLen, len(distinct))
	}
}

// TestEnginePanicContainedPerQuery pins the engine's failure domain: a
// panicking proof construction becomes one failed answer, and a batch
// containing it still completes (a stray panic in a QueryBatch worker
// would otherwise kill the whole process).
func TestEnginePanicContainedPerQuery(t *testing.T) {
	w := testWorld(t)
	e := w.engine(Options{})
	e.workers = 2
	e.register("BOOM", func(vs, vt graph.NodeID, buf []byte) (float64, int, []byte, cover, error) {
		panic("construction bug")
	})
	out := e.QueryBatch([]Query{
		{Method: core.LDM, VS: w.queries[0].S, VT: w.queries[0].T},
		{Method: "BOOM", VS: 1, VT: 2},
		{Method: core.LDM, VS: w.queries[1].S, VT: w.queries[1].T},
	})
	verifyAnswer(t, w.verifier, out[0])
	if out[1].Err == nil || !strings.Contains(out[1].Err.Error(), "panicked") {
		t.Errorf("panicking query returned %v, want panic error", out[1].Err)
	}
	verifyAnswer(t, w.verifier, out[2])
	s := e.Stats()
	if s.Errors != 1 || s.Queries != 3 || s.Pipeline.InFlight != 0 {
		t.Errorf("stats = %+v, want 3 queries / 1 error / 0 in flight", s)
	}
}

// TestEngineBatchConcurrentWithSingles overlaps batch and single queries on
// one engine — the mixed traffic shape of a real provider front-end.
func TestEngineBatchConcurrentWithSingles(t *testing.T) {
	w := testWorld(t)
	e := w.engine(Options{})
	e.workers = 4
	batch := make([]Query, 0, 8)
	for i := 0; i < 4; i++ {
		batch = append(batch,
			Query{Method: core.LDM, VS: w.queries[i].S, VT: w.queries[i].T},
			Query{Method: core.DIJ, VS: w.queries[i].S, VT: w.queries[i].T})
	}
	var wg sync.WaitGroup
	fail := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, a := range e.QueryBatch(batch) {
				if a.Err != nil {
					fail <- a.Err
					return
				}
			}
		}()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := batch[g%len(batch)]
			if _, err := e.Query(q); err != nil {
				fail <- err
			}
		}(g)
	}
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Misses < int64(len(batch)) || s.CacheLen != len(batch) {
		t.Errorf("misses = %d, cache holds %d; want at least %d and %[3]d", s.Misses, s.CacheLen, len(batch))
	}
	assertLedger(t, s)
}
