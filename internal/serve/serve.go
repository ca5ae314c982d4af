// Package serve is the provider-side serving layer: it wraps the four
// verification methods' providers (core.DIJProvider &c.) behind one
// thread-safe query engine, the piece that turns the library into the
// outsourced service of the paper's deployment model (owner → provider →
// many untrusting clients).
//
// The engine exploits two properties of the core providers:
//
//  1. Provider state is immutable after Outsource returns (documented and
//     race-tested in internal/core), so any number of goroutines may call
//     QueryProof concurrently with no locking.
//  2. Proofs are deterministic for a fixed provider instance: the same
//     (method, vs, vt) always yields byte-identical wire encodings, so the
//     exact encoding is cacheable.
//
// Every query takes one path: admission (admit: a bounded in-flight gauge
// and an optional latency budget, refusals shed as their own class), then
// an LRU cache keyed by (method, vs, vt) holding exact wire encodings, then
// the provider, whose proof the cache keeps unless a swap landed during the
// build. Concurrent identical misses each build (no workload measured one
// joining another's build). QueryBatch is a loop over that path on a
// GOMAXPROCS-wide worker pool. cmd/spvserve exposes the engine over HTTP;
// spv.NewServer is the public construction surface.
package serve

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/authhints/spv/internal/core"
	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/hist"
)

// ErrUnknownMethod reports a query for a method the engine has no provider
// for.
var ErrUnknownMethod = errors.New("serve: no provider registered for method")

// ErrShed is the base class of admission refusals; HTTP maps it to 503 so
// clients can tell "refused under load, back off or retry elsewhere" from
// real failures.
var ErrShed = errors.New("serve: request shed")

// ErrShedQueue reports an arrival that found the in-flight bound reached.
var ErrShedQueue = fmt.Errorf("%w: too many queries in flight", ErrShed)

// ErrShedDeadline reports an arrival whose latency budget is shorter than
// the estimated time to answer it.
var ErrShedDeadline = fmt.Errorf("%w: latency budget cannot be met", ErrShed)

// Query names one shortest path query against a served method.
type Query struct {
	Method core.Method  `json:"method"`
	VS     graph.NodeID `json:"vs"`
	VT     graph.NodeID `json:"vt"`
}

// Answer is the provider's reply: the verified-path distance, the hop
// count of the reported path (edges, i.e. one less than its node count),
// and the proof's exact wire encoding (decodable with core.DecodeProof and
// verifiable with core.VerifyProof, both keyed by Query.Method). The Proof
// slice belongs to the caller: the engine copies it out of the proof cache
// (or out of its encode scratch on a miss) for every answer, so modifying it
// never reaches the cache or another answer. Cached marks answers served
// from the proof cache.
type Answer struct {
	Query  Query   `json:"query"`
	Dist   float64 `json:"dist"`
	Hops   int     `json:"hops"`
	Proof  []byte  `json:"proof,omitempty"`
	Cached bool    `json:"cached"`
	// Err carries the per-item failure inside a batch; Engine.Query returns
	// it as its error instead.
	Err error `json:"-"`
}

// Options configures an Engine. The zero value picks defaults.
type Options struct {
	// CacheBytes bounds the LRU proof cache by total held bytes (each
	// wire's pages plus a small per-entry overhead) — proof sizes vary by
	// orders of magnitude between methods, so a byte budget is the only
	// capacity with a predictable memory footprint. The wires live outside
	// the Go heap, so a budget of B costs at most B resident. Default (0):
	// DefaultCacheBytes. Negative: caching disabled.
	CacheBytes int64
	// DefaultBudget is the latency budget applied to queries that carry
	// none (QueryBudget with budget <= 0, Query, QueryBatch). Zero: no
	// deadline.
	DefaultBudget time.Duration
	// Coalesce is accepted and ignored: the micro-batching pipeline it
	// switched is gone, and benchmark/trace.go:126 (which this repository's
	// benchmark rules freeze) still sets it.
	Coalesce bool
}

// DefaultCacheBytes is the proof-cache byte budget when Options leaves
// CacheBytes zero: 64 MiB, a few thousand typical proofs.
const DefaultCacheBytes = 64 << 20

// cover summarizes which network-ADS leaf positions a proof exposes (an
// inclusive interval — leaf layouts preserve locality, so the interval is
// tight). The cache keeps it per entry so a hot-swap can invalidate exactly
// the proofs that show (or derive from) dirtied leaves.
type cover struct {
	lo, hi uint32
	ok     bool
}

func (c cover) overlaps(sortedStale []int) bool {
	if !c.ok {
		return true // unknown coverage: invalidate conservatively
	}
	i, _ := slices.BinarySearch(sortedStale, int(c.lo))
	return i < len(sortedStale) && sortedStale[i] <= int(c.hi)
}

// queryFn is the method-erased provider hot path: build a proof for one
// endpoint pair, append its exact wire encoding to buf, and return it plus
// its leaf coverage.
type queryFn func(vs, vt graph.NodeID, buf []byte) (dist float64, hops int, wire []byte, cov cover, err error)

// methodSlot holds one method's hot-swappable provider closure. The
// pointer swaps atomically, so queries racing an update see either the old
// or the new provider — both of which produce self-consistent proofs
// (every proof carries the root signature it verifies under). gen counts
// swaps: a cold construction records the gen it started under, and the
// cache compares it under its lock when publishing, so a build racing a
// swap can never re-poison the cache with a pre-swap proof after the
// invalidation pass (which runs under that lock, after the bump).
type methodSlot struct {
	fn  atomic.Pointer[queryFn]
	gen atomic.Int64
	// lat is the method's server-observed latency histogram (whole query
	// path: cache lookup through answer materialization, hits and colds
	// alike). It survives hot-swaps — latency is a property of serving the
	// method, not of one provider generation — and its Record path is
	// lock-free, so it costs the hot path two clock reads and four atomic
	// adds.
	lat hist.Histogram
}

// Engine is a thread-safe front-end over one or more outsourced
// providers. Construct with NewEngine, attach providers with Register
// (before sharing), then share freely across goroutines; Swap hot-swaps a
// registered method's provider at any time. Any core.Provider serves —
// the engine dispatches through the method-erased interface, never by
// method identity.
type Engine struct {
	workers int
	run     map[core.Method]*methodSlot
	cache   *lruCache // nil when caching is disabled
	stats   engineStats

	// Admission state (admit): the in-flight bound (4096 outside tests — one
	// MaxBatch-sized /batch fits), the budget applied to queries that bring
	// none, and an EWMA of recent per-query service time.
	maxInFlight   int64
	defaultBudget time.Duration
	svcNanos      atomic.Int64
}

// engineStats is the engine's atomic counter block (see Snapshot for
// meanings).
type engineStats struct {
	queries    atomic.Int64
	hits       atomic.Int64
	misses     atomic.Int64
	errors     atomic.Int64
	proofBytes atomic.Int64
	coldNanos  atomic.Int64

	epoch            atomic.Int64
	lastUpdateNanos  atomic.Int64
	leavesPatched    atomic.Int64
	cacheInvalidated atomic.Int64

	// Admission counters (admit): the in-flight gauge and the shed classes.
	inFlight     atomic.Int64
	shedQueue    atomic.Int64
	shedDeadline atomic.Int64
}

// Snapshot is a point-in-time copy of the engine's counters.
type Snapshot struct {
	// Queries counts every query answered (batch items included).
	Queries int64 `json:"queries"`
	// Hits counts answers served from the proof cache.
	Hits int64 `json:"hits"`
	// Misses counts cold proof constructions (Hits + Misses + Errors ==
	// Queries).
	Misses int64 `json:"misses"`
	// Deduped is residue of the deleted singleflight, always zero:
	// benchmark/results.go, frozen, reads it.
	Deduped int64 `json:"deduped"`
	// Errors counts failed queries.
	Errors int64 `json:"errors"`
	// ProofBytes totals the wire bytes of all served proofs.
	ProofBytes int64 `json:"proof_bytes"`
	// ColdTime totals time spent in cold proof constructions.
	ColdTime time.Duration `json:"cold_ns"`
	// CacheLen and CacheEvictions describe the LRU proof cache;
	// CacheBytes / CacheBytesEvicted are the held and lifetime-evicted
	// byte totals against the Options.CacheBytes budget.
	CacheLen          int   `json:"cache_len"`
	CacheEvictions    int64 `json:"cache_evictions"`
	CacheBytes        int64 `json:"cache_bytes"`
	CacheBytesEvicted int64 `json:"cache_bytes_evicted"`
	// Epoch is the update epoch of the data being served: seeded from the
	// owner's batch counter (or a loaded snapshot's) at construction and
	// bumped once per hot-swap batch, so origins and replicas report
	// comparable epochs. LastUpdate is the latest batch's end-to-end
	// latency and LeavesPatched the lifetime total of ADS leaves rewritten
	// by updates. CacheInvalidated counts cached proofs dropped because an
	// update dirtied leaves they cover.
	Epoch            int64         `json:"epoch"`
	LastUpdate       time.Duration `json:"last_update_ns"`
	LeavesPatched    int64         `json:"leaves_patched"`
	CacheInvalidated int64         `json:"cache_invalidated"`
	// Methods lists the registered methods.
	Methods []core.Method `json:"methods"`
	// Latency holds per-method server-observed latency summaries (the
	// whole Engine.Query path, cache hits and cold builds alike), so
	// client-observed numbers from a load run can be cross-checked against
	// what the server itself saw. Keys follow Methods.
	Latency map[core.Method]LatencySummary `json:"latency,omitempty"`
	// Pipeline is the admission block (the name is the deleted pipeline's,
	// kept with the fields below for benchmark/results.go); never nil.
	Pipeline *PipelineSnapshot `json:"pipeline,omitempty"`
}

// PipelineSnapshot is admission control's /stats block.
type PipelineSnapshot struct {
	// InFlight is the number of admitted, unanswered queries.
	InFlight int64 `json:"in_flight"`
	// Shed totals queries refused by admit (a refused /batch counts each
	// item); ShedQueue of those found the in-flight bound reached,
	// ShedDeadline could not make their latency budget. Shed queries are
	// not Queries.
	Shed         int64 `json:"shed"`
	ShedQueue    int64 `json:"shed_queue"`
	ShedDeadline int64 `json:"shed_deadline"`
	// Residue of the deleted pipeline, always zero: benchmark/results.go,
	// frozen, reads these four names.
	Flushes   int64                           `json:"flushes,omitempty"`
	FlushMean float64                         `json:"flush_mean,omitempty"`
	Methods   map[core.Method]PipeMethodStats `json:"methods,omitempty"`
}

// PipeMethodStats is part of PipelineSnapshot's residue.
type PipeMethodStats struct{ Coalesced, Solo int64 }

// LatencySummary condenses one method's latency histogram for /stats.
// Quantiles come from a fixed-bucket log-linear histogram (internal/hist)
// with ≤1/32 relative bucket error; Max is exact.
type LatencySummary struct {
	Count int64         `json:"count"`
	P50   time.Duration `json:"p50_ns"`
	P99   time.Duration `json:"p99_ns"`
	Max   time.Duration `json:"max_ns"`
}

// NewEngine returns an engine with no providers; attach at least one with
// Register before querying.
func NewEngine(opts Options) *Engine {
	e := &Engine{
		workers:       runtime.GOMAXPROCS(0),
		run:           make(map[core.Method]*methodSlot),
		maxInFlight:   4096,
		defaultBudget: opts.DefaultBudget,
	}
	switch {
	case opts.CacheBytes > 0:
		e.cache = newLRU(opts.CacheBytes)
	case opts.CacheBytes == 0:
		e.cache = newLRU(DefaultCacheBytes)
	}
	return e
}

// encScratch pools proof-encoding scratch buffers: a cold construction
// serializes into a pooled buffer whose capacity tracks the largest proof
// seen, the cache copies it into its pages, and the answer is written (or,
// for a library caller, copied) from it before it returns to the pool — no
// grow-and-copy chain and no exact-size heap wire per miss.
var encScratch = sync.Pool{New: func() any {
	b := make([]byte, 0, 16<<10)
	return &b
}}

// providerFn wraps any method's provider as a queryFn — the single
// method-erased hot path (core.Provider guarantees immutability and
// byte-determinism for every registered method).
func providerFn(p core.Provider) queryFn {
	return func(vs, vt graph.NodeID, buf []byte) (float64, int, []byte, cover, error) {
		pr, err := p.QueryProof(vs, vt)
		if err != nil {
			return 0, 0, buf, cover{}, err
		}
		lo, hi, ok := pr.LeafSpan()
		path, dist := pr.Result()
		return dist, len(path) - 1, pr.AppendBinary(buf), cover{lo, hi, ok}, nil
	}
}

// Register serves p.Method() queries from p. Registering a method twice
// replaces the provider. Must run before the engine is shared: the run
// map itself is read without locking on the hot path (only the slot
// pointers swap).
func (e *Engine) Register(p core.Provider) { e.register(p.Method(), providerFn(p)) }

// register attaches a raw queryFn under m (tests inject failing methods
// through it).
func (e *Engine) register(m core.Method, fn queryFn) {
	sl, ok := e.run[m]
	if !ok {
		sl = &methodSlot{}
		e.run[m] = sl
	}
	sl.fn.Store(&fn)
}

// Swap hot-swaps p.Method()'s provider for a patched one; see swap.
func (e *Engine) Swap(p core.Provider, st *core.PatchStats) error {
	return e.swap(p.Method(), providerFn(p), st)
}

// swap atomically replaces a registered method's provider closure, then
// drops exactly the cached proofs the patch made stale: entries whose leaf
// coverage holds a position of st.Stale. Untouched entries stay cached:
// nothing their proofs show moved, so the data they show (and the
// optimality of their paths) still holds in the updated network; they
// simply verify under the root they were signed with. A nil st is unknown
// coverage and drops the method's every entry, as cover.overlaps does for a
// proof whose span is unknown. In-flight queries race the pointer swap
// benignly — every proof is self-consistent.
func (e *Engine) swap(m core.Method, fn queryFn, st *core.PatchStats) error {
	sl, ok := e.run[m]
	if !ok {
		return fmt.Errorf("%w %q", ErrUnknownMethod, m)
	}
	sl.gen.Add(1) // before the store: builds that saw the old fn must not cache
	sl.fn.Store(&fn)
	if e.cache == nil {
		return nil
	}
	if st == nil {
		// No patch stats (a provider re-outsourced rather than patched):
		// nothing says what the swap left clean, so nothing stays cached.
		n := e.cache.Invalidate(m, func(cacheKey, cached) bool { return true })
		e.stats.cacheInvalidated.Add(int64(n))
		return nil
	}
	if len(st.Stale) == 0 {
		return nil
	}
	n := e.cache.Invalidate(m, func(_ cacheKey, c cached) bool { return c.cov.overlaps(st.Stale) })
	e.stats.cacheInvalidated.Add(int64(n))
	return nil
}

// NoteUpdate records one completed update batch: bumps the engine epoch
// and publishes the batch's latency and patched-leaf count to /stats.
func (e *Engine) NoteUpdate(d time.Duration, leavesPatched int) {
	e.stats.epoch.Add(1)
	e.stats.lastUpdateNanos.Store(int64(d))
	e.stats.leavesPatched.Add(int64(leavesPatched))
}

// seedEpoch initializes the epoch counter from a snapshot or a restored
// owner, so replicas and restarted deployments report the data epoch they
// actually serve. Construction-time only — after the engine is shared,
// epoch moves solely through NoteUpdate.
func (e *Engine) seedEpoch(epoch int64) { e.stats.epoch.Store(epoch) }

// Methods lists the registered methods in the method registry's
// canonical order (the paper's presentation order for the built-ins) —
// never in map or registration order, so /stats and /verifier listings
// are stable across runs and replicas. Pinned by TestMethodsCanonicalOrder.
func (e *Engine) Methods() []core.Method {
	out := make([]core.Method, 0, len(e.run))
	for _, m := range core.RegisteredMethods() {
		if _, ok := e.run[m]; ok {
			out = append(out, m)
		}
	}
	return out
}

// admit is admission control, the one door every query enters by. n queries
// arrive together (1, or a batch's length) under a latency budget (<= 0:
// the engine default, which may be none). The arrival is shed — refused
// before any work, counted in its own class and never as a query, an error
// or a latency sample — if it would take the in-flight gauge past its bound
// (ErrShedQueue), or if it has a budget and the gauge, itself included,
// drained by the workers at the recent per-query service time would outlast
// it (ErrShedDeadline; a budget under one service time always sheds). There
// is no queue: an admitted caller runs at once on its own goroutine, and
// returns its n units of the gauge when it has its answer.
func (e *Engine) admit(n int, budget time.Duration) error {
	if budget <= 0 {
		budget = e.defaultBudget
	}
	in, w := e.stats.inFlight.Add(int64(n)), int64(e.workers)
	var err error
	switch {
	case in > e.maxInFlight:
		err = ErrShedQueue
		e.stats.shedQueue.Add(int64(n))
	case budget > 0 && time.Duration((in+w-1)/w*e.svcNanos.Load()) > budget:
		err = ErrShedDeadline
		e.stats.shedDeadline.Add(int64(n))
	default:
		return nil
	}
	e.stats.inFlight.Add(-int64(n))
	return err
}

// Query answers one query under the engine's default budget. Safe for
// concurrent use.
func (e *Engine) Query(q Query) (Answer, error) {
	return e.QueryBudget(q, 0)
}

// QueryBudget is Query under an explicit latency budget (<= 0: the engine
// default): admit, then cache, provider. A shed query returns an error
// wrapping ErrShed and touches no other counter.
func (e *Engine) QueryBudget(q Query, budget time.Duration) (Answer, error) {
	a := e.queryReply(q, budget).own()
	return a, a.Err
}

// queryReply is QueryBudget with the proof left where it is: the caller
// writes from the reply and releases it.
func (e *Engine) queryReply(q Query, budget time.Duration) reply {
	if err := e.admit(1, budget); err != nil {
		return reply{Answer: Answer{Query: q, Err: err}}
	}
	defer e.stats.inFlight.Add(-1)
	return e.query(q)
}

// QueryBatch answers a batch with worker-pool fan-out, preserving order,
// under the engine's default budget. Per-item failures land in Answer.Err;
// a batch shed whole carries the shed error in every item.
func (e *Engine) QueryBatch(qs []Query) []Answer {
	rs, _ := e.queryBatch(qs, 0)
	out := make([]Answer, len(rs))
	for i, r := range rs {
		out[i] = r.own()
	}
	return out
}

// queryBatch is QueryBatch under an explicit budget, admitted as one
// arrival of len(qs) queries, with every reply left for the caller to
// release; err is non-nil exactly when it was shed.
func (e *Engine) queryBatch(qs []Query, budget time.Duration) ([]reply, error) {
	out := make([]reply, len(qs))
	if len(qs) == 0 {
		return out, nil
	}
	if err := e.admit(len(qs), budget); err != nil {
		for i, q := range qs {
			out[i] = reply{Answer: Answer{Query: q, Err: err}}
		}
		return out, err
	}
	defer e.stats.inFlight.Add(-int64(len(qs)))
	workers := e.workers
	if workers > len(qs) {
		workers = len(qs)
	}
	if workers <= 1 {
		for i, q := range qs {
			out[i] = e.query(q)
		}
		return out, nil
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = e.query(qs[i])
			}
		}()
	}
	for i := range qs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out, nil
}

// Close empties the proof cache and releases its arena once the last
// pinned read of it has finished. Idempotent; an engine used after Close
// still answers, uncached.
func (e *Engine) Close() {
	if e.cache != nil {
		e.cache.close()
	}
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Snapshot {
	s := Snapshot{
		Queries:    e.stats.queries.Load(),
		Hits:       e.stats.hits.Load(),
		Misses:     e.stats.misses.Load(),
		Errors:     e.stats.errors.Load(),
		ProofBytes: e.stats.proofBytes.Load(),
		ColdTime:   time.Duration(e.stats.coldNanos.Load()),

		Epoch:            e.stats.epoch.Load(),
		LastUpdate:       time.Duration(e.stats.lastUpdateNanos.Load()),
		LeavesPatched:    e.stats.leavesPatched.Load(),
		CacheInvalidated: e.stats.cacheInvalidated.Load(),

		Methods: e.Methods(),
	}
	for _, m := range s.Methods {
		h := e.run[m].lat.Snapshot()
		if h.Count() == 0 {
			continue
		}
		if s.Latency == nil {
			s.Latency = make(map[core.Method]LatencySummary, len(s.Methods))
		}
		s.Latency[m] = LatencySummary{
			Count: h.Count(),
			P50:   time.Duration(h.Quantile(0.50)),
			P99:   time.Duration(h.Quantile(0.99)),
			Max:   time.Duration(h.MaxValue()),
		}
	}
	if e.cache != nil {
		s.CacheLen = e.cache.Len()
		s.CacheEvictions = e.cache.Evictions()
		s.CacheBytes = e.cache.Bytes()
		s.CacheBytesEvicted = e.cache.EvictedBytes()
	}
	sq, sd := e.stats.shedQueue.Load(), e.stats.shedDeadline.Load()
	s.Pipeline = &PipelineSnapshot{
		InFlight: e.stats.inFlight.Load(), Shed: sq + sd, ShedQueue: sq, ShedDeadline: sd,
	}
	return s
}

// reply is an answer whose proof has no owner yet: a hit's proof is its
// cache entry's pages, pinned until release; a miss's is Answer.Proof, the
// pooled encode scratch, until release returns it. The HTTP front writes
// from a reply and releases it; own turns it into a caller-owned Answer.
type reply struct {
	Answer
	pinned  pages   // a hit's; zero unless a hit
	scratch *[]byte // pooled; nil unless a miss
}

// proofLen returns the proof's length in bytes.
func (r *reply) proofLen() int {
	if r.pinned.ent != nil {
		return r.pinned.ent.n
	}
	return len(r.Proof)
}

// each calls fn on the proof's bytes in order, in contiguous runs.
func (r *reply) each(fn func([]byte)) {
	if r.pinned.ent != nil {
		r.pinned.each(fn)
	} else if len(r.Proof) > 0 {
		fn(r.Proof)
	}
}

// release unpins the entry or returns the scratch; call it once.
func (r *reply) release() {
	if r.pinned.ent != nil {
		r.pinned.c.unpin(r.pinned.ent)
		r.pinned = pages{}
	}
	if r.scratch != nil {
		*r.scratch = (*r.scratch)[:0]
		encScratch.Put(r.scratch)
		r.scratch = nil
	}
	r.Proof = nil
}

// own releases r and returns its Answer with a caller-owned copy of the
// proof.
func (r reply) own() Answer {
	a := r.Answer
	if n := r.proofLen(); n > 0 {
		a.Proof = make([]byte, 0, n)
		r.each(func(p []byte) { a.Proof = append(a.Proof, p...) })
	}
	r.release()
	return a
}

// query is the engine hot path: cache lookup (a hit pins its entry), then
// the cold construction into encode scratch and a generation-checked
// insert. A panic during construction is converted to a per-query error
// here so one poisoned query can't kill the process from a QueryBatch
// worker goroutine — net/http would contain it for /query but not for
// /batch.
func (e *Engine) query(q Query) (r reply) {
	defer func() {
		if p := recover(); p != nil {
			e.stats.errors.Add(1)
			r = reply{Answer: Answer{Query: q, Err: fmt.Errorf("serve: query %v panicked: %v", q, p)}}
		}
	}()
	e.stats.queries.Add(1)
	sl, ok := e.run[q.Method]
	if !ok {
		e.stats.errors.Add(1)
		return reply{Answer: Answer{Query: q, Err: fmt.Errorf("%w %q", ErrUnknownMethod, q.Method)}}
	}
	start := time.Now()
	defer func() {
		d := int64(time.Since(start))
		sl.lat.Record(d)
		// admit's service-time estimate: an EWMA (α = 1/8, seeded by the
		// first sample); a lost update under contention only slows it.
		if old := e.svcNanos.Load(); old == 0 {
			e.svcNanos.Store(d)
		} else {
			e.svcNanos.Store(old + (d-old)/8)
		}
	}()
	gen := sl.gen.Load() // read before fn: conservative under a racing swap
	fn := *sl.fn.Load()
	key := cacheKey{m: q.Method, vs: q.VS, vt: q.VT}
	if e.cache != nil {
		if ent := e.cache.pin(key); ent != nil {
			e.stats.hits.Add(1)
			e.stats.proofBytes.Add(int64(ent.n))
			return reply{Answer: answer(q, ent.val, true), pinned: pages{e.cache, ent}}
		}
	}
	built := time.Now()
	bp := encScratch.Get().(*[]byte)
	dist, hops, wire, cov, err := fn(q.VS, q.VT, (*bp)[:0])
	if err != nil {
		encScratch.Put(bp)
		e.stats.errors.Add(1)
		return reply{Answer: Answer{Query: q, Err: err}}
	}
	*bp = wire // keep the grown capacity
	e.stats.coldNanos.Add(int64(time.Since(built)))
	e.stats.misses.Add(1)
	e.stats.proofBytes.Add(int64(len(wire)))
	c := cached{dist: dist, hops: hops, cov: cov}
	// The cache refuses the insert if a swap landed since gen was read: a
	// build racing an update may carry a pre-swap proof whose dirtied
	// coverage the invalidation pass already handled. Dropping it (rare)
	// keeps the cache's invariant; the answer itself is still served.
	if e.cache != nil {
		e.cache.insert(key, c, wire, &sl.gen, gen)
	}
	a := answer(q, c, false)
	a.Proof = wire
	return reply{Answer: a, scratch: bp}
}

// answer makes an Answer, without its proof, of a cached entry's numbers.
func answer(q Query, c cached, fromCache bool) Answer {
	return Answer{Query: q, Dist: c.dist, Hops: c.hops, Cached: fromCache}
}
