package main

import (
	"crypto/rand"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	spv "github.com/authhints/spv"
)

// span is one timed call into a layer's public function, recorded from the
// benchmark's side of the call. Spans of one request share its index; the
// parent is the layer that makes this call on the live request path.
type span struct {
	ID     int    `json:"id"`
	Layer  string `json:"layer"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and counts in memory until the run ends.
type tracer struct {
	t0     time.Time
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}}
}

// time runs fn inside a span and returns how long it took.
func (t *tracer) time(id int, layer, parent string, fn func()) time.Duration {
	start := time.Since(t.t0)
	fn()
	end := time.Since(t.t0)
	t.spans = append(t.spans, span{ID: id, Layer: layer, Parent: parent, Start: int64(start), End: int64(end)})
	return end - start
}

// medians is each layer's median span duration in nanoseconds.
func (t *tracer) medians() map[string]float64 {
	by := map[string][]float64{}
	for _, s := range t.spans {
		by[s.Layer] = append(by[s.Layer], float64(s.End-s.Start))
	}
	out := make(map[string]float64, len(by))
	for layer, ds := range by {
		out[layer] = median(ds)
	}
	return out
}

// allocsPer is the mean number of heap allocations fn makes, all
// goroutines included: a layer that hands work to another goroutine is
// charged for what that goroutine allocates.
func allocsPer(n int, fn func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// calls is the live request path the ledger subtracts along: each layer's
// self time is its median minus the medians of the layers it calls.
func calls(m spv.Method) map[string][]string {
	s := string(m)
	return map[string][]string{
		"serve.loopback_json." + s: {"serve.handler_json." + s},
		"serve.handler_json." + s:  {"serve.engine_hit"},
		"serve.engine_miss." + s:   {"core.prove." + s, "core.encode." + s},
		"core.verify." + s:         {"sig.verify"},
	}
}

const (
	tracePasses = 3 // × 256 pairs = 768 calls per method and layer
	setupReps   = 3 // for layers that take a second, not microseconds
	bootReps    = 5
)

// layerTrace replays the workloads' inputs in-process — same world, same
// owner key, the first hotPairs pairs of the same pool — and times the
// calls into each layer's public functions. Nothing in it depends on which
// workload ran end to end, so a process runs it once. Its stages run in
// the order of traceLayers; each leaves behind what the next needs.
type layerTrace struct {
	*tracer
	e     *env
	opts  spv.ServeOptions
	pairs []spv.Query
	keys  []key // pairs × methods in the order of the closed-loop walk
	out   map[string]float64
	med   map[string]float64            // each layer's median span, ns
	runs  map[string]map[string]float64 // workload → what metricsFor last returned

	// What the stages hand to one another; dropped once they have run.
	g      *spv.Graph
	provs  []spv.Provider // by index into methods
	dep    *spv.Deployment
	snap   string
	proofs [][]spv.Proof // [method][pair]
	wires  [][][]byte
	bodies [][]byte // JSON answers, by key
}

// traceLayers runs the stages under the default pacer, like the daemon
// they stand in for, and folds their spans and counts into metrics.
func (e *env) traceLayers(pool []spv.Query) (*layerTrace, error) {
	defaultGC()
	defer generatorGC()
	lt := &layerTrace{
		tracer: newTracer(), e: e, pairs: pool[:hotPairs],
		out: map[string]float64{}, runs: map[string]map[string]float64{},
		opts: spv.ServeOptions{Coalesce: true}, // spvserve's shipped defaults
		snap: filepath.Join(e.tmp, "trace.spv"),
	}
	for i := 0; i < len(methods)*len(lt.pairs); i++ {
		lt.keys = append(lt.keys, keyAt(lt.pairs, i))
	}
	defer func() {
		if lt.dep != nil {
			lt.dep.Engine().Close()
		}
		lt.g, lt.provs, lt.dep, lt.proofs, lt.wires, lt.bodies = nil, nil, nil, nil, nil, nil
	}()
	// Updates go last: they move the deployment off the pool's world.
	for _, stage := range []func() error{lt.setUp, lt.restart, lt.provider, lt.front, lt.client, lt.batches, lt.updates} {
		if err := stage(); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
	}
	lt.med = lt.medians()
	for layer, ns := range lt.med {
		name, perUnit := layerMetric(layer)
		lt.out[name] = ns / perUnit
	}
	for name, n := range lt.counts {
		lt.out[name] = n
	}
	for _, m := range methods {
		s := string(m)
		lt.out["serve.transport_self_us."+s] = selfTimes(lt.med, calls(m))["serve.loopback_json."+s] / 1e3
	}
	return lt, nil
}

// metricsFor is the traced half of r's report: the layer metrics, r's own
// diagnostics, and the ledger reconciled against r's untraced per-method
// medians.
func (lt *layerTrace) metricsFor(r *result) map[string]float64 {
	out := map[string]float64{}
	for name, v := range lt.out {
		out[name] = v
	}
	for name, v := range r.diag {
		out[name] = v
	}
	for m, l := range r.latBy {
		if r.workload == "restart" { // its samples are first touches of a booting replica
			break
		}
		// What one verified answer crosses: the loopback request (which
		// holds transport, handler and engine hit), then the client's JSON
		// decode, proof decode and verify. On `cold` a construction stands
		// where the hit does.
		s := string(m)
		path := lt.med["serve.loopback_json."+s] + lt.med["client.json_decode."+s] + lt.med["core.decode."+s] + lt.med["core.verify."+s]
		if r.workload == "cold" {
			path += lt.med["serve.engine_miss."+s] - lt.med["serve.engine_hit"]
		}
		out["ledger.residual_us."+s] = percentile(ms(l), 0.50)*1e3 - path/1e3
	}
	lt.runs[r.workload] = out
	return out
}

// write stores the spans, the counts and every traced workload's metrics
// where a later reader can recompute any median from the raw intervals.
func (lt *layerTrace) write(path string, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Seed      int64                         `json:"seed"`
		Counts    map[string]float64            `json:"counts"`
		Workloads map[string]map[string]float64 `json:"workloads"`
		Spans     []span                        `json:"spans"`
	}{seed, lt.counts, lt.runs, lt.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// id names key i of a pass, so that the spans of one replayed request
// share an identifier across layers; keyIndex is the key index of pair i under
// method mi (the inverse of keyAt).
func (lt *layerTrace) id(pass, i int) int { return pass*len(lt.keys) + i }
func keyIndex(i, mi int) int              { return i*len(methods) + mi }

// setUp times what a daemon does before it serves: world, outsourcing,
// certificate, snapshot.
func (lt *layerTrace) setUp() (err error) {
	for i := 0; i < setupReps && err == nil; i++ {
		lt.time(i, "netgen.build", "", func() { lt.g, err = buildWorld() })
	}
	if err != nil {
		return err
	}
	if g, want := lt.g, lt.e.g; g.NumNodes() != want.NumNodes() || g.NumEdges() != want.NumEdges() {
		return fmt.Errorf("world rebuilt as %d nodes / %d edges, pool built on %d / %d",
			g.NumNodes(), g.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	owner, err := spv.NewOwnerWithSigner(lt.g, spv.DefaultConfig(), lt.e.signer)
	if err != nil {
		return err
	}
	lt.provs = make([]spv.Provider, len(methods))
	for mi, m := range methods {
		for i := 0; i < setupReps && err == nil; i++ {
			lt.time(i, "core.outsource."+string(m), "", func() { lt.provs[mi], err = owner.Outsource(m) })
		}
		if err != nil {
			return fmt.Errorf("outsource %s: %w", m, err)
		}
	}
	for i := 0; i < setupReps && err == nil; i++ {
		lt.time(i, "cert.issue", "", func() { _, err = spv.Certify(owner, lt.provs...) })
	}
	if err != nil {
		return fmt.Errorf("certify: %w", err)
	}
	if lt.dep, err = spv.NewDeployment(owner, lt.opts, methods...); err != nil {
		return err
	}
	if _, err := lt.dep.Certify(); err != nil {
		return err
	}
	for i := 0; i < setupReps && err == nil; i++ {
		lt.time(i, "snapshot.save", "", func() { _, err = spv.SaveSnapshot(lt.snap, lt.dep) })
	}
	return err
}

// restart times what a replica does between exec and its first answers:
// lazy open and first proofs, or eager load and audit.
func (lt *layerTrace) restart() (err error) {
	for i := 0; i < bootReps; i++ {
		var eng *spv.QueryEngine
		var set *spv.ProviderSet
		lt.time(i, "snapshot.lazy_open", "", func() { eng, set, err = spv.LoadEngineLazy(lt.snap, lt.opts) })
		if err != nil {
			return fmt.Errorf("lazy open: %w", err)
		}
		for mi, m := range methods {
			q := lt.pairs[i*len(methods)+mi]
			lt.time(i, "snapshot.first_proof."+string(m), "", func() {
				_, err = eng.Query(spv.ServeQuery{Method: m, VS: q.S, VT: q.T})
			})
			if err != nil {
				return fmt.Errorf("first proof %s: %w", m, err)
			}
		}
		eng.Close()
		set.Close()
	}
	for i := 0; i < setupReps; i++ {
		var eng *spv.QueryEngine
		var set *spv.ProviderSet
		lt.time(i, "snapshot.eager_load", "", func() { eng, set, err = spv.LoadEngine(lt.snap, lt.opts) })
		if err != nil {
			return fmt.Errorf("eager load: %w", err)
		}
		eng.Close()
		c, err := set.Certificate()
		if err != nil || c == nil {
			return fmt.Errorf("snapshot certificate: %v", err)
		}
		var rep *spv.AuditReport
		lt.time(i, "cert.audit", "", func() { rep = spv.Audit(set, c, set.Verifier) })
		if err := rep.Err(); err != nil {
			return fmt.Errorf("audit of a clean snapshot failed: %w", err)
		}
	}
	return nil
}

// provider times the daemon's half below HTTP: the unauthenticated search
// as a baseline, proof construction, wire encoding, and the engine on a
// first touch and on a cached key.
func (lt *layerTrace) provider() (err error) {
	for pass := 0; pass < tracePasses; pass++ {
		for i, q := range lt.pairs {
			var dist float64
			lt.time(lt.id(pass, keyIndex(i, 0)), "sp.search", "", func() { dist, _ = spv.ShortestPath(lt.e.g, q.S, q.T) })
			if !sameDist(dist, q.Dist) {
				return fmt.Errorf("pool distance %v for %d→%d, search says %v", q.Dist, q.S, q.T, dist)
			}
		}
	}
	lt.proofs, lt.wires = make([][]spv.Proof, len(methods)), make([][][]byte, len(methods))
	var buf []byte
	for mi, m := range methods {
		s, p := string(m), lt.provs[mi]
		proofs, wires := make([]spv.Proof, len(lt.pairs)), make([][]byte, len(lt.pairs))
		total := 0
		for pass := 0; pass < tracePasses; pass++ {
			for i, q := range lt.pairs {
				lt.time(lt.id(pass, keyIndex(i, mi)), "core.prove."+s, "serve.engine_miss."+s, func() { proofs[i], err = p.QueryProof(q.S, q.T) })
				if err != nil {
					return fmt.Errorf("prove %s %d→%d: %w", m, q.S, q.T, err)
				}
				lt.time(lt.id(pass, keyIndex(i, mi)), "core.encode."+s, "serve.engine_miss."+s, func() { buf = proofs[i].AppendBinary(buf[:0]) })
				if pass == 0 {
					wires[i] = append([]byte(nil), buf...)
					total += len(buf)
				}
			}
		}
		lt.proofs[mi], lt.wires[mi] = proofs, wires
		lt.out["core.proof_bytes."+s] = float64(total) / float64(len(lt.pairs))
		lt.out["core.prove_allocs."+s] = allocsPer(len(lt.pairs), func(i int) { p.QueryProof(lt.pairs[i].S, lt.pairs[i].T) })
	}
	for pass := 0; pass < tracePasses; pass++ {
		eng := spv.NewRawEngine(lt.opts) // empty cache: every query is a first touch
		for _, p := range lt.provs {
			eng.Register(p)
		}
		for mi, m := range methods {
			for i, q := range lt.pairs {
				var a spv.ServeAnswer
				lt.time(lt.id(pass, keyIndex(i, mi)), "serve.engine_miss."+string(m), "serve.handler_json."+string(m), func() {
					a, err = eng.Query(spv.ServeQuery{Method: m, VS: q.S, VT: q.T})
				})
				if err != nil || a.Cached || string(a.Proof) != string(lt.wires[mi][i]) {
					return fmt.Errorf("engine miss %s %d→%d: cached=%v err=%v", m, q.S, q.T, a.Cached, err)
				}
			}
		}
		eng.Close()
	}
	hot := lt.dep.Engine()
	hit := func(i int) error {
		k := lt.keys[i%len(lt.keys)]
		a, err := hot.Query(spv.ServeQuery{Method: k.method, VS: k.q.S, VT: k.q.T})
		if err == nil && !a.Cached {
			err = fmt.Errorf("warmed key %s %d→%d not served from cache", k.method, k.q.S, k.q.T)
		}
		return err
	}
	for _, k := range lt.keys {
		if _, err := hot.Query(spv.ServeQuery{Method: k.method, VS: k.q.S, VT: k.q.T}); err != nil {
			return fmt.Errorf("warm %s: %w", k.method, err)
		}
	}
	for i := 0; i < tracePasses*len(lt.keys) && err == nil; i++ {
		lt.time(i, "serve.engine_hit", "serve.handler_json", func() { err = hit(i) })
	}
	lt.out["serve.engine_hit_allocs"] = allocsPer(len(lt.keys), func(i int) { hit(i) })
	return err
}

// front times the HTTP front over the warmed engine: the handler alone
// into a recorder, then behind an in-process listener with the body read.
func (lt *layerTrace) front() error {
	srv, err := spv.NewUpdatableServer(lt.dep)
	if err != nil {
		return err
	}
	for pass := 0; pass < tracePasses; pass++ {
		for i, k := range lt.keys {
			for _, f := range []struct{ layer, suffix string }{{"serve.handler_json.", ""}, {"serve.handler_binary.", "&format=binary"}} {
				req := httptest.NewRequest("GET", queryURL("", k)+f.suffix, nil)
				rec := httptest.NewRecorder()
				lt.time(lt.id(pass, i), f.layer+string(k.method), "serve.loopback_json."+string(k.method), func() { srv.ServeHTTP(rec, req) })
				if rec.Code != 200 {
					return fmt.Errorf("handler %s: status %d", k.method, rec.Code)
				}
			}
		}
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := newClient(ts.URL, lt.e.signer.Verifier(), true)
	defer cl.close()
	// Each key is fetched twice per pass, once inside a span and once
	// between two bare clock reads, taking turns to go first: the
	// difference of the medians is what recording a span costs.
	lt.bodies = make([][]byte, len(lt.keys))
	var bare, traced []float64
	for pass := 0; pass < tracePasses; pass++ {
		for i, k := range lt.keys {
			url := queryURL(ts.URL, k)
			for turn := 0; turn < 2 && err == nil; turn++ {
				if (i+turn)%2 == 0 {
					start := time.Now()
					lt.bodies[i], err = cl.get(url)
					bare = append(bare, float64(time.Since(start)))
					continue
				}
				d := lt.time(lt.id(pass, i), "serve.loopback_json."+string(k.method), "", func() { _, err = cl.get(url) })
				traced = append(traced, float64(d))
			}
			if err != nil {
				return fmt.Errorf("loopback %s: %w", k.method, err)
			}
		}
	}
	lt.out["trace.overhead_pct"] = (median(traced) - median(bare)) / median(bare) * 100
	return nil
}

// client times the client's half: JSON and base64, proof decode, verify,
// and the signature check inside verify.
func (lt *layerTrace) client() (err error) {
	v := lt.e.signer.Verifier()
	for pass := 0; pass < tracePasses; pass++ {
		for i, k := range lt.keys {
			s := string(k.method)
			var a wireAnswer
			lt.time(lt.id(pass, i), "client.json_decode."+s, "", func() { err = json.Unmarshal(lt.bodies[i], &a) })
			if err != nil {
				return fmt.Errorf("JSON decode %s: %w", k.method, err)
			}
			var pr spv.Proof
			lt.time(lt.id(pass, i), "core.decode."+s, "", func() { pr, _, err = spv.DecodeProof(k.method, a.Proof) })
			if err != nil {
				return fmt.Errorf("decode %s: %w", k.method, err)
			}
			lt.time(lt.id(pass, i), "core.verify."+s, "", func() { err = spv.VerifyProof(v, k.method, k.q.S, k.q.T, pr) })
			if err != nil {
				return fmt.Errorf("verify %s %d→%d: %w", k.method, k.q.S, k.q.T, err)
			}
		}
	}
	for mi, m := range methods {
		lt.out["core.verify_allocs."+string(m)] = allocsPer(len(lt.pairs), func(i int) {
			spv.VerifyProof(v, m, lt.pairs[i].S, lt.pairs[i].T, lt.proofs[mi][i])
		})
	}
	msg := make([]byte, 64) // a context tag and a root digest are about this long
	rand.Read(msg)
	var sigBytes []byte
	for i := 0; i < len(lt.keys) && err == nil; i++ {
		lt.time(i, "sig.sign", "core.update", func() { sigBytes, err = lt.e.signer.Sign(msg) })
		if err == nil {
			lt.time(i, "sig.verify", "core.verify", func() { err = v.Verify(msg, sigBytes) })
		}
	}
	return err
}

// batches times the shared batch wire: eight proofs of one method in one
// blob, encoded, decoded and batch-verified.
func (lt *layerTrace) batches() (err error) {
	v := lt.e.signer.Verifier()
	var buf []byte
	for pass := 0; pass < tracePasses; pass++ {
		for mi, m := range methods {
			for b := 0; b+batchSize <= len(lt.pairs); b += batchSize {
				items := make([]spv.BatchItem, batchSize)
				for j := range items {
					items[j] = spv.BatchItem{VS: lt.pairs[b+j].S, VT: lt.pairs[b+j].T, Proof: lt.proofs[mi][b+j]}
				}
				n := lt.id(pass, b/batchSize)
				lt.time(n, "core.batch_encode", "", func() { buf, err = spv.AppendProofBatch(buf[:0], m, items) })
				if err != nil {
					return fmt.Errorf("batch encode %s: %w", m, err)
				}
				var pb *spv.ProofBatch
				lt.time(n, "core.batch_decode", "", func() { pb, _, err = spv.DecodeProofBatch(buf) })
				if err != nil {
					return fmt.Errorf("batch decode %s: %w", m, err)
				}
				var errs []error
				lt.time(n, "core.verify_batch8."+string(m), "", func() { errs = spv.VerifyBatch(v, m, pb.Items()) })
				for _, err := range errs {
					if err != nil {
						return fmt.Errorf("batch verify %s: %w", m, err)
					}
				}
			}
		}
	}
	return nil
}

// updates times the owner's update pipeline against the warmed cache and
// counts what each batch recomputed, patched and invalidated.
func (lt *layerTrace) updates() error {
	ups, err := updatePlan(lt.g)
	if err != nil {
		return err
	}
	eng := lt.dep.Engine()
	invalidated := eng.Stats().CacheInvalidated
	for i, batch := range ups[:updateBatches] {
		var sum spv.UpdateSummary
		lt.time(i, "core.update", "", func() { sum, err = lt.dep.ApplyUpdates(batch) })
		if err != nil {
			return fmt.Errorf("update %d: %w", i, err)
		}
		lt.counts["core.update_rows_recomputed"] += float64(sum.RowsRecomputed)
		lt.counts["core.update_leaves_patched"] += float64(sum.LeavesPatched)
	}
	lt.counts["serve.update_invalidated"] = float64(eng.Stats().CacheInvalidated - invalidated)
	return nil
}

// msLayers are timed in milliseconds; every other layer in microseconds.
var msLayers = map[string]bool{
	"netgen.build": true, "core.outsource": true, "cert.issue": true, "snapshot.save": true,
	"snapshot.lazy_open": true, "snapshot.first_proof": true, "snapshot.eager_load": true,
	"cert.audit": true, "core.update": true,
}

// layerMetric maps a span layer to its metric name and the nanoseconds in
// one of its units. The unit goes before the method suffix, as in
// core.prove.DIJ → core.prove_us.DIJ.
func layerMetric(layer string) (name string, perUnit float64) {
	base, suffix := layer, ""
	for _, m := range methods {
		if s := "." + string(m); strings.HasSuffix(layer, s) {
			base, suffix = strings.TrimSuffix(layer, s), s
		}
	}
	if msLayers[base] {
		return base + "_ms" + suffix, 1e6
	}
	return base + "_us" + suffix, 1e3
}

// sortedKeys lists a map's names in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
