package cert

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/authhints/spv/internal/digest"
	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/mht"
)

// unreachable mirrors sp.Unreachable: the distance label stored for nodes
// a source cannot reach. Anything at or above it is treated as +∞.
const unreachable = math.MaxFloat64

// distTolerance mirrors core's verification tolerance: distances are sums
// of float64 edge weights, and two bit-exactly-different evaluation orders
// may differ in the final ulps. Same constant, same comparison.
const distTolerance = 1e-9

func distEqual(a, b float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	limit := distTolerance * (1 + a)
	if a < b {
		limit = distTolerance * (1 + b)
	}
	return diff <= limit
}

// Scratch is one audit worker's pooled working memory: a row's labels
// decoded once, parent-edge coverage marks and forest-walk states. Reuse
// across rows never re-allocates once grown to the node count.
type Scratch struct {
	dists   []float64      // the row's distances, decoded by AuditRow
	parents []graph.NodeID // and its parents
	seen    []bool         // parent edge of node v witnessed in the edge pass
	state   []uint8        // parent-forest walk: 0 unvisited, 1 on path, 2 done
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

func (s *Scratch) reset(n int) {
	if cap(s.seen) < n {
		s.dists = make([]float64, n)
		s.parents = make([]graph.NodeID, n)
		s.seen = make([]bool, n)
		s.state = make([]uint8, n)
	}
	s.dists, s.parents = s.dists[:n], s.parents[:n]
	s.seen, s.state = s.seen[:n], s.state[:n]
	clear(s.seen)
	clear(s.state)
}

// decode reads row's n labels into the scratch.
func (s *Scratch) decode(row Row) {
	d, p := row.dists(), row.parents()
	for v := range s.dists {
		s.dists[v] = distAt(d, v)
		s.parents[v] = parentAt(p, v)
	}
}

// Dists returns the distances the last successful AuditRow decoded; they
// are valid until the scratch's next row.
func (s *Scratch) Dists() []float64 { return s.dists }

// AuditRow checks that row is the true shortest-path labelling from its
// source over g, in one pass over the edges (O(V+E), no Dijkstra), after
// decoding the row's labels once into the worker's scratch:
//
//  1. d[src] = 0, parent[src] = Invalid; every d finite-or-∞, never
//     negative or NaN; every reachable non-source has an in-range parent,
//     every unreachable node has none.
//  2. For every directed edge (u,v,w): d[v] ≤ d[u] + w (triangle), and
//     where parent[v] = u the edge is tight (d[v] = d[u] + w).
//  3. Every claimed parent edge actually occurred in the scan, and the
//     parent forest is acyclic (zero-weight edges are legal, so tightness
//     alone does not rule out a zero-weight parent cycle).
//
// Soundness: (2) makes every d[v] a lower bound on no path and an upper
// bound via the tight parent chain, so with (1) and (3) d equals the true
// distance labelling exactly (up to the shared float tolerance).
func AuditRow(g *graph.CSR, row Row, s *Scratch) error {
	n := g.NumNodes()
	if row.N() != n {
		return fmt.Errorf("%w: row labels %d nodes, want %d", ErrEncoding, row.N(), n)
	}
	src := row.Src()
	if src < 0 || int(src) >= n {
		return fmt.Errorf("%w: row source %d out of range", ErrEncoding, src)
	}
	s.reset(n)
	s.decode(row)
	d, p := s.dists, s.parents
	if d0 := d[src]; d0 != 0 {
		return fmt.Errorf("%w: d[src=%d] = %g, want 0", ErrDistance, src, d0)
	}
	if p0 := p[src]; p0 != graph.Invalid {
		return fmt.Errorf("%w: source %d has parent %d", ErrParent, src, p0)
	}
	for v, dv := range d {
		if math.IsNaN(dv) || dv < 0 {
			return fmt.Errorf("%w: d[%d] = %g", ErrDistance, v, dv)
		}
		pv := p[v]
		if dv >= unreachable {
			if pv != graph.Invalid {
				return fmt.Errorf("%w: unreachable node %d has parent %d", ErrParent, v, pv)
			}
			continue
		}
		if graph.NodeID(v) == src {
			continue
		}
		if pv == graph.Invalid {
			return fmt.Errorf("%w: reachable node %d has no parent", ErrParent, v)
		}
		if pv < 0 || int(pv) >= n {
			return fmt.Errorf("%w: node %d parent %d out of range", ErrParent, v, pv)
		}
	}
	// The single edge pass: each directed half of every undirected edge is
	// visited exactly once — O(1) amortized work per edge.
	for u, du := range d {
		uReach := du < unreachable
		for _, e := range g.Neighbors(graph.NodeID(u)) {
			v := int(e.To)
			dv := d[v]
			if uReach {
				duw := du + e.W
				if dv > duw && !distEqual(dv, duw) {
					return fmt.Errorf("%w: triangle violation d[%d]=%g > d[%d]+w=%g",
						ErrDistance, v, dv, u, duw)
				}
			}
			if p[v] == graph.NodeID(u) {
				if !uReach {
					return fmt.Errorf("%w: node %d parented to unreachable %d", ErrParent, v, u)
				}
				if !distEqual(dv, du+e.W) {
					return fmt.Errorf("%w: parent edge (%d,%d) not tight: d[%d]=%g, d[%d]+w=%g",
						ErrParent, u, v, v, dv, u, du+e.W)
				}
				s.seen[v] = true
			}
		}
	}
	for v, dv := range d {
		if graph.NodeID(v) == src || dv >= unreachable {
			continue
		}
		if !s.seen[v] {
			return fmt.Errorf("%w: parent edge (%d,%d) is not in the graph", ErrParent, p[v], v)
		}
	}
	// Parent-forest acyclicity: follow each chain once, marking the path
	// in-progress (1) and finalizing it (2) — O(n) total.
	for v := range p {
		if s.state[v] != 0 {
			continue
		}
		x := graph.NodeID(v)
		for {
			s.state[x] = 1
			nxt := p[x]
			if nxt == graph.Invalid || s.state[nxt] == 2 {
				break
			}
			if s.state[nxt] == 1 {
				return fmt.Errorf("%w: parent cycle through node %d", ErrParent, nxt)
			}
			x = nxt
		}
		x = graph.NodeID(v)
		for s.state[x] == 1 {
			s.state[x] = 2
			if x = p[x]; x == graph.Invalid {
				break
			}
		}
	}
	return nil
}

// Rows hands each of the slice's rows to check as the audit reads it,
// across GOMAXPROCS workers, each call with a pooled Scratch: a row read
// from a stream is checked while it is still in cache, and its buffer is
// reused once check returns, so a slice is never held whole. Rows are
// independent — the linear pass reads the shared graph and its own row
// only — so fan-out changes wall time, not the verdict: the lowest-index
// error is returned, the rejection a sequential sweep would produce. The
// reading stops at the first error; rows left unread, like those of a
// method audit that never asks for them, are still read, hashed and
// framed by the audit after the method returns. A slice's rows can be
// read once: a decoded certificate's have been (use Row).
func (m *MethodCert) Rows(check func(i int, row Row, sc *Scratch) error) error {
	run := m.run
	if run.taken > 0 {
		return fmt.Errorf("%w: %s rows already read", ErrEncoding, m.Method)
	}
	d := run.d
	type job struct {
		i   int
		row Row
		buf []byte
	}
	workers := min(runtime.GOMAXPROCS(0), run.count)
	jobs := make(chan job, workers)
	free := make(chan []byte, 2*workers) // a stream's row buffers
	for range cap(free) {
		if b := d.buffer(run.slot); b != nil {
			free <- b
		}
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		failed   atomic.Bool
		first    = -1
		firstErr error
	)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := scratchPool.Get().(*Scratch)
			defer scratchPool.Put(sc)
			for j := range jobs {
				if err := check(j.i, j.row, sc); err != nil {
					mu.Lock()
					if first < 0 || j.i < first {
						first, firstErr = j.i, err
					}
					mu.Unlock()
					failed.Store(true)
				}
				if j.buf != nil {
					free <- j.buf
				}
			}
		}()
	}
	for run.taken < run.count && d.err == nil && !failed.Load() {
		var buf []byte
		if d.r != nil {
			buf = <-free
		}
		i := run.taken
		row := run.take(buf)
		if d.err != nil {
			d.release(buf)
			break
		}
		jobs <- job{i, row, buf}
	}
	close(jobs)
	wg.Wait()
	for len(free) > 0 {
		d.release(<-free)
	}
	if d.err != nil {
		return fmt.Errorf("%w: %v", ErrEncoding, d.err)
	}
	return firstErr
}

// CheckRowDigest hashes row's body where it lies and compares the result
// to the digest the row carries.
func CheckRowDigest(alg digest.Alg, row Row) error {
	sum := alg.AppendSum(make([]byte, 0, 64), row.body()) // 64 holds any digest, on the stack
	if !bytes.Equal(sum, row.Digest()) {
		return fmt.Errorf("%w: row %d digest mismatch", ErrRowDigest, row.Src())
	}
	return nil
}

// AuditTree folds the stored interior levels of t and compares its root
// to the certificate's. A pass pins every stored digest in t — down to
// the leaves — to the committed root, without touching leaf messages.
func AuditTree(t *mht.Tree, wantRoot []byte, what string) error {
	if err := t.AuditLevels(); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrRowDigest, what, err)
	}
	if !bytes.Equal(t.Root(), wantRoot) {
		return fmt.Errorf("%w: %s root differs from certificate", ErrRowDigest, what)
	}
	return nil
}

// SigVerifier verifies an owner signature over the concatenation of parts,
// without materializing it, or over a message already folded into its
// SHA-256 digest; satisfied by sig.Verifier.
type SigVerifier interface {
	VerifyParts(signature []byte, parts ...[]byte) error
	VerifyDigest(signature []byte, sum [sha256.Size]byte) error
}

// View is what the audit runs against — implemented by core.ProviderSet.
// AuditMethod dispatches one method slice to its method (hydrating a
// lazily loaded provider touches exactly that method's section), which
// takes the slice's rows through MethodCert.Rows; AuditCoreDigest
// recomputes the digest of the core sections.
type View interface {
	AuditEpoch() int64
	AuditMethods() []string
	AuditCoreDigest(alg digest.Alg) ([]byte, error)
	AuditMethod(mc *MethodCert, v SigVerifier) error
}

// MethodResult is one method's audit verdict.
type MethodResult struct {
	Method string
	Err    error
}

// Report is the outcome of one Audit run. Global problems (a malformed or
// unreadable certificate, epoch, core digest) live in Global; per-method
// verdicts in Methods; Covered lists the method slices the certificate
// carries and Uncovered the methods the view serves that it says nothing
// about (policy for those is the caller's — spvserve's -audit-on-load
// refuses to serve them).
type Report struct {
	Epoch     int64
	Global    error
	Methods   []MethodResult
	Covered   []string
	Uncovered []string
	// SigErr is the certificate-signature verdict. It is checked last and
	// reported last: the signature covers the whole wire, so any field
	// tamper also breaks it, and reporting it first would mask the
	// specific class.
	SigErr error
}

// Err returns the report's overall verdict: nil iff the audit passed.
// Order matches check order — structural/global first, then the first
// failing method, the certificate signature last.
func (r *Report) Err() error {
	if r.Global != nil {
		return r.Global
	}
	for _, m := range r.Methods {
		if m.Err != nil {
			return fmt.Errorf("%s: %w", m.Method, m.Err)
		}
	}
	return r.SigErr
}

// OK reports whether every check passed.
func (r *Report) OK() bool { return r.Err() == nil }

// Audit checks a loaded snapshot view against certificate c under the
// owner's verifier v, in one linear pass per certified row plus one fold
// per stored Merkle level. It is AuditReader's pass over c's wire as it
// now lies, so a certificate edited after decoding is judged exactly as if
// it had arrived that way; a malformed wire is the report's Global
// ErrEncoding.
func Audit(view View, c *Certificate, v SigVerifier) *Report {
	var d *wireCursor
	if c != nil {
		d = &wireCursor{buf: c.wire, size: len(c.wire)}
	}
	r, err := audit(view, d, v)
	if err != nil {
		return &Report{Global: err}
	}
	return r
}

// AuditReader audits view against the size-byte certificate wire r
// delivers, in one streaming pass that never holds the certificate:
// header, then each method slice — its rows handed to the method's audit
// as they arrive (MethodCert.Rows), every row read once — then the
// signature frame. Every byte before that frame is folded into the
// signature's SHA-256 as it passes; the owner's signature is checked once,
// over that digest, at the end. Counts the wire claims are bounded by the
// bytes left, so a lying one is rejected before anything is allocated for
// it, and no input makes it panic.
//
// A wire that is malformed anywhere — found only when the stream reaches
// it — or that r cannot deliver returns no report and an ErrEncoding,
// whatever method verdicts came before: exactly what DecodeCertificate
// would have said before an audit of the held certificate.
func AuditReader(view View, r io.Reader, size int64, v SigVerifier) (*Report, error) {
	return audit(view, &wireCursor{r: r, size: int(size)}, v)
}

func audit(view View, d *wireCursor, v SigVerifier) (*Report, error) {
	r := &Report{}
	if d == nil || v == nil {
		r.Global = fmt.Errorf("%w: nil certificate or verifier", ErrEncoding)
		return r, nil
	}
	sum := sha256.New()
	sum.Write(SigContext)
	d.sum = sum
	h := d.header()
	if d.err == nil {
		r.Epoch = h.epoch
		r.Global = auditScope(view, h)
	}
	for i := 0; i < h.methods && d.err == nil; i++ {
		mc := d.slice(h.alg)
		if d.err != nil {
			break
		}
		if r.Global == nil {
			r.Methods = append(r.Methods, MethodResult{Method: mc.Method, Err: view.AuditMethod(&mc, v)})
		}
		mc.run.drain()
	}
	d.sum = nil
	sig := d.field(-1)
	if err := d.finish(); err != nil {
		return nil, err
	}
	r.Covered = d.names
	for _, m := range view.AuditMethods() {
		if !slices.Contains(r.Covered, m) {
			r.Uncovered = append(r.Uncovered, m)
		}
	}
	if r.Global != nil {
		return r, nil
	}
	var digest [sha256.Size]byte
	sum.Sum(digest[:0])
	if err := v.VerifyDigest(sig, digest); err != nil {
		r.SigErr = fmt.Errorf("%w: certificate signature: %v", ErrSignature, err)
	}
	return r, nil
}

// auditScope checks that the certificate was issued for the view's world:
// its epoch, and the digest of its core sections.
func auditScope(view View, h certHeader) error {
	if got := view.AuditEpoch(); got != h.epoch {
		return fmt.Errorf("%w: snapshot epoch %d, certificate epoch %d", ErrEpochMismatch, got, h.epoch)
	}
	cd, err := view.AuditCoreDigest(h.alg)
	if err != nil {
		return err
	}
	if !bytes.Equal(cd, h.core) {
		return fmt.Errorf("%w: core sections (config/graph/ordering) differ from certificate", ErrRowDigest)
	}
	return nil
}
