package cert

import (
	"bytes"
	"fmt"
	"math"
	"sync"

	"github.com/authhints/spv/internal/digest"
	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/mht"
	"github.com/authhints/spv/internal/par"
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

// Scratch is one audit worker's pooled working memory: parent-edge coverage
// marks, forest-walk states, and a decoded-distance buffer for the one check
// that needs a row as numbers. Reuse across rows never re-allocates once
// grown to the node count.
type Scratch struct {
	seen  []bool    // parent edge of node v witnessed in the edge pass
	state []uint8   // parent-forest walk: 0 unvisited, 1 on path, 2 done
	dists []float64 // Dists' result
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

func (s *Scratch) reset(n int) {
	if cap(s.seen) < n {
		s.seen = make([]bool, n)
		s.state = make([]uint8, n)
	}
	s.seen = s.seen[:n]
	s.state = s.state[:n]
	clear(s.seen)
	clear(s.state)
}

// Dists decodes row's distances into the scratch; the result is valid until
// the next call.
func (s *Scratch) Dists(row Row) []float64 {
	s.dists = s.dists[:0]
	for v, n := 0, row.N(); v < n; v++ {
		s.dists = append(s.dists, row.Dist(v))
	}
	return s.dists
}

// AuditRow checks that row is the true shortest-path labelling from its
// source over g, in one pass over the edges (O(V+E), no Dijkstra), reading
// every label from the wire where it lies:
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
func AuditRow(g graph.View, row Row, s *Scratch) error {
	n := g.NumNodes()
	if row.N() != n {
		return fmt.Errorf("%w: row labels %d nodes, want %d", ErrEncoding, row.N(), n)
	}
	src := row.Src()
	if src < 0 || int(src) >= n {
		return fmt.Errorf("%w: row source %d out of range", ErrEncoding, src)
	}
	d, p := row.dists(), row.parents()
	if d0 := distAt(d, int(src)); d0 != 0 {
		return fmt.Errorf("%w: d[src=%d] = %g, want 0", ErrDistance, src, d0)
	}
	if p0 := parentAt(p, int(src)); p0 != graph.Invalid {
		return fmt.Errorf("%w: source %d has parent %d", ErrParent, src, p0)
	}
	for v := 0; v < n; v++ {
		dv := distAt(d, v)
		if math.IsNaN(dv) || dv < 0 {
			return fmt.Errorf("%w: d[%d] = %g", ErrDistance, v, dv)
		}
		pv := parentAt(p, v)
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
	s.reset(n)
	// The single edge pass: each directed half of every undirected edge is
	// visited exactly once — O(1) amortized work per edge.
	for u := 0; u < n; u++ {
		du := distAt(d, u)
		uReach := du < unreachable
		for _, e := range g.Neighbors(graph.NodeID(u)) {
			v := int(e.To)
			dv := distAt(d, v)
			if uReach {
				duw := du + e.W
				if dv > duw && !distEqual(dv, duw) {
					return fmt.Errorf("%w: triangle violation d[%d]=%g > d[%d]+w=%g",
						ErrDistance, v, dv, u, duw)
				}
			}
			if parentAt(p, v) == graph.NodeID(u) {
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
	for v := 0; v < n; v++ {
		if graph.NodeID(v) == src || distAt(d, v) >= unreachable {
			continue
		}
		if !s.seen[v] {
			return fmt.Errorf("%w: parent edge (%d,%d) is not in the graph", ErrParent, parentAt(p, v), v)
		}
	}
	// Parent-forest acyclicity: follow each chain once, marking the path
	// in-progress (1) and finalizing it (2) — O(n) total.
	for v := 0; v < n; v++ {
		if s.state[v] != 0 {
			continue
		}
		x := graph.NodeID(v)
		for {
			s.state[x] = 1
			nxt := parentAt(p, int(x))
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
			if x = parentAt(p, int(x)); x == graph.Invalid {
				break
			}
		}
	}
	return nil
}

// ForEachRow runs fn over row indices 0..n-1 across GOMAXPROCS workers,
// each call holding a pooled scratch. Rows are independent (the linear
// pass reads the shared graph and its own row only), so fan-out changes
// wall time, not the verdict: the lowest-index error is returned — the
// same rejection a sequential sweep would produce.
func ForEachRow(n int, fn func(i int, sc *Scratch) error) error {
	errs := make([]error, n)
	par.Work(n, func(i int) {
		sc := scratchPool.Get().(*Scratch)
		errs[i] = fn(i, sc)
		scratchPool.Put(sc)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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
// without materializing it; satisfied by sig.Verifier.
type SigVerifier interface {
	VerifyParts(signature []byte, parts ...[]byte) error
}

// View is what the audit runs against — implemented by core.ProviderSet.
// AuditMethod dispatches one method slice to its method (hydrating a
// lazily loaded provider touches exactly that method's section);
// AuditCoreDigest recomputes the digest of the core sections, consulting
// only providers named in methods when it needs one.
type View interface {
	AuditEpoch() int64
	AuditMethods() []string
	AuditCoreDigest(alg digest.Alg, methods []string) ([]byte, error)
	AuditMethod(mc *MethodCert, v SigVerifier) error
}

// MethodResult is one method's audit verdict.
type MethodResult struct {
	Method string
	Err    error
}

// Report is the outcome of one Audit run. Global problems (epoch, core
// digest, malformed certificate) live in Global; per-method verdicts in
// Methods; Uncovered lists methods the view serves that the certificate
// says nothing about (policy for those is the caller's — spvserve's
// -audit-on-load refuses to serve them).
type Report struct {
	Epoch     int64
	Global    error
	Methods   []MethodResult
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
// per stored Merkle level. It never panics on adversarial certificates:
// the wire is re-validated as it now lies (cheap — the index is a few
// fields per method), so a certificate edited after decoding is judged
// exactly as if it had arrived that way. Every rejection is typed (see the
// Err* classes). The returned report always carries per-method verdicts
// for whatever could be checked.
func Audit(view View, c *Certificate, v SigVerifier) *Report {
	r := &Report{}
	if c == nil || v == nil {
		r.Global = fmt.Errorf("%w: nil certificate or verifier", ErrEncoding)
		return r
	}
	if c, r.Global = DecodeCertificate(c.wire); r.Global != nil {
		return r
	}
	r.Epoch = c.Epoch()
	for _, m := range view.AuditMethods() {
		if c.Method(m) == nil {
			r.Uncovered = append(r.Uncovered, m)
		}
	}
	if got, want := view.AuditEpoch(), c.Epoch(); got != want {
		r.Global = fmt.Errorf("%w: snapshot epoch %d, certificate epoch %d", ErrEpochMismatch, got, want)
		return r
	}
	cd, err := view.AuditCoreDigest(c.Alg(), c.MethodNames())
	if err != nil {
		r.Global = err
		return r
	}
	if !bytes.Equal(cd, c.CoreDigest()) {
		r.Global = fmt.Errorf("%w: core sections (config/graph/ordering) differ from certificate", ErrRowDigest)
		return r
	}
	// Certificate signature, over the wire itself: one SHA-256 pass over
	// every row, run beside the method loop and joined — and reported —
	// last (see Report.SigErr).
	sigErr := make(chan error, 1)
	go func() { sigErr <- v.VerifyParts(c.Sig(), SigContext, c.wire[:c.signed]) }()
	for i := range c.Methods {
		mc := &c.Methods[i]
		r.Methods = append(r.Methods, MethodResult{Method: mc.Method, Err: view.AuditMethod(mc, v)})
	}
	if err := <-sigErr; err != nil {
		r.SigErr = fmt.Errorf("%w: certificate signature: %v", ErrSignature, err)
	}
	return r
}
