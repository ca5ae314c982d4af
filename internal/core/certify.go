package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"

	"github.com/authhints/spv/internal/cert"
	"github.com/authhints/spv/internal/digest"
	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/hints/landmark"
	"github.com/authhints/spv/internal/mbt"
	"github.com/authhints/spv/internal/order"
	"github.com/authhints/spv/internal/sp"
)

// certifier is an optional MethodImpl capability, like snapshotStreamer:
// a method that implements it can emit its slice of a snapshot
// certificate at outsourcing time and audit a loaded provider against
// that slice in linear time. Methods without the capability are
// rejected cleanly by Owner.Certify and ProviderSet.AuditMethod — a
// registered third-party method never silently passes an audit it did not
// implement.
type certifier interface {
	buildCert(o *Owner, p Provider) (*cert.MethodCert, error)
	auditCert(s *ProviderSet, mc *cert.MethodCert, v cert.SigVerifier, sc *cert.Scratch) error
}

// Certify issues a snapshot certificate for the given outsourced
// providers at the owner's current epoch: per-method labelling rows and
// Merkle roots, a digest binding the core sections (config, graph, leaf
// ordering), and the owner's signature over the canonical wire. The same
// ownership and staleness guards as WriteSnapshot apply — a certificate
// must describe exactly the state a snapshot of these providers would
// carry. Attach the result via ProviderSet.SetCertificate (or hold it in
// a serve.Deployment, which re-issues per epoch) so it rides along in the
// snapshot's CERT section.
func (o *Owner) Certify(provs ...Provider) (*cert.Certificate, error) {
	o.mu.Lock()
	frozen := o.frozen
	epoch := o.epoch
	o.mu.Unlock()
	byMethod := make(map[Method]Provider, len(provs))
	for _, p := range provs {
		if p == nil || p.graphRef() == nil {
			continue
		}
		if p.graphRef() != o.g {
			return nil, fmt.Errorf("core: %s provider was not outsourced from this owner", p.Method())
		}
		if frozen != nil && p.viewRef() != frozen {
			return nil, fmt.Errorf("core: %s provider is stale — patch it through the latest update batch before certifying", p.Method())
		}
		up, err := unwrapProvider(p)
		if err != nil {
			return nil, err
		}
		byMethod[p.Method()] = up
	}
	if len(byMethod) == 0 {
		return nil, errors.New("core: certify needs at least one provider")
	}
	c := &cert.Certificate{Alg: o.cfg.Hash, Epoch: epoch}
	var ord *order.Ordering
	for _, impl := range defaultRegistry.Impls() {
		p := byMethod[impl.Method()]
		if p == nil {
			continue
		}
		cf, ok := impl.(certifier)
		if !ok {
			return nil, fmt.Errorf("core: method %s does not support certification", impl.Method())
		}
		if ord == nil {
			if a := p.adsRef(); a != nil {
				ord = a.ord
			}
		}
		mc, err := cf.buildCert(o, p)
		if err != nil {
			return nil, err
		}
		c.Methods = append(c.Methods, *mc)
	}
	if ord == nil {
		return nil, errors.New("core: certify needs a provider with a leaf ordering")
	}
	cd, err := snapshotCoreDigest(o.cfg.Hash, o.cfg, o.g, ord)
	if err != nil {
		return nil, err
	}
	c.CoreDigest = cd
	sig, err := o.signRoot(cert.SigContext, c.SigningBytes())
	if err != nil {
		return nil, err
	}
	c.Sig = sig
	return c, nil
}

// snapshotCoreDigest hashes the canonical encodings of the core snapshot
// sections — config, graph, leaf ordering — each length-prefixed so
// section boundaries cannot alias. This is what a certificate's
// CoreDigest commits to: the exact world the method slices were certified
// against, including the leaf ordering every Merkle position depends on.
func snapshotCoreDigest(alg digest.Alg, cfg Config, g *graph.Graph, ord *order.Ordering) ([]byte, error) {
	h := alg.New()
	var lenb [8]byte
	part := func(b []byte) {
		binary.BigEndian.PutUint64(lenb[:], uint64(len(b)))
		h.Write(lenb[:])
		h.Write(b)
	}
	part(appendSnapConfig(nil, cfg))
	binary.BigEndian.PutUint64(lenb[:], uint64(g.BinarySize()))
	h.Write(lenb[:])
	if _, err := g.WriteTo(h); err != nil {
		return nil, err
	}
	part(appendSnapOrdering(nil, ord))
	return h.Sum(nil), nil
}

// --- ProviderSet as the audit view (cert.View) ---

// AuditEpoch implements cert.View.
func (s *ProviderSet) AuditEpoch() int64 { return s.Epoch }

// AuditMethods implements cert.View: the methods this set serves.
func (s *ProviderSet) AuditMethods() []string {
	ms := s.Methods()
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = string(m)
	}
	return names
}

// AuditCoreDigest implements cert.View. The leaf ordering comes from the
// set's own ordering section when one was loaded; otherwise from the
// first certificate-covered provider — never from an uncovered one, so a
// lazily opened set hydrates only sections the audit touches.
func (s *ProviderSet) AuditCoreDigest(alg digest.Alg, methods []string) ([]byte, error) {
	ord := s.ord
	if ord == nil {
		for _, name := range methods {
			p := s.Provider(Method(name))
			if p == nil {
				continue
			}
			up, err := unwrapProvider(p)
			if err != nil {
				return nil, err
			}
			if a := up.adsRef(); a != nil {
				ord = a.ord
				break
			}
		}
	}
	if ord == nil {
		return nil, fmt.Errorf("%w: no leaf ordering available for the core digest", cert.ErrEncoding)
	}
	return snapshotCoreDigest(alg, s.Cfg, s.Graph, ord)
}

// AuditMethod implements cert.View: dispatch one certificate slice to its
// method's certifier. Hydrating the provider (lazy sets) touches exactly
// this method's snapshot section.
func (s *ProviderSet) AuditMethod(mc *cert.MethodCert, v cert.SigVerifier, sc *cert.Scratch) error {
	m := Method(mc.Method)
	impl, ok := LookupMethod(m)
	if !ok {
		return fmt.Errorf("%w: unknown method %q", cert.ErrMethodMissing, mc.Method)
	}
	if s.Provider(m) == nil {
		return fmt.Errorf("%w: snapshot carries no %s provider", cert.ErrMethodMissing, m)
	}
	cf, ok := impl.(certifier)
	if !ok {
		return fmt.Errorf("%w (%s)", cert.ErrUnsupported, m)
	}
	return cf.auditCert(s, mc, v, sc)
}

// --- shared certifier helpers ---

// certRow runs one owner-side Dijkstra and packages the labelling as a
// certificate row (certify-time only; audits never run searches).
func certRow(alg digest.Alg, view graph.View, n int, src graph.NodeID) cert.Row {
	ws := sp.AcquireWorkspace(n)
	defer sp.ReleaseWorkspace(ws)
	dist, parent := ws.DijkstraRowTree(view, src, make([]float64, n), make([]graph.NodeID, n))
	r := cert.Row{Src: src, Dists: dist, Parents: parent}
	r.Digest = cert.RowDigest(alg, &r, nil)
	return r
}

// checkRootSig verifies a stored root signature against its context —
// the same message clients verify per query, checked once per audit.
func checkRootSig(v cert.SigVerifier, ctx, root, sig []byte, what string) error {
	msg := append(append([]byte(nil), ctx...), root...)
	if err := v.Verify(msg, sig); err != nil {
		return fmt.Errorf("%w: stored %s root signature: %v", cert.ErrSignature, what, err)
	}
	return nil
}

// certProvider resolves and hydrates the set's provider for m as type T,
// mapping failures to the audit's method-missing class.
func certProvider[T Provider](s *ProviderSet, m Method) (T, error) {
	p, err := providerAs[T](m, s.Provider(m))
	if err != nil {
		var zero T
		return zero, fmt.Errorf("%w: %v", cert.ErrMethodMissing, err)
	}
	return p, nil
}

// --- DIJ ---

// buildCert for DIJ: the network root plus one canonical labelling row
// (from the ordering's first leaf), giving DIJ — which stores no hint
// rows — a certified distance/parent witness over the published graph.
func (dijImpl) buildCert(o *Owner, p Provider) (*cert.MethodCert, error) {
	dp, err := providerAs[*DIJProvider](DIJ, p)
	if err != nil {
		return nil, err
	}
	src := dp.ads.ord.Seq[0]
	return &cert.MethodCert{
		Method: string(DIJ),
		Roots:  [][]byte{dp.ads.Root()},
		Rows:   []cert.Row{certRow(o.cfg.Hash, dp.view, o.g.NumNodes(), src)},
	}, nil
}

func (dijImpl) auditCert(s *ProviderSet, mc *cert.MethodCert, v cert.SigVerifier, sc *cert.Scratch) error {
	dp, err := certProvider[*DIJProvider](s, DIJ)
	if err != nil {
		return err
	}
	if len(mc.Roots) != 1 || len(mc.Rows) != 1 {
		return fmt.Errorf("%w: DIJ slice wants 1 root and 1 row, got %d/%d",
			cert.ErrEncoding, len(mc.Roots), len(mc.Rows))
	}
	row := &mc.Rows[0]
	if want := dp.ads.ord.Seq[0]; row.Src != want {
		return fmt.Errorf("%w: DIJ row source %d, want canonical leaf %d", cert.ErrEncoding, row.Src, want)
	}
	if err := cert.AuditRow(s.Graph, row, sc); err != nil {
		return err
	}
	if err := cert.CheckRowDigest(s.Cfg.Hash, row, sc); err != nil {
		return err
	}
	if err := cert.AuditTree(dp.ads.tree, mc.Roots[0], "DIJ network tree"); err != nil {
		return err
	}
	return checkRootSig(v, dijSigCtx, dp.ads.Root(), dp.rootSig, "DIJ network")
}

// --- LDM ---

// buildCert for LDM: the network root plus one row per landmark — the
// stored exact distance rows (the hints' source of truth) paired with
// freshly derived shortest-path-tree parents, so the audit can certify
// every stored row without a Dijkstra of its own.
func (ldmImpl) buildCert(o *Owner, p Provider) (*cert.MethodCert, error) {
	lp, err := providerAs[*LDMProvider](LDM, p)
	if err != nil {
		return nil, err
	}
	h := lp.hints
	n := o.g.NumNodes()
	ws := sp.AcquireWorkspace(n)
	defer sp.ReleaseWorkspace(ws)
	rows := make([]cert.Row, h.C())
	for i, lm := range h.Landmarks {
		_, parent := ws.DijkstraRowTree(lp.view, lm, make([]float64, n), make([]graph.NodeID, n))
		r := cert.Row{Src: lm, Dists: slices.Clone(h.Dists[i]), Parents: parent}
		r.Digest = cert.RowDigest(o.cfg.Hash, &r, nil)
		rows[i] = r
	}
	return &cert.MethodCert{
		Method: string(LDM),
		Roots:  [][]byte{lp.ads.Root()},
		Rows:   rows,
	}, nil
}

func (ldmImpl) auditCert(s *ProviderSet, mc *cert.MethodCert, v cert.SigVerifier, sc *cert.Scratch) error {
	lp, err := certProvider[*LDMProvider](s, LDM)
	if err != nil {
		return err
	}
	h := lp.hints
	if len(mc.Roots) != 1 {
		return fmt.Errorf("%w: LDM slice wants 1 root, got %d", cert.ErrEncoding, len(mc.Roots))
	}
	if len(mc.Rows) != h.C() {
		return fmt.Errorf("%w: LDM slice has %d rows, hints have %d landmarks", cert.ErrEncoding, len(mc.Rows), h.C())
	}
	// The landmark rows are independent, so the expensive part — the
	// linear pass and the digest re-hash — fans out across workers.
	if err := cert.ForEachRow(len(mc.Rows), func(i int, sc *cert.Scratch) error {
		row := &mc.Rows[i]
		if row.Src != h.Landmarks[i] {
			return fmt.Errorf("%w: LDM row %d source %d, want landmark %d", cert.ErrEncoding, i, row.Src, h.Landmarks[i])
		}
		stored := h.Dists[i]
		if len(row.Dists) != len(stored) {
			return fmt.Errorf("%w: LDM row %d has %d dists, stored row has %d", cert.ErrEncoding, i, len(row.Dists), len(stored))
		}
		for x := range stored {
			if stored[x] != row.Dists[x] && !distEqual(stored[x], row.Dists[x]) {
				return fmt.Errorf("%w: stored landmark row %d differs from certificate at node %d (%g vs %g)",
					cert.ErrDistance, i, x, stored[x], row.Dists[x])
			}
		}
		if err := cert.AuditRow(s.Graph, row, sc); err != nil {
			return err
		}
		return cert.CheckRowDigest(s.Cfg.Hash, row, sc)
	}); err != nil {
		return err
	}
	if err := cert.AuditTree(lp.ads.tree, mc.Roots[0], "LDM network tree"); err != nil {
		return err
	}
	params := landmark.Params{C: h.C(), Bits: h.Bits, Lambda: h.Lambda}
	return checkRootSig(v, ldmSigCtx(params), lp.ads.Root(), lp.rootSig, "LDM network")
}

// --- HYP ---

// hypAuxFull flags that the provider stores full border-to-all rows (the
// post-update form) rather than the compact border-to-border matrix.
const hypAuxFull = 1

// buildCert for HYP: both roots plus one full labelling row per border
// node. The stored rows — W* border-to-border or full — are the values at
// the corresponding positions of these rows, so one triangle pass per
// border certifies every stored hyper-distance.
func (hypImpl) buildCert(o *Owner, p Provider) (*cert.MethodCert, error) {
	hp, err := providerAs[*HYPProvider](HYP, p)
	if err != nil {
		return nil, err
	}
	hy := hp.hyper
	full, _ := hy.Rows()
	aux := []byte{0}
	if full {
		aux[0] = hypAuxFull
	}
	n := o.g.NumNodes()
	rows := make([]cert.Row, hy.NumBorders())
	for i, b := range hy.Borders {
		rows[i] = certRow(o.cfg.Hash, hp.view, n, b)
	}
	roots := [][]byte{hp.ads.Root()}
	if hp.distMBT != nil {
		roots = append(roots, hp.distMBT.Root())
	}
	return &cert.MethodCert{Method: string(HYP), Aux: aux, Roots: roots, Rows: rows}, nil
}

func (hypImpl) auditCert(s *ProviderSet, mc *cert.MethodCert, v cert.SigVerifier, sc *cert.Scratch) error {
	hp, err := certProvider[*HYPProvider](s, HYP)
	if err != nil {
		return err
	}
	hy := hp.hyper
	full, stored := hy.Rows()
	wantAux := byte(0)
	if full {
		wantAux = hypAuxFull
	}
	if len(mc.Aux) != 1 || mc.Aux[0] != wantAux {
		return fmt.Errorf("%w: HYP row-form flag disagrees with stored rows", cert.ErrEncoding)
	}
	if len(mc.Rows) != hy.NumBorders() {
		return fmt.Errorf("%w: HYP slice has %d rows, partition has %d borders", cert.ErrEncoding, len(mc.Rows), hy.NumBorders())
	}
	wantRoots := 1
	if hp.distMBT != nil {
		wantRoots = 2
	}
	if len(mc.Roots) != wantRoots {
		return fmt.Errorf("%w: HYP slice has %d roots, want %d", cert.ErrEncoding, len(mc.Roots), wantRoots)
	}
	n := s.Graph.NumNodes()
	// One border row per worker slot: with B ≈ √(n·cells) borders this is
	// the audit's widest fan-out.
	if err := cert.ForEachRow(len(hy.Borders), func(i int, sc *cert.Scratch) error {
		b := hy.Borders[i]
		row := &mc.Rows[i]
		if row.Src != b {
			return fmt.Errorf("%w: HYP row %d source %d, want border %d", cert.ErrEncoding, i, row.Src, b)
		}
		if len(row.Dists) != n {
			return fmt.Errorf("%w: HYP row %d has %d dists, want %d", cert.ErrEncoding, i, len(row.Dists), n)
		}
		// Stored hyper-rows against the certified labelling: every stored
		// value must be the certified distance at its position.
		if full {
			for x := range stored[i] {
				if stored[i][x] != row.Dists[x] && !distEqual(stored[i][x], row.Dists[x]) {
					return fmt.Errorf("%w: stored HYP row %d differs from certificate at node %d (%g vs %g)",
						cert.ErrDistance, i, x, stored[i][x], row.Dists[x])
				}
			}
		} else {
			for j, ob := range hy.Borders {
				if got, want := stored[i][j], row.Dists[ob]; got != want && !distEqual(got, want) {
					return fmt.Errorf("%w: stored HYP W*[%d][%d] differs from certificate (%g vs %g)",
						cert.ErrDistance, i, j, got, want)
				}
			}
		}
		if err := cert.AuditRow(s.Graph, row, sc); err != nil {
			return err
		}
		return cert.CheckRowDigest(s.Cfg.Hash, row, sc)
	}); err != nil {
		return err
	}
	if err := cert.AuditTree(hp.ads.tree, mc.Roots[0], "HYP network tree"); err != nil {
		return err
	}
	if err := checkRootSig(v, hypNetCtx, hp.ads.Root(), hp.netSig, "HYP network"); err != nil {
		return err
	}
	if hp.distMBT == nil {
		return nil
	}
	// The distance tree's leaves are digests of hyper-edge entries derived
	// from the stored rows — just re-derived above — so re-hashing them
	// (B² small entries, cheap) closes the leaf↔row binding before the
	// interior fold pins the leaves to the root.
	entries := hy.Entries()
	sort.Slice(entries, func(a, b int) bool { return entries[a].Key < entries[b].Key })
	mt := hp.distMBT.MHT()
	if mt.NumLeaves() != len(entries) {
		return fmt.Errorf("%w: HYP distance tree has %d leaves, %d hyper-edges derived", cert.ErrRowDigest, mt.NumLeaves(), len(entries))
	}
	var buf []byte
	halg := s.Cfg.Hash
	for i, e := range entries {
		buf = e.AppendBinary(buf[:0])
		if !bytes.Equal(halg.Sum(buf), mt.Leaf(i)) {
			return fmt.Errorf("%w: HYP distance leaf %d does not hash from its hyper-edge entry", cert.ErrRowDigest, i)
		}
	}
	if err := cert.AuditTree(mt, mc.Roots[1], "HYP distance tree"); err != nil {
		return err
	}
	return checkRootSig(v, hypDistCtx, mt.Root(), hp.distSig, "HYP distance")
}

// --- FULL ---

// certSampleSources picks FULL's certified rows: four deterministic leaf
// positions spread across the ordering (deduplicated for tiny worlds).
// FULL derives its n² rows on demand, so the certificate carries sampled
// witnesses; each is pinned to the stored forest by recomputing its row
// subtree root against the forest's top-tree leaf.
func certSampleSources(seq []graph.NodeID) []graph.NodeID {
	n := len(seq)
	idxs := [4]int{0, (n - 1) / 3, 2 * (n - 1) / 3, n - 1}
	var out []graph.NodeID
	last := -1
	for _, i := range idxs {
		if i == last {
			continue
		}
		last = i
		out = append(out, seq[i])
	}
	return out
}

func (fullImpl) buildCert(o *Owner, p Provider) (*cert.MethodCert, error) {
	fp, err := providerAs[*FULLProvider](FULL, p)
	if err != nil {
		return nil, err
	}
	n := o.g.NumNodes()
	srcs := certSampleSources(fp.ads.ord.Seq)
	rows := make([]cert.Row, len(srcs))
	for i, src := range srcs {
		rows[i] = certRow(o.cfg.Hash, fp.view, n, src)
	}
	return &cert.MethodCert{
		Method: string(FULL),
		Roots:  [][]byte{fp.ads.Root(), fp.forest.Top().Root()},
		Rows:   rows,
	}, nil
}

func (fullImpl) auditCert(s *ProviderSet, mc *cert.MethodCert, v cert.SigVerifier, sc *cert.Scratch) error {
	fp, err := certProvider[*FULLProvider](s, FULL)
	if err != nil {
		return err
	}
	if len(mc.Roots) != 2 {
		return fmt.Errorf("%w: FULL slice has %d roots, want 2", cert.ErrEncoding, len(mc.Roots))
	}
	srcs := certSampleSources(fp.ads.ord.Seq)
	if len(mc.Rows) != len(srcs) {
		return fmt.Errorf("%w: FULL slice has %d rows, want %d sampled", cert.ErrEncoding, len(mc.Rows), len(srcs))
	}
	n := s.Graph.NumNodes()
	top := fp.forest.Top()
	if err := cert.ForEachRow(len(srcs), func(i int, sc *cert.Scratch) error {
		src := srcs[i]
		row := &mc.Rows[i]
		if row.Src != src {
			return fmt.Errorf("%w: FULL row %d source %d, want sample %d", cert.ErrEncoding, i, row.Src, src)
		}
		if err := cert.AuditRow(s.Graph, row, sc); err != nil {
			return err
		}
		rr, err := mbt.RowRoot(s.Cfg.Hash, s.Cfg.Fanout, n, int(row.Src), row.Dists)
		if err != nil {
			return fmt.Errorf("%w: FULL row %d: %v", cert.ErrEncoding, i, err)
		}
		if !bytes.Equal(rr, top.Leaf(int(row.Src))) {
			return fmt.Errorf("%w: FULL sampled row %d does not match the stored forest row root", cert.ErrRowDigest, row.Src)
		}
		return cert.CheckRowDigest(s.Cfg.Hash, row, sc)
	}); err != nil {
		return err
	}
	if err := cert.AuditTree(fp.ads.tree, mc.Roots[0], "FULL network tree"); err != nil {
		return err
	}
	if err := cert.AuditTree(top, mc.Roots[1], "FULL forest top tree"); err != nil {
		return err
	}
	if err := checkRootSig(v, fullNetCtx, fp.ads.Root(), fp.netSig, "FULL network"); err != nil {
		return err
	}
	return checkRootSig(v, fullDistCtx, top.Root(), fp.distSig, "FULL distance")
}
