package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/authhints/spv/internal/cert"
	"github.com/authhints/spv/internal/digest"
	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/hints/landmark"
	"github.com/authhints/spv/internal/mbt"
	"github.com/authhints/spv/internal/order"
	"github.com/authhints/spv/internal/par"
	"github.com/authhints/spv/internal/sp"
)

// Certify issues a snapshot certificate for the given outsourced
// providers at the owner's current epoch: per-method shortest-path trees
// and Merkle roots, a digest binding the core sections (config, graph, leaf
// ordering), and the owner's signature over the canonical wire. The wire
// is laid out first (row slots are fixed-size), then each row is searched
// and its tree's parent slots written big-endian into its own slot and
// digested there by whichever worker claims it — the bytes are the same at
// any GOMAXPROCS — and the signature hashes the finished wire where it
// lies. A network with a node of more than graph.NoParent neighbours,
// which a slot cannot address, is refused.
// The same ownership and staleness guards as WriteSnapshot apply — a
// certificate must describe exactly the state a snapshot of these
// providers would carry. Attach the result via ProviderSet.SetCertificate
// (or hold it in a serve.Deployment, which re-issues per epoch) so it rides
// along in the snapshot's CERT section.
func (o *Owner) Certify(provs ...Provider) (*cert.Certificate, error) {
	o.mu.Lock()
	net, epoch := o.net, o.epoch
	o.mu.Unlock()
	provs, err := currentProviders(net, provs, "certifying")
	if err != nil {
		return nil, err
	}
	if err := net.CheckSlots(); err != nil {
		return nil, fmt.Errorf("core: certify: %w", err)
	}
	byMethod := make(map[Method]Provider, len(provs))
	for _, p := range provs {
		up, err := unwrapProvider(p)
		if err != nil {
			return nil, err
		}
		byMethod[p.Method()] = up
	}
	if len(byMethod) == 0 {
		return nil, errors.New("core: certify needs at least one provider")
	}
	var (
		ord   *order.Ordering
		specs []cert.Spec
	)
	for _, impl := range defaultRegistry.Impls() {
		p := byMethod[impl.Method()]
		if p == nil {
			continue
		}
		if ord == nil {
			if a := p.adsRef(); a != nil {
				ord = a.ord
			}
		}
		spec, err := impl.planCert(p)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	if ord == nil {
		return nil, errors.New("core: certify needs a provider with a leaf ordering")
	}
	cd, err := snapshotCoreDigest(o.cfg.Hash, o.cfg, net, ord)
	if err != nil {
		return nil, err
	}
	n := net.NumNodes()
	c, err := cert.New(o.cfg.Hash, epoch, cd, n, o.signer.SignatureSize(), specs)
	if err != nil {
		return nil, err
	}
	for m, spec := range specs {
		par.Work(len(spec.Srcs), func(i int) {
			row := c.Methods[m].Row(i)
			ws := sp.AcquireWorkspace(n)
			ws.FullRow(net, spec.Srcs[i])
			for x := range graph.NodeID(n) {
				row.SetSlot(int(x), net.ParentSlot(x, ws.ParentOf(x)))
			}
			row.Seal(o.cfg.Hash)
			sp.ReleaseWorkspace(ws)
		})
	}
	if err := c.Sign(o.signer.Sign); err != nil {
		return nil, err
	}
	return c, nil
}

// snapshotCoreDigest hashes the canonical encodings of the core snapshot
// sections — config, graph, leaf ordering — each length-prefixed so
// section boundaries cannot alias. This is what a certificate's
// CoreDigest commits to: the exact world the method slices were certified
// against, including the leaf ordering every Merkle position depends on.
func snapshotCoreDigest(alg digest.Alg, cfg Config, g *graph.CSR, ord *order.Ordering) ([]byte, error) {
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
// set's own ordering section when one was loaded — always, for a set read
// from a snapshot, so no provider hydrates for it — and otherwise from the
// first provider's network ADS: every provider of a set built in memory
// carries its owner's one ordering.
func (s *ProviderSet) AuditCoreDigest(alg digest.Alg) ([]byte, error) {
	ord := s.ord
	if ord == nil {
		for _, m := range s.Methods() {
			up, err := unwrapProvider(s.provs[m])
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
// method's auditCert. Hydrating the provider (lazy sets) touches exactly
// this method's snapshot section.
func (s *ProviderSet) AuditMethod(mc *cert.MethodCert, v cert.SigVerifier) error {
	m := Method(mc.Method)
	impl, ok := LookupMethod(m)
	if !ok {
		return fmt.Errorf("%w: unknown method %q", cert.ErrMethodMissing, mc.Method)
	}
	if s.Provider(m) == nil {
		return fmt.Errorf("%w: snapshot carries no %s provider", cert.ErrMethodMissing, m)
	}
	if lp, ok := s.Provider(m).(*lazyProvider); ok {
		lp.hydrate("audit") // a failure is sticky: auditCert meets it again
	}
	return impl.auditCert(s, mc, v)
}

// AuditCertificate audits the set against the certificate it carries,
// under v. It returns (nil, nil) when the set carries none, and an error
// instead of a report when the certificate cannot be read — a section that
// fails its CRC or breaks off (snapshot.ErrCorrupt), a malformed wire
// (cert.ErrEncoding) — exactly what Certificate reports then. A lazily
// opened set that has not read its certificate streams the CERT section
// through cert.AuditReader, so no process that only audits ever holds it:
// the section's CRC folds in as the bytes pass and, settled after the
// last, outranks every verdict of the pass. A certificate the set holds
// (SetCertificate, an eager load, an earlier Certificate call) is audited
// where it lies.
func (s *ProviderSet) AuditCertificate(v cert.SigVerifier) (*cert.Report, error) {
	if s.cert == nil && s.file != nil && s.file.Has(snapKindCert) {
		r, err := s.file.Open(snapKindCert)
		if err != nil {
			return nil, err
		}
		rep, err := cert.AuditReader(s, r, r.Len(), v)
		if verr := r.Verify(); verr != nil {
			return nil, verr
		}
		return rep, err
	}
	c, err := s.Certificate()
	if c == nil || err != nil {
		return nil, err
	}
	return cert.Audit(s, c, v), nil
}

// --- shared planCert / auditCert helpers ---

// checkRootSig verifies a stored root signature against its context —
// the same message clients verify per query, checked once per audit.
func checkRootSig(v cert.SigVerifier, ctx, root, sig []byte, what string) error {
	if err := v.VerifyParts(sig, ctx, root); err != nil {
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

// planCert for DIJ: the network root plus one canonical shortest-path
// tree (from the ordering's first leaf), giving DIJ — which stores no hint
// rows — a certified witness over the published graph.
func (dijImpl) planCert(p Provider) (cert.Spec, error) {
	dp, err := providerAs[*DIJProvider](DIJ, p)
	if err != nil {
		return cert.Spec{}, err
	}
	return cert.Spec{
		Method: string(DIJ),
		Roots:  [][]byte{dp.ads.Root()},
		Srcs:   dp.ads.ord.Seq[:1],
	}, nil
}

func (dijImpl) auditCert(s *ProviderSet, mc *cert.MethodCert, v cert.SigVerifier) error {
	dp, err := certProvider[*DIJProvider](s, DIJ)
	if err != nil {
		return err
	}
	if len(mc.Roots) != 1 || mc.NumRows() != 1 {
		return fmt.Errorf("%w: DIJ slice wants 1 root and 1 row, got %d/%d",
			cert.ErrEncoding, len(mc.Roots), mc.NumRows())
	}
	if err := mc.Rows(func(i int, row cert.Row, sc *cert.Scratch) error {
		if want := dp.ads.ord.Seq[0]; row.Src() != want {
			return fmt.Errorf("%w: DIJ row source %d, want canonical leaf %d", cert.ErrEncoding, row.Src(), want)
		}
		if err := cert.AuditRow(s.Graph, row, sc); err != nil {
			return err
		}
		return cert.CheckRowDigest(s.Cfg.Hash, row)
	}); err != nil {
		return err
	}
	if err := cert.AuditTree(dp.ads.tree, mc.Roots[0], "DIJ network tree"); err != nil {
		return err
	}
	return checkRootSig(v, dijSigCtx, dp.ads.Root(), dp.rootSig, "DIJ network")
}

// --- LDM ---

// planCert for LDM: the network root plus one shortest-path tree per
// landmark. The audit folds each tree to its distances — the additions
// the search that built the stored exact row made — and holds the stored
// row (the hints' source of truth) to them bit for bit, without a
// Dijkstra of its own.
func (ldmImpl) planCert(p Provider) (cert.Spec, error) {
	lp, err := providerAs[*LDMProvider](LDM, p)
	if err != nil {
		return cert.Spec{}, err
	}
	return cert.Spec{
		Method: string(LDM),
		Roots:  [][]byte{lp.ads.Root()},
		Srcs:   lp.hints.Landmarks,
	}, nil
}

func (ldmImpl) auditCert(s *ProviderSet, mc *cert.MethodCert, v cert.SigVerifier) error {
	lp, err := certProvider[*LDMProvider](s, LDM)
	if err != nil {
		return err
	}
	h := lp.hints
	if len(mc.Roots) != 1 {
		return fmt.Errorf("%w: LDM slice wants 1 root, got %d", cert.ErrEncoding, len(mc.Roots))
	}
	if mc.NumRows() != h.C() {
		return fmt.Errorf("%w: LDM slice has %d rows, hints have %d landmarks", cert.ErrEncoding, mc.NumRows(), h.C())
	}
	// The landmark rows are independent, so the expensive part — the fold,
	// the linear pass and the digest re-hash — fans out across workers.
	if err := mc.Rows(func(i int, row cert.Row, sc *cert.Scratch) error {
		if row.Src() != h.Landmarks[i] {
			return fmt.Errorf("%w: LDM row %d source %d, want landmark %d", cert.ErrEncoding, i, row.Src(), h.Landmarks[i])
		}
		if err := cert.AuditRow(s.Graph, row, sc); err != nil {
			return err
		}
		stored := h.Dists[i]
		if len(stored) != row.N() {
			return fmt.Errorf("%w: LDM row %d has %d nodes, stored row has %d", cert.ErrEncoding, i, row.N(), len(stored))
		}
		for x, d := range sc.Dists() {
			if stored[x] != d {
				return fmt.Errorf("%w: stored landmark row %d differs from certificate at node %d (%g vs %g)",
					cert.ErrDistance, i, x, stored[x], d)
			}
		}
		return cert.CheckRowDigest(s.Cfg.Hash, row)
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

// planCert for HYP: both roots plus one shortest-path tree per border
// node. The stored rows — W* border-to-border or full — are the values its
// fold gives at the corresponding nodes, so one fold and triangle pass per
// border certifies every stored hyper-distance.
func (hypImpl) planCert(p Provider) (cert.Spec, error) {
	hp, err := providerAs[*HYPProvider](HYP, p)
	if err != nil {
		return cert.Spec{}, err
	}
	aux := []byte{0}
	if hp.hyper.HasFullRows() {
		aux[0] = hypAuxFull
	}
	roots := [][]byte{hp.ads.Root()}
	if hp.distMBT != nil {
		roots = append(roots, hp.distMBT.Root())
	}
	return cert.Spec{
		Method: string(HYP), Aux: aux, Roots: roots, Srcs: hp.hyper.Borders,
	}, nil
}

func (hypImpl) auditCert(s *ProviderSet, mc *cert.MethodCert, v cert.SigVerifier) error {
	hp, err := certProvider[*HYPProvider](s, HYP)
	if err != nil {
		return err
	}
	hy := hp.hyper
	wantAux := byte(0)
	if hy.HasFullRows() {
		wantAux = hypAuxFull
	}
	if len(mc.Aux) != 1 || mc.Aux[0] != wantAux {
		return fmt.Errorf("%w: HYP row-form flag disagrees with stored rows", cert.ErrEncoding)
	}
	if mc.NumRows() != hy.NumBorders() {
		return fmt.Errorf("%w: HYP slice has %d rows, partition has %d borders", cert.ErrEncoding, mc.NumRows(), hy.NumBorders())
	}
	wantRoots := 1
	if hp.distMBT != nil {
		wantRoots = 2
	}
	if len(mc.Roots) != wantRoots {
		return fmt.Errorf("%w: HYP slice has %d roots, want %d", cert.ErrEncoding, len(mc.Roots), wantRoots)
	}
	// One border row per worker slot: with B ≈ √(n·cells) borders this is
	// the audit's widest fan-out.
	if err := mc.Rows(func(i int, row cert.Row, sc *cert.Scratch) error {
		if row.Src() != hy.Borders[i] {
			return fmt.Errorf("%w: HYP row %d source %d, want border %d", cert.ErrEncoding, i, row.Src(), hy.Borders[i])
		}
		if err := cert.AuditRow(s.Graph, row, sc); err != nil {
			return err
		}
		// Stored hyper-rows against the certified labelling: every value
		// hiti stores, in either form, must be the folded distance at its
		// node, bit for bit.
		dist := sc.Dists()
		if err := hy.WalkRow(i, func(x graph.NodeID, got float64) error {
			if d := dist[x]; got != d {
				return fmt.Errorf("%w: stored HYP row %d differs from certificate at node %d (%g vs %g)",
					cert.ErrDistance, i, x, got, d)
			}
			return nil
		}); err != nil {
			return err
		}
		return cert.CheckRowDigest(s.Cfg.Hash, row)
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
	// The distance tree's entries are a function of the stored rows, just
	// held to the certificate above. The tree keeps only its upper levels,
	// so the audit re-hashes the entries group by group, checks each group
	// against the stored level it folds into, folds the stored levels, and
	// holds the root to the certificate's: a pass vouches for every digest
	// the replica holds and every entry a proof can carry.
	dt := hp.distMBT
	if err := dt.Audit(); err != nil {
		return fmt.Errorf("%w: HYP distance tree: %v", cert.ErrRowDigest, err)
	}
	if !bytes.Equal(dt.Root(), mc.Roots[1]) {
		return fmt.Errorf("%w: HYP distance tree root differs from certificate", cert.ErrRowDigest)
	}
	return checkRootSig(v, hypDistCtx, dt.Root(), hp.distSig, "HYP distance")
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

func (fullImpl) planCert(p Provider) (cert.Spec, error) {
	fp, err := providerAs[*FULLProvider](FULL, p)
	if err != nil {
		return cert.Spec{}, err
	}
	return cert.Spec{
		Method: string(FULL),
		Roots:  [][]byte{fp.ads.Root(), fp.forest.Top().Root()},
		Srcs:   certSampleSources(fp.ads.ord.Seq),
	}, nil
}

func (fullImpl) auditCert(s *ProviderSet, mc *cert.MethodCert, v cert.SigVerifier) error {
	fp, err := certProvider[*FULLProvider](s, FULL)
	if err != nil {
		return err
	}
	if len(mc.Roots) != 2 {
		return fmt.Errorf("%w: FULL slice has %d roots, want 2", cert.ErrEncoding, len(mc.Roots))
	}
	srcs := certSampleSources(fp.ads.ord.Seq)
	if mc.NumRows() != len(srcs) {
		return fmt.Errorf("%w: FULL slice has %d rows, want %d sampled", cert.ErrEncoding, mc.NumRows(), len(srcs))
	}
	n := s.Graph.NumNodes()
	top := fp.forest.Top()
	if err := mc.Rows(func(i int, row cert.Row, sc *cert.Scratch) error {
		src := srcs[i]
		if row.Src() != src {
			return fmt.Errorf("%w: FULL row %d source %d, want sample %d", cert.ErrEncoding, i, row.Src(), src)
		}
		if err := cert.AuditRow(s.Graph, row, sc); err != nil {
			return err
		}
		rr, err := mbt.RowRoot(s.Cfg.Hash, s.Cfg.Fanout, n, int(src), sc.Dists())
		if err != nil {
			return fmt.Errorf("%w: FULL row %d: %v", cert.ErrEncoding, i, err)
		}
		if !bytes.Equal(rr, top.Leaf(int(src))) {
			return fmt.Errorf("%w: FULL sampled row %d does not match the stored forest row root", cert.ErrRowDigest, src)
		}
		return cert.CheckRowDigest(s.Cfg.Hash, row)
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
