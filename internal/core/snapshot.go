package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"github.com/authhints/spv/internal/cert"
	"github.com/authhints/spv/internal/digest"
	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/hints/landmark"
	"github.com/authhints/spv/internal/mht"
	"github.com/authhints/spv/internal/order"
	"github.com/authhints/spv/internal/sig"
	"github.com/authhints/spv/internal/snapshot"
)

// This file serializes a complete outsourced deployment — graph, config,
// per-method Merkle levels, hint rows, signatures and the update epoch —
// into the internal/snapshot container, and loads it back without
// recomputing a single hash or running a single search. The split of
// labor: the container layer frames and CRC-checks opaque sections; this
// file owns the core section kinds and the section loop; each method's
// payload codec lives with its MethodImpl (method_dij.go &c.), dispatched
// through the registry by section kind.
//
// A section holds what the provider keeps, as it keeps it, and the loader
// keeps every byte it reads: the Merkle levels a provider stores (the
// hashing bill), hint distance rows and HYP's W* and parent trees (the
// Dijkstra bill) and signatures (the RSA bill). Tuple encodings,
// quantization, compression, grid partitions and hyper-edge key sets are
// cheap deterministic functions of the stored state and are re-derived at
// load, in parallel; so are the digests HYP's distance tree does not keep,
// which it re-hashes from W* when a proof, patch or audit needs them. That
// keeps snapshots compact AND guarantees the loaded provider cannot
// disagree with itself — there is one source of truth per fact.
//
// Trust model: a snapshot is provider-side state. CRCs catch accidental
// corruption; a malicious snapshot can at worst make the provider emit
// proofs that fail client verification, because clients check everything
// against the owner's signed roots. Loaders therefore validate shape
// (dimensions, ranges, bijections) strictly but trust digest values.

// Snapshot section kinds. The core sections (config, graph, verifier,
// ordering) must precede method sections; method kinds are declared here
// so uniqueness is auditable in one place, and each MethodImpl returns
// its own via SnapshotKind. See DESIGN.md §9 for payload byte layouts.
const (
	snapKindConfig   = 1
	snapKindGraph    = 2
	snapKindVerifier = 3
	snapKindOrdering = 4
	snapKindDIJ      = 5
	snapKindFULL     = 6
	snapKindLDM      = 7
	snapKindHYP      = 8
	// snapKindCert carries the owner's snapshot certificate (internal/cert
	// wire). Written last, and only when a certificate is attached — a
	// certificate-less snapshot stays byte-identical to earlier writers.
	snapKindCert = 9
)

// SnapshotSectionName returns the display name of a snapshot section
// kind, or "unknown" — the single source inspection tools (cmd/spvsnap)
// use. Method kinds resolve through the registry, so a new method's
// sections name themselves.
func SnapshotSectionName(kind uint32) string {
	if impl, ok := defaultRegistry.lookupKind(kind); ok {
		return string(impl.Method())
	}
	switch kind {
	case snapKindConfig:
		return "config"
	case snapKindGraph:
		return "graph"
	case snapKindVerifier:
		return "verifier"
	case snapKindOrdering:
		return "ordering"
	case snapKindCert:
		return "cert"
	}
	return "unknown"
}

// ErrBadSnapshot tags semantic snapshot failures: sections that are
// well-framed (CRCs pass) but whose payloads are malformed, inconsistent
// with each other, or from an incompatible writer. Container-level
// integrity failures surface as snapshot.ErrCorrupt instead.
var ErrBadSnapshot = errors.New("core: bad snapshot")

// ProviderSet is a complete deserialized deployment: everything a replica
// needs to serve authenticated proofs (providers, public key, epoch), and
// everything an owner process needs to resume updates (network, config —
// plus its private key, which never enters a snapshot).
//
// A loaded ProviderSet obeys the same concurrency contract as freshly
// outsourced providers: every present provider is immutable and safe for
// unbounded concurrent QueryProof use.
type ProviderSet struct {
	Cfg Config
	// Graph is the network: the one CSR every provider of the set searches
	// and encodes its tuples from, and that RestoreOwner hands the owner.
	Graph    *graph.CSR
	Verifier *sig.Verifier
	// Epoch is the owner's update-batch counter at save time; RestoreOwner
	// continues the sequence from here.
	Epoch int64

	provs map[Method]Provider
	// file backs a lazily opened set (OpenProviderSetLazy): method
	// sections hydrate from it on demand until Close. Nil once an eager
	// load has hydrated everything.
	file *snapshot.File
	// ord is the loaded leaf-ordering section, retained so a certificate
	// audit can recompute the core digest without hydrating any provider.
	ord *order.Ordering
	// cert is the attached snapshot certificate, if any. Lazily opened
	// sets leave it on disk until Certificate() is called (certOnce).
	cert     *cert.Certificate
	certOnce sync.Once
	certErr  error
	// OnHydrate, set (if at all) before the set is shared, hears of every
	// method section's first-touch decode: payload length, duration, whether
	// it failed, and the trigger — "warm" (Warm), "audit" (AuditMethod) or
	// "query" (on demand: a proof, or anything else that needs the provider).
	OnHydrate func(m Method, sectionBytes int64, took time.Duration, trigger string, err error)
}

// SetCertificate attaches a certificate to the set; WriteTo appends it as
// the snapshot's CERT section. Pass nil to detach.
func (s *ProviderSet) SetCertificate(c *cert.Certificate) {
	s.cert = c
	s.certOnce = sync.Once{}
	s.certErr = nil
}

// Certificate returns the set's snapshot certificate, reading the CERT
// section on first call for lazily opened sets. (nil, nil) means the
// snapshot simply carries no certificate.
func (s *ProviderSet) Certificate() (*cert.Certificate, error) {
	s.certOnce.Do(func() {
		if s.cert != nil || s.file == nil {
			return
		}
		if !s.file.Has(snapKindCert) {
			return
		}
		payload, err := s.file.Section(snapKindCert)
		if err != nil {
			s.certErr = err
			return
		}
		s.cert, s.certErr = cert.DecodeCertificate(payload)
	})
	return s.cert, s.certErr
}

// RemoveProvider detaches method m from the set — the -audit-on-load
// path drops providers whose audit failed before building an engine.
func (s *ProviderSet) RemoveProvider(m Method) {
	delete(s.provs, m)
}

// Provider returns the set's provider for m, or nil when the set does
// not carry that method.
func (s *ProviderSet) Provider(m Method) Provider {
	p, ok := s.provs[m]
	if !ok {
		return nil
	}
	return p
}

// SetProvider attaches p to the set, replacing any previous provider of
// its method; nil (absent) providers are ignored.
func (s *ProviderSet) SetProvider(p Provider) {
	if p == nil || p.viewRef() == nil {
		return
	}
	if s.provs == nil {
		s.provs = make(map[Method]Provider, 4)
	}
	s.provs[p.Method()] = p
}

// Methods lists the methods present in the set, in the registry's
// canonical order.
func (s *ProviderSet) Methods() []Method {
	var out []Method
	for _, m := range RegisteredMethods() {
		if s.provs[m] != nil {
			out = append(out, m)
		}
	}
	return out
}

// WriteSnapshot serializes the owner's deployment state plus the given
// outsourced providers (nils are skipped, at least one must remain) into
// w. Every provider must have been outsourced by — or patched through —
// this owner at its current epoch (see currentProviders). Returns the
// bytes written.
//
// WriteSnapshot reads the owner's network and the providers' structures
// but mutates nothing; it must not run concurrently with ApplyUpdates (the
// serving layer's Deployment.Save serializes against updates for you).
func (o *Owner) WriteSnapshot(w io.Writer, provs ...Provider) (int64, error) {
	return o.WriteSnapshotCert(w, nil, provs...)
}

// WriteSnapshotCert is WriteSnapshot with a snapshot certificate attached:
// c (when non-nil) is embedded as the file's CERT section, so replicas can
// audit the loaded state offline (see internal/cert). The certificate's
// epoch must match the owner's — a stale one would fail every audit, so it
// is rejected here rather than persisted.
func (o *Owner) WriteSnapshotCert(w io.Writer, c *cert.Certificate, provs ...Provider) (int64, error) {
	o.mu.Lock()
	set := &ProviderSet{Cfg: o.cfg, Graph: o.net, Verifier: o.Verifier(), Epoch: o.epoch, cert: c}
	o.mu.Unlock()
	if c != nil && c.Epoch() != set.Epoch {
		return 0, fmt.Errorf("core: certificate epoch %d does not match owner epoch %d — re-issue with Certify", c.Epoch(), set.Epoch)
	}
	provs, err := currentProviders(set.Graph, provs, "snapshotting")
	if err != nil {
		return 0, err
	}
	for _, p := range provs {
		set.SetProvider(p)
	}
	return set.WriteTo(w)
}

// currentProviders drops the nil providers of provs and checks that every
// other one searches net, the owner's network at its current epoch. Each
// epoch's network is a CSR nobody modifies, shared by exactly the providers
// outsourced or patched at that epoch, so one pointer comparison rejects
// both a provider from another owner and a stale one that an update batch
// has since superseded — snapshotting or certifying either would pair this
// network with someone else's trees and signatures, and every replica
// booted from the result would serve proofs that fail client verification.
func currentProviders(net *graph.CSR, provs []Provider, use string) ([]Provider, error) {
	var out []Provider
	for _, p := range provs {
		if p == nil || p.viewRef() == nil {
			continue
		}
		if p.viewRef() != net {
			return nil, fmt.Errorf("core: %s provider is not this owner's at its current epoch — outsource it from this owner, or patch it through the latest update batch, before %s", p.Method(), use)
		}
		out = append(out, p)
	}
	return out, nil
}

// WriteTo serializes the set into w in snapshot container format: the core
// sections (config, graph, verifier, ordering) followed by one section per
// present method, in the registry's canonical order. It returns the total
// bytes written. Safe to call on a loaded set (replicas can re-publish the
// snapshot they booted from).
func (s *ProviderSet) WriteTo(w io.Writer) (int64, error) {
	if s.Graph == nil || s.Verifier == nil {
		return 0, errors.New("core: snapshot needs a graph and a verifier")
	}
	ord, err := s.sharedOrdering()
	if err != nil {
		return 0, err
	}
	sw, err := snapshot.NewWriter(w, s.Epoch)
	if err != nil {
		return 0, err
	}
	if err := sw.Section(snapKindConfig, appendSnapConfig(nil, s.Cfg)); err != nil {
		return sw.Bytes(), err
	}
	// The network streams straight into its section — its encoded size is
	// exact arithmetic, so nothing buffers a second copy.
	gw, err := sw.BeginSection(snapKindGraph, uint64(s.Graph.BinarySize()))
	if err != nil {
		return sw.Bytes(), err
	}
	if _, err := s.Graph.WriteTo(gw); err != nil {
		return sw.Bytes(), err
	}
	if err := sw.EndSection(); err != nil {
		return sw.Bytes(), err
	}
	pem, err := s.Verifier.MarshalPEM()
	if err != nil {
		return sw.Bytes(), err
	}
	if err := sw.Section(snapKindVerifier, pem); err != nil {
		return sw.Bytes(), err
	}
	if err := sw.Section(snapKindOrdering, appendSnapOrdering(nil, ord)); err != nil {
		return sw.Bytes(), err
	}
	for _, impl := range defaultRegistry.Impls() {
		p := s.Provider(impl.Method())
		if p == nil {
			continue
		}
		if err := impl.StreamSnapshot(sw, p); err != nil {
			return sw.Bytes(), err
		}
	}
	// The certificate rides last: it describes the method sections above,
	// and replicas that audit lazily never need to seek past it. Its
	// section is the bytes it already is.
	if s.cert != nil {
		if err := sw.Section(snapKindCert, s.cert.Bytes()); err != nil {
			return sw.Bytes(), err
		}
	}
	if err := sw.Close(); err != nil {
		return sw.Bytes(), err
	}
	return sw.Bytes(), nil
}

// snapStream adapts a streaming section writer to the append-style
// encoding helpers, with sticky-error semantics mirroring snapCursor. The
// bufio layer keeps tree-level and row writes from degenerating into tiny
// syscalls.
type snapStream struct {
	bw  *bufio.Writer
	err error
	buf [512]byte // f64s's and u16s's encoding scratch
}

func newSnapStream(w io.Writer) *snapStream {
	return &snapStream{bw: bufio.NewWriterSize(w, 1<<16)}
}

func (s *snapStream) write(p []byte) {
	if s.err != nil {
		return
	}
	_, s.err = s.bw.Write(p)
}

func (s *snapStream) u8(v byte) { s.write([]byte{v}) }

func (s *snapStream) u16(v uint16) {
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], v)
	s.write(b[:])
}

func (s *snapStream) u32(v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	s.write(b[:])
}

func (s *snapStream) f64(v float64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
	s.write(b[:])
}

func (s *snapStream) bytes(b []byte) {
	s.u32(uint32(len(b)))
	s.write(b)
}

// f64s writes vs, a scratch buffer of encoded values at a time.
func (s *snapStream) f64s(vs []float64) {
	for len(vs) > 0 && s.err == nil {
		k := min(len(vs), len(s.buf)/8)
		for i, v := range vs[:k] {
			binary.BigEndian.PutUint64(s.buf[8*i:], math.Float64bits(v))
		}
		s.write(s.buf[:8*k])
		vs = vs[k:]
	}
}

// u16s writes vs, a scratch buffer of encoded values at a time.
func (s *snapStream) u16s(vs []uint16) {
	for len(vs) > 0 && s.err == nil {
		k := min(len(vs), len(s.buf)/2)
		for i, v := range vs[:k] {
			binary.BigEndian.PutUint16(s.buf[2*i:], v)
		}
		s.write(s.buf[:2*k])
		vs = vs[k:]
	}
}

// tree streams a Merkle tree, every level verbatim:
//
//	alg u8 | fanout u16 | levels u32 | per level: width u32 | width × digest
//
// A level on disk is the slab it is in memory, so it goes out in one write
// (and comes back in one read, snapCursor.tree).
func (s *snapStream) tree(t *mht.Tree) {
	s.u8(byte(t.Alg()))
	s.u16(uint16(t.Fanout()))
	s.u32(uint32(t.Height()))
	for _, lvl := range t.Levels() {
		s.u32(uint32(len(lvl) / t.Alg().Size()))
		s.write(lvl)
	}
}

func (s *snapStream) flush() error {
	if s.err != nil {
		return s.err
	}
	return s.bw.Flush()
}

// snapBytesSize and snapTreeSize are the size arithmetic behind streaming
// sections: what snapStream.bytes and snapStream.tree will write.
func snapBytesSize(b []byte) uint64 { return 4 + uint64(len(b)) }

func snapTreeSize(t *mht.Tree) uint64 {
	total := uint64(1 + 2 + 4)
	for _, lvl := range t.Levels() {
		total += 4 + uint64(len(lvl))
	}
	return total
}

// streamSection runs one method's body writer inside a BeginSection /
// EndSection frame of the declared size.
func streamSection(sw *snapshot.Writer, kind uint32, size uint64, body func(s *snapStream)) error {
	w, err := sw.BeginSection(kind, size)
	if err != nil {
		return err
	}
	s := newSnapStream(w)
	body(s)
	if err := s.flush(); err != nil {
		return err
	}
	return sw.EndSection()
}

// sharedOrdering returns the (single) leaf ordering all present providers
// were built under, verifying they agree — a mixed set would produce a
// snapshot whose method sections silently disagree about leaf positions.
func (s *ProviderSet) sharedOrdering() (*order.Ordering, error) {
	var ord *order.Ordering
	for _, m := range s.Methods() {
		a := s.provs[m].adsRef()
		if a == nil {
			continue
		}
		if ord == nil {
			ord = a.ord
			continue
		}
		if len(ord.Seq) != len(a.ord.Seq) {
			return nil, errors.New("core: providers disagree on leaf ordering")
		}
		for i := range ord.Seq {
			if ord.Seq[i] != a.ord.Seq[i] {
				return nil, errors.New("core: providers disagree on leaf ordering")
			}
		}
	}
	if ord == nil {
		return nil, errors.New("core: snapshot needs at least one provider")
	}
	return ord, nil
}

// RestoreOwner rebuilds an update-capable owner for this loaded set around
// the owner's persisted private key: the set's network, config and epoch,
// so subsequent ApplyUpdates batches continue the snapshot's epoch sequence
// and the set's providers count as current. The caller must have checked
// that signer's public half matches the set's verifier
// (sig.Verifier.Equal) — an owner with a different key would re-sign
// patched roots that no distributed verifier accepts.
func (s *ProviderSet) RestoreOwner(signer *sig.Signer) (*Owner, error) {
	return newOwner(s.Graph, s.Cfg, signer, s.Epoch)
}

// --- core section payload encodings ---

// appendSnapConfig encodes a Config:
//
//	hash u8 | fanout u32 | ordering str | orderSeed i64 | rsaBits u32 |
//	landmarks u32 | quantBits u32 | xi f64 | strategy str | hintSeed i64 |
//	cells u32 | pinnedLambda f64 | pinnedN u32 | pinnedN × u32
func appendSnapConfig(buf []byte, cfg Config) []byte {
	buf = append(buf, byte(cfg.Hash))
	buf = binary.BigEndian.AppendUint32(buf, uint32(cfg.Fanout))
	buf = appendBytes(buf, []byte(cfg.Ordering))
	buf = binary.BigEndian.AppendUint64(buf, uint64(cfg.OrderSeed))
	buf = binary.BigEndian.AppendUint32(buf, uint32(cfg.RSABits))
	buf = binary.BigEndian.AppendUint32(buf, uint32(cfg.Landmarks))
	buf = binary.BigEndian.AppendUint32(buf, uint32(cfg.QuantBits))
	buf = appendFloat(buf, cfg.Xi)
	buf = appendBytes(buf, []byte(cfg.Strategy))
	buf = binary.BigEndian.AppendUint64(buf, uint64(cfg.HintSeed))
	buf = binary.BigEndian.AppendUint32(buf, uint32(cfg.Cells))
	buf = appendFloat(buf, cfg.PinnedLambda)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(cfg.PinnedLandmarks)))
	for _, l := range cfg.PinnedLandmarks {
		buf = binary.BigEndian.AppendUint32(buf, uint32(l))
	}
	return buf
}

func decodeSnapConfig(r *snapshot.SectionReader) (Config, error) {
	c := newSnapCursor(r)
	var cfg Config
	cfg.Hash = digestAlg(c.u8())
	cfg.Fanout = int(c.u32())
	cfg.Ordering = order.Method(c.str())
	cfg.OrderSeed = int64(c.u64())
	cfg.RSABits = int(c.u32())
	cfg.Landmarks = int(c.u32())
	cfg.QuantBits = int(c.u32())
	cfg.Xi = c.f64()
	cfg.Strategy = landmark.Strategy(c.str())
	cfg.HintSeed = int64(c.u64())
	cfg.Cells = int(c.u32())
	cfg.PinnedLambda = c.f64()
	n := int(c.u32())
	if c.err == nil && int64(n) > c.remaining()/4 {
		c.fail("pinned landmark count %d exceeds payload", n)
	}
	for i := 0; i < n && c.err == nil; i++ {
		cfg.PinnedLandmarks = append(cfg.PinnedLandmarks, graph.NodeID(c.u32()))
	}
	if err := c.finish("config"); err != nil {
		return Config{}, err
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return cfg, nil
}

// appendSnapOrdering encodes the leaf ordering: method str | n u32 | n × u32.
func appendSnapOrdering(buf []byte, ord *order.Ordering) []byte {
	buf = appendBytes(buf, []byte(ord.Method))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ord.Seq)))
	for _, v := range ord.Seq {
		buf = binary.BigEndian.AppendUint32(buf, uint32(v))
	}
	return buf
}

func decodeSnapOrdering(r *snapshot.SectionReader, numNodes int) (*order.Ordering, error) {
	c := newSnapCursor(r)
	m := order.Method(c.str())
	n := int(c.u32())
	if c.err == nil && n != numNodes {
		c.fail("ordering over %d nodes, graph has %d", n, numNodes)
	}
	b := c.take(4 * int64(n)) // one read; capped by the bytes left in the section
	seq := make([]graph.NodeID, len(b)/4)
	for i := range seq {
		seq[i] = graph.NodeID(binary.BigEndian.Uint32(b[4*i:]))
	}
	if err := c.finish("ordering"); err != nil {
		return nil, err
	}
	ord, err := order.FromSeq(m, seq)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return ord, nil
}

// tree reads a tree as snapStream.tree wrote it.
func (c *snapCursor) tree() *mht.Tree {
	alg := digestAlg(c.u8())
	if c.err == nil && !alg.Valid() {
		c.fail("invalid tree hash algorithm %d", alg)
	}
	fanout := int(c.u16())
	numLevels := int(c.u32())
	// Cap the up-front allocation: a fanout-2 tree over 2^32 leaves has 33
	// levels, so any honest level count fits in 64; a lying one must not
	// allocate ahead of the bytes that back it.
	levels := make([][]byte, 0, min(numLevels, 64))
	for l := 0; l < numLevels && c.err == nil; l++ {
		width := int64(c.u32())
		// From the file straight into the slab the tree keeps. Sub-slicing
		// a section read whole would pin it all — mostly hint rows, which
		// are parsed into their own storage — for the provider's lifetime.
		levels = append(levels, c.take(width*int64(alg.Size())))
	}
	if c.err != nil {
		return nil
	}
	t, err := mht.Rehydrate(alg, fanout, levels)
	if err != nil {
		c.fail("%v", err)
		return nil
	}
	return t
}

// rehydrateADS rebuilds a networkADS from the loaded network, ordering and
// tree for a method section decoder: the tree digests come from the
// snapshot; leaf messages are re-encoded (deterministic in the network and
// the method's extra bytes) chunk by chunk on first query touch, so a
// freshly opened replica's first proof encodes only the tuples it actually
// covers. An eager load materializes the table right after (hydrateAll).
func (env *SnapshotEnv) rehydrateADS(tree *mht.Tree, extraFn func(graph.NodeID) []byte) (*networkADS, error) {
	n := env.Graph.NumNodes()
	if tree.NumLeaves() != n {
		return nil, fmt.Errorf("%w: network tree has %d leaves for %d nodes", ErrBadSnapshot, tree.NumLeaves(), n)
	}
	return &networkADS{ord: env.Ord, tree: tree, msgs: make([][]byte, n), lazy: &tupleFill{
		net: env.Graph, extraFn: extraFn,
		chunks: make([]sync.Once, (n+tupleChunk-1)/tupleChunk),
	}}, nil
}

// --- decode cursor ---

// snapWindow stages fixed-width fields and hint-row floats; take bypasses it.
const snapWindow = 64 << 10

// snapCursor walks a section's streaming reader with sticky-error
// semantics: the first failure latches, later reads return zero values,
// and finish reports it (or trailing garbage). This keeps the decoders
// linear instead of error-pyramid shaped. The cursor runs ahead of the
// section's checksum, so a count it reads may be a flipped bit: each is
// capped by the bytes left in the section, and finish — which a decoder
// calls before it builds on what it read — fails unless the CRC held.
type snapCursor struct {
	r   *snapshot.SectionReader
	br  *bufio.Reader // over r
	err error
}

func newSnapCursor(r *snapshot.SectionReader) *snapCursor {
	return &snapCursor{r: r, br: bufio.NewReaderSize(r, int(min(r.Len(), snapWindow)))}
}

func (c *snapCursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", ErrBadSnapshot, fmt.Sprintf(format, args...))
	}
}

// remaining is the section bytes not yet consumed.
func (c *snapCursor) remaining() int64 { return int64(c.br.Buffered()) + c.r.Len() }

// raw returns the next n bytes of the window (n at most its size), valid
// until the next read — or, once the cursor has failed, up to 8 zeros.
func (c *snapCursor) raw(n int) []byte {
	if left := c.remaining(); c.err == nil && left < int64(n) {
		c.fail("truncated (%d bytes left, need %d)", left, n)
	}
	if c.err == nil {
		var b []byte
		if b, c.err = c.br.Peek(n); c.err == nil {
			c.br.Discard(n)
			return b
		}
	}
	return make([]byte, min(n, 8))
}

// take returns the next n > 0 bytes in memory of their own: what the
// window already holds, then the rest straight from the file, unstaged.
func (c *snapCursor) take(n int64) []byte {
	if left := c.remaining(); c.err == nil && (n <= 0 || n > left) {
		c.fail("%d bytes claimed, %d left in the section", n, left)
	}
	if c.err != nil {
		return nil
	}
	dst := make([]byte, n)
	_, c.err = io.ReadFull(c.br, dst)
	return dst
}

func (c *snapCursor) u8() byte     { return c.raw(1)[0] }
func (c *snapCursor) u16() uint16  { return binary.BigEndian.Uint16(c.raw(2)) }
func (c *snapCursor) u32() uint32  { return binary.BigEndian.Uint32(c.raw(4)) }
func (c *snapCursor) u64() uint64  { return binary.BigEndian.Uint64(c.raw(8)) }
func (c *snapCursor) f64() float64 { return math.Float64frombits(c.u64()) }
func (c *snapCursor) str() string  { return string(c.bytes()) }
func (c *snapCursor) bytes() []byte {
	if n := int64(c.u32()); n > 0 {
		return c.take(n)
	}
	return nil
}

// rows reads n rows of rowLen floats — hint rows are the bulk of a section
// — into one slab, sub-sliced per row, a window of bytes at a time.
func (c *snapCursor) rows(n, rowLen int) [][]float64 {
	if c.err == nil && int64(n) > c.remaining()/8/int64(max(rowLen, 1)) {
		c.fail("%d rows of %d distances exceed payload", n, rowLen)
	}
	if c.err != nil {
		return nil
	}
	slab, out := make([]float64, n*rowLen), make([][]float64, n)
	c.f64s(slab)
	for i := range out {
		out[i] = slab[i*rowLen : (i+1)*rowLen : (i+1)*rowLen]
	}
	return out
}

// f64s fills dst with the next len(dst) floats, a window of bytes at a
// time.
func (c *snapCursor) f64s(dst []float64) {
	for i := 0; i < len(dst) && c.err == nil; {
		b := c.raw(8 * min(len(dst)-i, c.br.Size()/8))
		for j := 0; j+8 <= len(b); i, j = i+1, j+8 {
			dst[i] = math.Float64frombits(binary.BigEndian.Uint64(b[j:]))
		}
	}
}

// u16s fills dst with the next len(dst) uint16s, a window of bytes at a
// time.
func (c *snapCursor) u16s(dst []uint16) {
	for i := 0; i < len(dst) && c.err == nil; {
		b := c.raw(2 * min(len(dst)-i, c.br.Size()/2))
		for j := 0; j+2 <= len(b); i, j = i+1, j+2 {
			dst[i] = binary.BigEndian.Uint16(b[j:])
		}
	}
}

// finish ends a decode by reading the section to its end: a checksum
// failure outranks whatever the decoder made of the bytes — a flipped count
// fails it long before the CRC is known, and must still read as corruption.
func (c *snapCursor) finish(what string) error {
	trailing := c.remaining()
	if err := c.r.Verify(); err != nil {
		return fmt.Errorf("%s section: %w", what, err)
	}
	if c.err != nil {
		return fmt.Errorf("%s section: %w", what, c.err)
	}
	if trailing != 0 {
		return fmt.Errorf("%w: %s section has %d trailing bytes", ErrBadSnapshot, what, trailing)
	}
	return nil
}

// digestAlg narrows a decoded byte to the digest algorithm type.
func digestAlg(b byte) digest.Alg { return digest.Alg(b) }
