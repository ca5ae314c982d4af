package core

import (
	"fmt"

	"github.com/authhints/spv/internal/cert"
	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/order"
	"github.com/authhints/spv/internal/snapshot"
	"github.com/authhints/spv/internal/sp"
)

// This file is the method dispatch spine: one MethodImpl per verification
// method, collected in a Registry with a fixed canonical iteration order.
// Every layer above core — the serving engine, deployments, snapshots and
// the CLIs — dispatches through the registry instead of enumerating
// methods.
//
// Determinism contract: the registry's canonical order (the order impls
// were registered in, the paper's presentation order for the built-ins)
// governs snapshot section order, Engine.Methods listings and deployment
// patch order. It must never depend on map iteration.

// ErrUnknownMethod reports a Method the registry has no implementation
// for.
var ErrUnknownMethod = fmt.Errorf("core: unknown method")

// Proof is the method-erased face of a query proof. Every concrete proof
// (DIJProof &c.) implements it; the serving layer and the CLIs handle
// proofs through this interface only. Result and LeafSpan come from the
// frame every method's answer shares (proofFrame, wire.go).
type Proof interface {
	// AppendBinary serializes the proof's exact wire encoding — the bytes
	// clients decode, caches key on, and the paper's size figures count.
	AppendBinary(buf []byte) []byte
	// Stats is the proof's communication breakdown (ΓS / ΓT split).
	Stats() ProofStats
	// LeafSpan is the inclusive range of network-ADS leaf positions the
	// proof's tuples cover (ok=false when empty); the proof cache uses it
	// for precise invalidation under updates.
	LeafSpan() (lo, hi uint32, ok bool)
	// Result returns the reported path and its claimed distance.
	Result() (graph.Path, float64)
}

// Provider is the method-erased face of a service provider: immutable
// once outsourced (or loaded from a snapshot), safe for unbounded
// concurrent QueryProof use, and byte-deterministic — a fixed provider
// instance answers a given (vs, vt) with one exact wire encoding.
//
// The unexported hooks keep the implementation set closed to this
// package: a new method lives in core (see MethodImpl) and is wired up
// through the registry, never implemented ad hoc elsewhere.
type Provider interface {
	// Method names the verification method this provider serves.
	Method() Method
	// QueryProof answers one shortest path query with a verifiable proof.
	QueryProof(vs, vt graph.NodeID) (Proof, error)

	adsRef() *networkADS
	viewRef() *graph.CSR
}

// providerBase is what every method's provider holds besides its own hints
// and signatures: a view — the owner's network at the epoch the provider
// was outsourced or patched at, which every search iterates and every tuple
// encodes from — and the network ADS the proofs' tuples and Merkle proofs
// come from. The view is immutable, and it is also the provider's identity
// in the owner's ownership-and-staleness guard (one pointer comparison).
type providerBase struct {
	view *graph.CSR
	ads  *networkADS
}

func (b *providerBase) adsRef() *networkADS { return b.ads }
func (b *providerBase) viewRef() *graph.CSR { return b.view }

// checkEndpoints rejects out-of-range endpoints and vs == vt as bad queries.
func (b *providerBase) checkEndpoints(vs, vt graph.NodeID) error {
	if n := b.view.NumNodes(); vs < 0 || int(vs) >= n || vt < 0 || int(vt) >= n {
		return fmt.Errorf("%w: endpoints (%d, %d) out of range", ErrBadQuery, vs, vt)
	}
	if vs == vt {
		return fmt.Errorf("%w: source equals target (%d)", ErrBadQuery, vs)
	}
	return nil
}

// SigVerifier is the slice of sig.Verifier client-side verification
// needs (an interface keeps tests free to stub it).
type SigVerifier interface {
	Verify(msg, signature []byte) error
}

// MethodImpl is the integration contract of one verification method:
// everything the outsource → sign → serve → patch → snapshot lifecycle
// needs, behind one value the registry hands to every layer. See
// DESIGN.md §10 for the full contract a new method must satisfy
// (determinism obligations, snapshot stored-vs-derived rule).
type MethodImpl interface {
	// Method names the implementation; registry keys and wire "method"
	// fields use it.
	Method() Method
	// Outsource builds the provider bundle (ADS construction, hint rows,
	// signed roots) from the owner's current network. Row builds must be
	// byte-deterministic under parallel execution. A method whose build
	// runs full-row searches from its certificate rows' sources hands each
	// to trees when that is not nil (OutsourceCertified).
	Outsource(o *Owner, trees sp.TreeSink) (Provider, error)
	// DecodeProof parses a proof wire encoding, returning the proof and
	// the bytes consumed. Decoders must bound allocations by the bytes
	// actually present, never by counts the (untrusted) encoding claims.
	DecodeProof(buf []byte) (Proof, int, error)
	// VerifyProof is the client side: a nil error means the reported
	// path is authentic AND optimal under v's key.
	VerifyProof(v SigVerifier, vs, vt graph.NodeID, pr Proof) error
	// Patch derives an updated provider from an applied update batch,
	// copy-on-write: the old provider keeps serving until swapped, and
	// the result is byte-identical to a from-scratch re-outsource.
	Patch(b *UpdateBatch, p Provider) (Provider, *PatchStats, error)
	// SnapshotKind is the method's snapshot container section kind
	// (unique across the registry, append-only across versions).
	SnapshotKind() uint32
	// StreamSnapshot writes the provider's snapshot section into the
	// container (streamSection, with the exact length declared up front so
	// hint rows never sit in memory twice): stored truth only (Merkle
	// levels, hint rows, signatures); cheap deterministic derivations are
	// re-derived at load.
	StreamSnapshot(sw *snapshot.Writer, p Provider) error
	// DecodeSnapshot rehydrates a provider from its section's streaming
	// reader and the shared core state, without recomputing a hash or
	// running a search. It reads ahead of the section's checksum, and builds
	// on what it read only once snapCursor.finish says the CRC held.
	DecodeSnapshot(r *snapshot.SectionReader, env *SnapshotEnv) (Provider, error)

	// planCert declares the method's slice of a snapshot certificate at
	// issue time; auditCert checks a loaded provider against that slice in
	// linear time (certify.go). Unexported, like Provider's hooks: a method
	// lives in this package, and none passes an audit it did not implement.
	planCert(p Provider) (cert.Spec, error)
	auditCert(s *ProviderSet, mc *cert.MethodCert, v cert.SigVerifier) error
}

// SnapshotEnv is the shared core state every method section decoder
// needs: the loaded network all providers search and encode from, the
// single leaf ordering, and the owner configuration.
type SnapshotEnv struct {
	Graph *graph.CSR
	Ord   *order.Ordering
	Cfg   Config
}

// Registry maps methods to implementations with a fixed canonical
// iteration order (registration order). Immutable after construction;
// safe for unbounded concurrent lookup.
type Registry struct {
	order  []Method
	impls  map[Method]MethodImpl
	byKind map[uint32]MethodImpl
}

// newRegistry builds a registry from impls, in order. Duplicate methods
// or snapshot kinds are rejected — either would make dispatch ambiguous.
func newRegistry(impls ...MethodImpl) (*Registry, error) {
	r := &Registry{
		impls:  make(map[Method]MethodImpl, len(impls)),
		byKind: make(map[uint32]MethodImpl, len(impls)),
	}
	for _, impl := range impls {
		m := impl.Method()
		if _, dup := r.impls[m]; dup {
			return nil, fmt.Errorf("core: duplicate method %q in registry", m)
		}
		k := impl.SnapshotKind()
		if k <= snapKindOrdering || k == snapKindCert {
			// Kinds 1..4 are the core sections (config, graph, verifier,
			// ordering) and kind 9 the snapshot certificate; the section
			// loop dispatches method kinds first, so a collision would
			// shadow a reserved section on every load.
			return nil, fmt.Errorf("core: method %q snapshot kind %d collides with the reserved core sections", m, k)
		}
		if _, dup := r.byKind[k]; dup {
			return nil, fmt.Errorf("core: duplicate snapshot kind %d in registry", k)
		}
		r.order = append(r.order, m)
		r.impls[m] = impl
		r.byKind[k] = impl
	}
	return r, nil
}

// Lookup returns the implementation of m.
func (r *Registry) Lookup(m Method) (MethodImpl, bool) {
	impl, ok := r.impls[m]
	return impl, ok
}

// lookupKind resolves a snapshot section kind to its method.
func (r *Registry) lookupKind(kind uint32) (MethodImpl, bool) {
	impl, ok := r.byKind[kind]
	return impl, ok
}

// Methods lists the registry's methods in canonical order (a copy).
func (r *Registry) Methods() []Method {
	return append([]Method(nil), r.order...)
}

// Impls lists the implementations in canonical order (a copy).
func (r *Registry) Impls() []MethodImpl {
	out := make([]MethodImpl, len(r.order))
	for i, m := range r.order {
		out[i] = r.impls[m]
	}
	return out
}

// defaultRegistry holds the four paper methods in presentation order —
// the canonical order every listing, snapshot and patch loop follows.
var defaultRegistry = func() *Registry {
	r, err := newRegistry(dijImpl{}, fullImpl{}, ldmImpl{}, hypImpl{})
	if err != nil {
		panic(err)
	}
	return r
}()

// LookupMethod resolves m against the default registry.
func LookupMethod(m Method) (MethodImpl, bool) { return defaultRegistry.Lookup(m) }

// RegisteredMethods lists the default registry's methods in canonical
// order. Methods() is its public alias.
func RegisteredMethods() []Method { return defaultRegistry.Methods() }

// Outsource builds the provider bundle for method m via the registry.
func (o *Owner) Outsource(m Method) (Provider, error) { return o.outsource(m, nil) }

// outsource is Outsource, the build's searches handed to trees when that
// is not nil.
func (o *Owner) outsource(m Method, trees sp.TreeSink) (Provider, error) {
	impl, ok := LookupMethod(m)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownMethod, m)
	}
	return impl.Outsource(o, trees)
}

// Patch derives an updated provider for p's method from this batch via
// the registry.
func (b *UpdateBatch) Patch(p Provider) (Provider, *PatchStats, error) {
	impl, ok := LookupMethod(p.Method())
	if !ok {
		return nil, nil, fmt.Errorf("%w %q", ErrUnknownMethod, p.Method())
	}
	return impl.Patch(b, p)
}

// proofAs narrows an erased proof to method m's concrete type; a
// mismatch is a malformed-proof class error (the caller paired bytes
// with the wrong method).
func proofAs[T Proof](m Method, pr Proof) (T, error) {
	p, ok := pr.(T)
	if !ok {
		var zero T
		return zero, fmt.Errorf("%w: %s verification got proof type %T", ErrMalformedProof, m, pr)
	}
	return p, nil
}

// providerAs narrows an erased provider to method m's concrete type,
// hydrating a lazily opened provider first — patching or re-snapshotting
// a lazy set materializes exactly the methods the operation touches.
func providerAs[T Provider](m Method, p Provider) (T, error) {
	p, err := unwrapProvider(p)
	if err != nil {
		var zero T
		return zero, err
	}
	cp, ok := p.(T)
	if !ok {
		var zero T
		return zero, fmt.Errorf("core: %s impl got provider type %T", m, p)
	}
	return cp, nil
}

// DecodeProof parses a proof of method m via the registry. A decoded proof
// aliases buf: tuple records, Merkle digests and signatures are slices of
// it (decoding a 40 KB proof copies nothing but its path), so the caller
// must leave buf unmodified while the proof is in use. This holds for every
// decoder in the package — each method's, DecodeProofBatch — and is stated
// here once.
func DecodeProof(m Method, buf []byte) (Proof, int, error) {
	impl, ok := LookupMethod(m)
	if !ok {
		return nil, 0, fmt.Errorf("%w %q", ErrUnknownMethod, m)
	}
	return impl.DecodeProof(buf)
}

// VerifyProof client-verifies a proof of method m via the registry; a
// nil error means the reported path is authentic and optimal.
func VerifyProof(v SigVerifier, m Method, vs, vt graph.NodeID, pr Proof) error {
	impl, ok := LookupMethod(m)
	if !ok {
		return fmt.Errorf("%w %q", ErrUnknownMethod, m)
	}
	return impl.VerifyProof(v, vs, vt, pr)
}
