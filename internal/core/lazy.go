package core

import (
	"fmt"
	"sync"

	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/sig"
	"github.com/authhints/spv/internal/snapshot"
)

// This file is the lazy half of the snapshot loader: OpenProviderSetLazy
// opens a snapshot through the container's random-access File handle,
// decodes only the core sections (config, graph, verifier, ordering —
// small, needed before any proof), and defers every method section to
// first use. A replica booted this way answers its first query after
// O(core sections) work regardless of how many methods — and how many
// gigabytes of hint rows — the file carries, and a method nobody queries
// costs no resident bytes beyond a table entry.
//
// Laziness is layered: each method's section decodes behind a sync.Once
// on first QueryProof (Merkle levels, signatures, hint rows), and the
// decoded provider's tuple table fills chunk by chunk as queries touch
// leaves (see networkADS.msg). Hydration is the same DecodeSnapshot the
// eager loader runs, against the same frozen view, so a lazily served
// proof is byte-identical to an eagerly served one — the round-trip
// contract does not weaken, and neither does client verification, which
// only ever trusts the owner's signed roots. Corruption in a deferred
// section (the container CRC-verifies payloads on first touch) surfaces
// as a clean error from the first query that needs it, not a panic.

// lazyProvider is the method-erased shell of a not-yet-decoded method
// section. It satisfies Provider; the registry's generic paths
// (providerAs) hydrate and unwrap it on demand, so patching or
// re-snapshotting a lazily opened set transparently materializes exactly
// the methods those operations touch.
type lazyProvider struct {
	impl MethodImpl
	file *snapshot.File
	env  *SnapshotEnv
	once sync.Once
	p    Provider
	err  error
}

// hydrate decodes the provider on first call; concurrent callers block on
// the same sync.Once and observe the same result.
func (lp *lazyProvider) hydrate() (Provider, error) {
	lp.once.Do(func() {
		payload, err := lp.file.Section(lp.impl.SnapshotKind())
		if err != nil {
			lp.err = fmt.Errorf("core: hydrating %s section: %w", lp.impl.Method(), err)
			return
		}
		lp.p, lp.err = lp.impl.DecodeSnapshot(payload, lp.env)
	})
	return lp.p, lp.err
}

// Method names the verification method without hydrating.
func (lp *lazyProvider) Method() Method { return lp.impl.Method() }

// QueryProof hydrates on first use and serves from the decoded provider.
func (lp *lazyProvider) QueryProof(vs, vt graph.NodeID) (Proof, error) {
	p, err := lp.hydrate()
	if err != nil {
		return nil, err
	}
	return p.QueryProof(vs, vt)
}

// graphRef and viewRef answer from the shared core state — the staleness
// guard and the serving layer must not force hydration just to identity-
// compare pointers.
func (lp *lazyProvider) graphRef() *graph.Graph { return lp.env.Graph }
func (lp *lazyProvider) viewRef() *graph.CSR    { return lp.env.View }

// adsRef hydrates: the callers (shared-ordering audit, snapshot rewrite)
// need the real tree.
func (lp *lazyProvider) adsRef() *networkADS {
	p, err := lp.hydrate()
	if err != nil {
		return nil
	}
	return p.adsRef()
}

// unwrapProvider resolves a lazy shell to its decoded provider (hydrating
// if needed); concrete providers pass through.
func unwrapProvider(p Provider) (Provider, error) {
	if lp, ok := p.(*lazyProvider); ok {
		return lp.hydrate()
	}
	return p, nil
}

// OpenProviderSetLazy opens a snapshot file for lazy serving: core
// sections load now, each method section decodes on its first query, and
// tuple tables fill as queries touch them. The returned set serves proofs
// byte-identical to OpenProviderSet's and obeys the same concurrency
// contract; it holds the file open for on-demand reads until Close.
//
// Integrity: the container index (or, for v1 files and corrupt indexes, a
// sequential frame walk) is validated at open; deferred payloads are
// CRC-checked on first touch, so corruption surfaces as a clean query
// error, never a panic. Semantic validation of a deferred section also
// runs at first touch — OpenProviderSet remains the strict
// validate-everything-now path.
func OpenProviderSetLazy(path string) (*ProviderSet, error) {
	f, err := snapshot.Open(path)
	if err != nil {
		return nil, err
	}
	set, err := lazySetFromFile(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return set, nil
}

// lazySetFromFile builds the lazily hydrated set over an open container.
func lazySetFromFile(f *snapshot.File) (*ProviderSet, error) {
	set := &ProviderSet{Epoch: f.Epoch(), file: f}
	if set.Epoch < 0 {
		return nil, fmt.Errorf("%w: negative epoch %d", ErrBadSnapshot, set.Epoch)
	}
	seen := map[uint32]bool{}
	for _, e := range f.Sections() {
		if seen[e.Kind] {
			return nil, fmt.Errorf("%w: duplicate section kind %d", ErrBadSnapshot, e.Kind)
		}
		seen[e.Kind] = true
		if _, ok := defaultRegistry.lookupKind(e.Kind); !ok && e.Kind > snapKindOrdering && e.Kind != snapKindCert {
			// Same refusal as the eager loader: unknown kinds are state this
			// loader does not understand, and a lazy boot must not promise
			// sections it could never serve.
			return nil, fmt.Errorf("%w: unknown section kind %d", ErrBadSnapshot, e.Kind)
		}
	}

	// Core sections, eagerly — everything below needs them.
	payload, err := coreSection(f, snapKindConfig)
	if err != nil {
		return nil, err
	}
	if set.Cfg, err = decodeSnapConfig(payload); err != nil {
		return nil, err
	}
	if payload, err = coreSection(f, snapKindGraph); err != nil {
		return nil, err
	}
	if set.Graph, err = graph.ReadBytes(payload); err != nil {
		return nil, fmt.Errorf("%w: graph: %v", ErrBadSnapshot, err)
	}
	if payload, err = coreSection(f, snapKindVerifier); err != nil {
		return nil, err
	}
	if set.Verifier, err = sig.ParseVerifierPEM(payload); err != nil {
		return nil, fmt.Errorf("%w: verifier: %v", ErrBadSnapshot, err)
	}
	if payload, err = coreSection(f, snapKindOrdering); err != nil {
		return nil, err
	}
	env := &SnapshotEnv{Graph: set.Graph, Cfg: set.Cfg, lazyTuples: true}
	if env.Ord, err = decodeSnapOrdering(payload, set.Graph.NumNodes()); err != nil {
		return nil, err
	}
	set.ord = env.Ord
	env.View = set.Graph.Freeze()
	set.view = env.View

	for _, impl := range defaultRegistry.Impls() {
		if !f.Has(impl.SnapshotKind()) {
			continue
		}
		set.SetProvider(&lazyProvider{impl: impl, file: f, env: env})
	}
	if len(set.provs) == 0 {
		return nil, fmt.Errorf("%w: no method sections", ErrBadSnapshot)
	}
	return set, nil
}

// coreSection reads one required core section, mapping absence to the
// loader's missing-sections error.
func coreSection(f *snapshot.File, kind uint32) ([]byte, error) {
	payload, err := f.Section(kind)
	if err == nil {
		return payload, nil
	}
	if f.Has(kind) {
		return nil, err // present but unreadable: surface the CRC error
	}
	return nil, fmt.Errorf("%w: missing core sections", ErrBadSnapshot)
}

// Close releases the snapshot file a lazy open holds. Hydration of a
// still-cold method fails after Close; decoded providers keep serving.
// No-op for eagerly loaded sets.
func (s *ProviderSet) Close() error {
	if s.file == nil {
		return nil
	}
	return s.file.Close()
}
