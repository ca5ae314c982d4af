package core

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/sig"
	"github.com/authhints/spv/internal/snapshot"
)

// This file is the snapshot loader: one section loop (lazySetFromFile)
// over the container's random-access File handle, behind three entry
// points. OpenProviderSetLazy decodes only the core sections (config,
// graph, verifier, ordering — small, needed before any proof) and defers
// every method section to first use: a replica booted this way answers its
// first query after O(core sections) work regardless of how many methods —
// and how many gigabytes of hint rows — the file carries, and a method
// nobody touches costs no resident bytes beyond a table entry.
// OpenProviderSet and ReadProviderSet are the same open followed by
// hydrateAll — every deferred step taken now — so "eager" names when the
// loader hydrates, not a second loader (Warm: a third timing, the caller's).
//
// Laziness is layered: each method's section decodes behind a sync.Once
// on first touch (Merkle levels, signatures, hint rows), and the decoded
// provider's tuple table fills chunk by chunk as queries touch leaves (see
// networkADS.msg). A section streams into its final home — Merkle levels
// into the tree's slabs, hint rows into one float slab — so it is never
// held twice, and the decoder runs ahead of the section's CRC: nothing is
// published until the checksum has held (snapCursor.finish). Clients trust
// only the owner's signed roots, so when a section hydrates changes no proof
// byte. A corrupt deferred section is a clean, sticky snapshot.ErrCorrupt
// from its first touch, never a panic.

// lazyProvider is the method-erased shell of a not-yet-decoded method
// section. It satisfies Provider; the registry's generic paths
// (providerAs) hydrate and unwrap it on demand, so patching or
// re-snapshotting a lazily opened set transparently materializes exactly
// the methods those operations touch.
type lazyProvider struct {
	impl MethodImpl
	set  *ProviderSet // the file, and who to tell
	env  *SnapshotEnv
	size int64 // section payload bytes
	once sync.Once
	p    Provider
	err  error
}

// hydrate decodes the provider on first call; concurrent callers block on
// the same sync.Once and observe the same result.
func (lp *lazyProvider) hydrate(trigger string) (Provider, error) {
	var start time.Time
	lp.once.Do(func() {
		start = time.Now()
		r, err := lp.set.file.Open(lp.impl.SnapshotKind())
		if err == nil {
			lp.p, err = lp.impl.DecodeSnapshot(r, lp.env)
			err = cmp.Or(r.Verify(), err) // for a decoder that skipped its finish
		}
		if err != nil {
			lp.p, lp.err = nil, fmt.Errorf("core: hydrating %s section: %w", lp.impl.Method(), err)
		}
	})
	// Told outside the Once, which queries may be waiting on.
	if fn := lp.set.OnHydrate; fn != nil && !start.IsZero() {
		fn(lp.impl.Method(), lp.size, time.Since(start), trigger, lp.err)
	}
	return lp.p, lp.err
}

// Method names the verification method without hydrating.
func (lp *lazyProvider) Method() Method { return lp.impl.Method() }

// QueryProof hydrates on first use and serves from the decoded provider.
func (lp *lazyProvider) QueryProof(vs, vt graph.NodeID) (Proof, error) {
	p, err := lp.hydrate("query")
	if err != nil {
		return nil, err
	}
	return p.QueryProof(vs, vt)
}

// viewRef answers from the shared core state — the staleness guard must
// not force hydration just to identity-compare pointers.
func (lp *lazyProvider) viewRef() *graph.CSR { return lp.env.Graph }

// adsRef hydrates: the callers (shared-ordering audit, snapshot rewrite)
// need the real tree.
func (lp *lazyProvider) adsRef() *networkADS {
	p, err := lp.hydrate("query")
	if err != nil {
		return nil
	}
	return p.adsRef()
}

// unwrapProvider resolves a lazy shell to its decoded provider (hydrating
// if needed); concrete providers pass through.
func unwrapProvider(p Provider) (Provider, error) {
	if lp, ok := p.(*lazyProvider); ok {
		return lp.hydrate("query")
	}
	return p, nil
}

// OpenProviderSetLazy opens a snapshot file for lazy serving: core
// sections load now, each method section decodes on its first query, and
// tuple tables fill as queries touch them. The returned set serves proofs
// byte-identical to OpenProviderSet's and obeys the same concurrency
// contract; it holds the file open for on-demand reads until Close.
//
// Integrity: the container index (or, when it is corrupt, a sequential
// frame walk) is validated at open; deferred payloads are CRC-checked and
// semantically validated on first touch, so corruption surfaces as a clean
// query error, never a panic. OpenProviderSet is the
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

// OpenProviderSet loads a snapshot file completely — the strict cold-start
// path: the lazy open, then every method section, the certificate and
// every tuple table hydrated before it returns, so anything corrupt or
// malformed anywhere in the file fails the load, not a later query. No
// hash is recomputed and no search is run: Merkle levels, hint rows and
// signatures come from the file; tuple encodings, quantization,
// compression and partitions are re-derived in parallel from the loaded
// network. All providers share the set's one CSR.
//
// Round-trip contract (pinned by TestSnapshotRoundTrip): every loaded
// provider emits proof wire encodings byte-identical to the provider it
// was saved from, for every query and method.
func OpenProviderSet(path string) (*ProviderSet, error) {
	f, err := snapshot.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return loadAll(f)
}

// ReadProviderSet is OpenProviderSet over any positioned reader of the
// given size (a snapshot held in memory, a section of a larger file).
func ReadProviderSet(ra io.ReaderAt, size int64) (*ProviderSet, error) {
	f, err := snapshot.NewFile(ra, size)
	if err != nil {
		return nil, err
	}
	return loadAll(f)
}

// loadAll is the eager load: the lazy open plus hydrateAll.
func loadAll(f *snapshot.File) (*ProviderSet, error) {
	set, err := lazySetFromFile(f)
	if err != nil {
		return nil, err
	}
	if err := set.hydrateAll(); err != nil {
		return nil, err
	}
	return set, nil
}

// hydrateAll takes every step a lazy open deferred — method sections,
// certificate, tuple tables — and lets go of the file, leaving the set
// holding concrete providers only. An eager load is also strict about the
// container: an index so damaged that the open fell back to the frame walk
// fails it, as it would fail a sequential read.
func (s *ProviderSet) hydrateAll() error {
	if !s.file.Indexed() {
		return fmt.Errorf("%w: section index unusable", snapshot.ErrCorrupt)
	}
	for _, m := range s.Methods() {
		p, err := unwrapProvider(s.provs[m])
		if err != nil {
			return err
		}
		p.adsRef().materialize()
		s.provs[m] = p
	}
	if _, err := s.Certificate(); err != nil {
		return fmt.Errorf("core: snapshot certificate: %w", err)
	}
	s.file = nil
	return nil
}

// lazySetFromFile builds the lazily hydrated set over an open container —
// the one section loop every load runs.
func lazySetFromFile(f *snapshot.File) (*ProviderSet, error) {
	set := &ProviderSet{Epoch: f.Epoch(), file: f}
	if set.Epoch < 0 {
		return nil, fmt.Errorf("%w: negative epoch %d", ErrBadSnapshot, set.Epoch)
	}
	size := map[uint32]int64{}
	for _, e := range f.Sections() {
		if _, dup := size[e.Kind]; dup {
			return nil, fmt.Errorf("%w: duplicate section kind %d", ErrBadSnapshot, e.Kind)
		}
		size[e.Kind] = int64(e.Length)
		if _, ok := defaultRegistry.lookupKind(e.Kind); !ok && e.Kind > snapKindOrdering && e.Kind != snapKindCert {
			// Unknown kinds are state this loader does not understand —
			// refusing beats silently serving less than the snapshot promises.
			return nil, fmt.Errorf("%w: unknown section kind %d", ErrBadSnapshot, e.Kind)
		}
	}

	// Core sections, eagerly — everything below needs them.
	for kind := uint32(snapKindConfig); kind <= snapKindOrdering; kind++ {
		if _, ok := size[kind]; !ok {
			return nil, fmt.Errorf("%w: missing core sections", ErrBadSnapshot)
		}
	}
	r, err := f.Open(snapKindConfig)
	if err != nil {
		return nil, err
	}
	if set.Cfg, err = decodeSnapConfig(r); err != nil {
		return nil, err
	}
	payload, err := f.Section(snapKindGraph)
	if err != nil {
		return nil, err
	}
	// The builder parses and validates the section; only its frozen form
	// stays resident.
	g, err := graph.ReadBytes(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: graph: %v", ErrBadSnapshot, err)
	}
	set.Graph = g.Freeze()
	if payload, err = f.Section(snapKindVerifier); err != nil {
		return nil, err
	}
	if set.Verifier, err = sig.ParseVerifierPEM(payload); err != nil {
		return nil, fmt.Errorf("%w: verifier: %v", ErrBadSnapshot, err)
	}
	if r, err = f.Open(snapKindOrdering); err != nil {
		return nil, err
	}
	env := &SnapshotEnv{Graph: set.Graph, Cfg: set.Cfg}
	if env.Ord, err = decodeSnapOrdering(r, set.Graph.NumNodes()); err != nil {
		return nil, err
	}
	set.ord = env.Ord

	for _, impl := range defaultRegistry.Impls() {
		if n, ok := size[impl.SnapshotKind()]; ok {
			set.SetProvider(&lazyProvider{impl: impl, set: set, env: env, size: n})
		}
	}
	if len(set.provs) == 0 {
		return nil, fmt.Errorf("%w: no method sections", ErrBadSnapshot)
	}
	return set, nil
}

// Warm hydrates every method section still on disk, largest first, on the
// calling goroutine and through the Once a first touch takes: a query that
// gets there first hydrates as ever, a later one waits instead of reading
// again; a failure tells OnHydrate and stays the method's error. The set
// ends at the eager footprint: not for one that serves few of its methods.
func (s *ProviderSet) Warm() {
	var cold []*lazyProvider
	for _, p := range s.provs {
		if lp, ok := p.(*lazyProvider); ok {
			cold = append(cold, lp)
		}
	}
	slices.SortFunc(cold, func(a, b *lazyProvider) int { return cmp.Compare(b.size, a.size) })
	for _, lp := range cold {
		lp.hydrate("warm")
	}
}

// Close releases the snapshot file a lazy open holds. Hydration of a
// still-cold method fails after Close; decoded providers keep serving.
// No-op for eagerly loaded sets, which hold no file.
func (s *ProviderSet) Close() error {
	if s.file == nil {
		return nil
	}
	return s.file.Close()
}
