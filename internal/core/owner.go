package core

import (
	"crypto/rand"
	"fmt"
	"sync"

	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/sig"
)

// Owner is the data owner of the three-party model: it holds the road
// network and the private key, builds authenticated data structures and
// hints, signs their roots, and hands everything to a service provider.
type Owner struct {
	g      *graph.Graph
	cfg    Config
	signer *sig.Signer

	// frozen is the lazily built CSR snapshot shared by every provider
	// this owner outsources: the CSR is immutable and safe for unbounded
	// concurrent use, so one copy serves all four methods instead of four
	// identical deep snapshots. ApplyUpdates replaces it after mutating
	// the graph; providers keep the snapshot they were built against.
	mu     sync.Mutex
	frozen *graph.CSR
	epoch  int64 // bumped once per applied update batch

	// bridges caches the Tarjan bridge set. Bridge-ness depends only on
	// topology, which edge re-weighting never touches, so one computation
	// serves every update. (Structural mutations of the graph after the
	// first update are outside the owner contract.)
	bridgeOnce sync.Once
	bridges    map[uint64]graph.BridgeSide
}

// bridgeSet returns the cached topology bridge set, computing it once.
func (o *Owner) bridgeSet() map[uint64]graph.BridgeSide {
	o.bridgeOnce.Do(func() { o.bridges = o.g.Bridges() })
	return o.bridges
}

// frozenView returns the shared CSR snapshot, building it on first use.
func (o *Owner) frozenView() *graph.CSR {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.frozen == nil {
		o.frozen = o.g.Freeze()
	}
	return o.frozen
}

// Epoch returns the number of update batches applied to this owner.
func (o *Owner) Epoch() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.epoch
}

// NewOwner validates the configuration, checks the graph, and generates the
// owner's key pair.
func NewOwner(g *graph.Graph, cfg Config) (*Owner, error) {
	signer, err := sig.GenerateKey(rand.Reader, cfg.RSABits)
	if err != nil {
		return nil, err
	}
	return NewOwnerWithSigner(g, cfg, signer)
}

// NewOwnerWithSigner builds an owner around an existing key pair — for
// deployments that persist the owner key across processes (see
// cmd/spvquery).
func NewOwnerWithSigner(g *graph.Graph, cfg Config, signer *sig.Signer) (*Owner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if signer == nil {
		return nil, fmt.Errorf("core: nil signer")
	}
	if g.NumNodes() < 2 {
		return nil, fmt.Errorf("core: graph too small (%d nodes)", g.NumNodes())
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid graph: %w", err)
	}
	return &Owner{g: g, cfg: cfg, signer: signer}, nil
}

// Graph returns the owner's network.
func (o *Owner) Graph() *graph.Graph { return o.g }

// Config returns the owner's parameters.
func (o *Owner) Config() Config { return o.cfg }

// Verifier returns the owner's public key half, distributed to clients
// out of band.
func (o *Owner) Verifier() *sig.Verifier { return o.signer.Verifier() }

// signRoot signs ctx ◦ root. The context bytes bind the method name and its
// public parameters, so a root signed for one method or parameterization can
// never authenticate another.
func (o *Owner) signRoot(ctx, root []byte) ([]byte, error) {
	return o.signer.Sign(ctx, root)
}
