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
//
// The owner's network is one frozen CSR per update epoch: NewOwner freezes
// the caller's builder once (later edits to that builder are never seen),
// every provider outsourced or patched at an epoch shares that epoch's CSR,
// and ApplyUpdates derives the next one copy-on-write. No CSR is ever
// modified after it is published, so the pointer is the epoch's identity.
type Owner struct {
	cfg    Config
	signer *sig.Signer

	mu    sync.Mutex
	net   *graph.CSR // the current epoch's network
	epoch int64      // bumped once per applied update batch
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
// cmd/spvquery). The owner freezes g; it never reads or writes g again.
func NewOwnerWithSigner(g *graph.Graph, cfg Config, signer *sig.Signer) (*Owner, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid graph: %w", err)
	}
	return newOwner(g.Freeze(), cfg, signer, 0)
}

// newOwner is the one constructor behind NewOwnerWithSigner and
// ProviderSet.RestoreOwner: an owner of net at the given epoch.
func newOwner(net *graph.CSR, cfg Config, signer *sig.Signer, epoch int64) (*Owner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if signer == nil {
		return nil, fmt.Errorf("core: nil signer")
	}
	if net.NumNodes() < 2 {
		return nil, fmt.Errorf("core: graph too small (%d nodes)", net.NumNodes())
	}
	if epoch < 0 {
		return nil, fmt.Errorf("core: negative epoch %d", epoch)
	}
	return &Owner{net: net, cfg: cfg, signer: signer, epoch: epoch}, nil
}

// Graph returns the owner's network at its current epoch. It is immutable:
// an update batch publishes a new one instead of changing it.
func (o *Owner) Graph() *graph.CSR {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.net
}

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
