// Package core implements the paper's contribution: the three-party
// authenticated shortest path framework (data owner / service provider /
// client, Fig. 2 and Algorithm 1) and the four verification methods —
//
//	DIJ  (§IV-A)  Dijkstra subgraph verification, no pre-computation
//	FULL (§IV-B)  fully materialized distances in a Merkle B-tree
//	LDM  (§V-A)   landmark-based verification with quantized, compressed
//	              authenticated hints
//	HYP  (§V-B)   hyper-graph verification over a 2-level HiTi structure
//
// The data owner builds authenticated data structures and hints and signs
// their roots; the service provider answers queries with a result path plus
// a shortest path proof ΓS and an integrity proof ΓT; the client verifies
// both against the owner's public key. Every proof type here round-trips
// through an exact binary wire format, so reported proof sizes are true
// byte counts.
//
// # Concurrency
//
// Every provider type (DIJProvider, FULLProvider, LDMProvider,
// HYPProvider) is immutable once Outsource returns it: the QueryProof hot
// paths read the graph, orderings, Merkle levels and hint tables but never
// write shared state, allocating all per-query scratch locally. QueryProof
// is therefore safe to call from any number of goroutines without
// locking, and for a fixed provider instance a given (vs, vt) always
// produces a byte-identical wire encoding (proof node sets are
// canonicalized — see networkADS.Canonical). concurrency_test.go pins both
// guarantees under -race, and internal/serve builds its proof cache on
// them.
package core

import (
	"fmt"

	"github.com/authhints/spv/internal/digest"
	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/hints/landmark"
	"github.com/authhints/spv/internal/order"
	"github.com/authhints/spv/internal/sig"
)

// Method names a verification method.
type Method string

const (
	// DIJ is Dijkstra subgraph verification (no pre-computed hints).
	DIJ Method = "DIJ"
	// FULL uses fully materialized all-pairs distances.
	FULL Method = "FULL"
	// LDM uses landmark-based authenticated hints.
	LDM Method = "LDM"
	// HYP uses the 2-level hyper-graph.
	HYP Method = "HYP"
)

// Methods lists the registered methods in the registry's canonical order
// (the paper's presentation order for the four built-ins).
func Methods() []Method { return RegisteredMethods() }

// Config carries the owner-chosen parameters of the authenticated
// structures. The zero value is not valid; use DefaultConfig.
type Config struct {
	// Hash selects the one-way hash for all ADSs (paper: SHA-1).
	Hash digest.Alg
	// Fanout is the Merkle tree fanout (paper sweeps 2..32, best at 2).
	Fanout int
	// Ordering lays out tuples as Merkle leaves (paper default: Hilbert).
	Ordering order.Method
	// OrderSeed feeds the rand ordering.
	OrderSeed int64
	// RSABits sizes the owner's signature key.
	RSABits int

	// Landmarks (c), QuantBits (b), Xi (ξ) and Strategy parameterize LDM.
	Landmarks int
	QuantBits int
	Xi        float64
	Strategy  landmark.Strategy
	HintSeed  int64
	// Cells (p) parameterizes HYP's grid.
	Cells int

	// PinnedLandmarks bypasses LDM's landmark selection with an explicit
	// placement. The incremental update pipeline keeps an outsourced
	// provider's placement fixed (LDMProvider.Landmarks exposes it), so a
	// from-scratch rebuild with the same pinned set reproduces an updated
	// owner's roots, signatures and proofs byte for byte.
	PinnedLandmarks []graph.NodeID
	// PinnedLambda pins LDM's quantization step the same way (zero
	// derives it from the observed Dmax); LDMProvider.Lambda exposes an
	// outsourced provider's value. Updates always keep λ pinned —
	// re-deriving it would ripple every payload whenever the longest
	// landmark distance moves.
	PinnedLambda float64
}

// DefaultConfig mirrors the paper's default setting (Table II): Hilbert
// ordering, fanout 2, b = 12 quantization bits, ξ = 50.0, p = 100 cells,
// SHA-1 digests, RSA-1024 signatures.
//
// Landmarks defaults to 20 rather than the paper's 200: experiments here
// run on 1/10-scale synthetic datasets (DESIGN.md §3), and the
// hints-per-node budget is kept constant so LDM's proof-size behaviour
// matches the paper's proportions. The Fig 12 sweep still exercises the
// paper's absolute values 50..800.
func DefaultConfig() Config {
	return Config{
		Hash:      digest.SHA1,
		Fanout:    2,
		Ordering:  order.Hilbert,
		OrderSeed: 1,
		RSABits:   sig.DefaultBits,
		Landmarks: 20,
		QuantBits: 12,
		Xi:        50.0,
		Strategy:  landmark.Farthest,
		HintSeed:  1,
		Cells:     100,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if !c.Hash.Valid() {
		return fmt.Errorf("core: invalid hash algorithm %d", c.Hash)
	}
	if c.Fanout < 2 {
		return fmt.Errorf("core: fanout %d must be at least 2", c.Fanout)
	}
	if !c.Ordering.Valid() {
		return fmt.Errorf("core: invalid ordering %q", c.Ordering)
	}
	if c.RSABits < 1024 {
		return fmt.Errorf("core: RSA modulus %d too small", c.RSABits)
	}
	lo := landmark.Options{C: c.Landmarks, Bits: c.QuantBits, Xi: c.Xi, Strategy: c.Strategy}
	if err := lo.Validate(); err != nil {
		return err
	}
	if c.Cells < 1 {
		return fmt.Errorf("core: cell count %d must be positive", c.Cells)
	}
	return nil
}

// distTolerance is the relative tolerance used when comparing path sums
// against verified distances: distinct float additions of the same weights
// can differ in the final ulps. The slack a malicious provider gains is a
// factor of 1e-9, far below any useful path manipulation.
const distTolerance = 1e-9

// distEqual compares two distances under the verification tolerance.
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
