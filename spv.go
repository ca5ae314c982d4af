// Package spv is authenticated shortest path search: a Go implementation of
// "Efficient Verification of Shortest Path Search via Authenticated Hints"
// (Yiu, Lin, Mouratidis — ICDE 2010).
//
// # The problem
//
// A data owner (e.g. a transport authority) outsources its road network to
// third-party query services. Those services answer shortest path queries,
// but nothing stops a lazy, profit-driven or compromised service from
// returning sub-optimal or fabricated paths. This package makes every
// answer carry a cryptographic proof that the client can check against the
// owner's public key: the reported path exists, is untampered, and no
// shorter path exists.
//
// # The three parties
//
//	Owner     — holds the network and a private key; builds authenticated
//	            data structures (ADS) and hints, signs their roots.
//	Provider  — answers QueryProof(vs, vt) with a path and a proof assembled
//	            from the ADS.
//	Client    — calls VerifyProof with the owner's public key; a nil
//	            error means the path is authentic AND optimal.
//
// # The four methods
//
//	DIJ   no pre-computation; proofs contain every node within the query
//	      distance (large proofs, zero hint cost).
//	FULL  all-pairs distances in a Merkle B-tree (minimal proofs,
//	      quadratic pre-computation — small networks only).
//	LDM   landmark distance vectors, quantized to b bits and compressed
//	      with reference nodes, embedded in the authenticated tuples.
//	HYP   a 2-level HiTi hyper-graph: grid cells plus materialized
//	      border-pair distances (the paper's preferred trade-off).
//
// # Quickstart
//
//	g, _ := spv.GenerateNetwork(spv.DE, spv.NetworkConfig{Scale: 0.05})
//	owner, _ := spv.NewOwner(g, spv.DefaultConfig())
//	provider, _ := owner.Outsource(spv.LDM)
//	proof, _ := provider.QueryProof(vs, vt)
//	err := spv.VerifyProof(owner.Verifier(), spv.LDM, vs, vt, proof) // nil ⇒ verified
//
// # Snapshots and replication
//
// A deployment persists to one versioned, CRC-checked file and loads
// back without recomputing a hash — outsource once, replicate many:
//
//	dep, _ := spv.NewDeployment(owner, spv.ServeOptions{}, spv.LDM)
//	spv.SaveSnapshot("world.spv", dep)                    // owner side
//	engine, set, _ := spv.LoadEngine("world.spv", spv.ServeOptions{})
//	srv, _ := spv.NewServerFromEngine(engine, set.Verifier) // replica side
//
// See ExampleSaveSnapshot / ExampleLoadEngine for executable versions,
// examples/ for runnable programs and DESIGN.md for the system map
// (§9 covers the snapshot format).
package spv

import (
	cryptorand "crypto/rand"
	"fmt"
	"os"
	"strings"

	"github.com/authhints/spv/internal/cert"
	"github.com/authhints/spv/internal/core"
	"github.com/authhints/spv/internal/digest"
	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/hints/landmark"
	"github.com/authhints/spv/internal/netgen"
	"github.com/authhints/spv/internal/order"
	"github.com/authhints/spv/internal/serve"
	"github.com/authhints/spv/internal/sig"
	"github.com/authhints/spv/internal/sp"
	"github.com/authhints/spv/internal/workload"
)

// Graph builds a weighted spatial road network with undirected edges;
// NewOwner freezes it into the network the owner signs and serves.
type Graph = graph.Graph

// NodeID identifies a network node (junction).
type NodeID = graph.NodeID

// Path is a sequence of nodes claimed to form a walk in the network.
type Path = graph.Path

// Edge is one directed half of an undirected road segment.
type Edge = graph.Edge

// NewGraph returns an empty graph with capacity for n nodes.
func NewGraph(n int) *Graph { return graph.New(n) }

// Owner is the data owner: network + private key + ADS construction.
// NewOwner freezes the graph it is given — later edits to that Graph are
// never seen — and ApplyUpdates publishes each update batch as a new
// network (Owner.Graph) instead of rewriting the old one, which the
// providers outsourced before the batch keep searching. Outsource and
// WriteSnapshot may run concurrently with provider queries, but not with
// ApplyUpdates (Deployment serializes this for you).
type Owner = core.Owner

// Config carries the owner's ADS and hint parameters.
type Config = core.Config

// Method names one of the four verification methods.
type Method = core.Method

// The four verification methods of the paper.
const (
	DIJ  = core.DIJ
	FULL = core.FULL
	LDM  = core.LDM
	HYP  = core.HYP
)

// Methods lists the registered methods in the method registry's
// canonical order (the paper's presentation order for the built-ins).
func Methods() []Method { return core.Methods() }

// Provider is the method-erased face of a service provider: immutable,
// safe for unbounded concurrent QueryProof use, byte-deterministic per
// (vs, vt). Owner.Outsource returns one; every serving surface (engines,
// deployments, snapshots) dispatches through it.
type Provider = core.Provider

// Proof is the method-erased face of a query proof: exact wire encoding
// (AppendBinary), communication breakdown (Stats) and the reported
// path/distance (Result). Decode with DecodeProof, check with
// VerifyProof.
type Proof = core.Proof

// DecodeProof parses a proof wire encoding of method m via the method
// registry, returning the proof and the bytes consumed. The proof aliases
// buf — tuple bytes, Merkle digests and signatures are slices of it, not
// copies — so buf must stay unmodified for as long as the proof is in use
// (DecodeProofBatch likewise). Callers that need a concrete proof struct
// type-assert the result (*DIJProof, *FULLProof, *LDMProof, *HYPProof).
func DecodeProof(m Method, buf []byte) (Proof, int, error) {
	return core.DecodeProof(m, buf)
}

// VerifyProof client-verifies a proof of method m against the owner's
// public key via the method registry; a nil error means the reported
// path is authentic and optimal.
func VerifyProof(v *Verifier, m Method, vs, vt NodeID, p Proof) error {
	return core.VerifyProof(v, m, vs, vt, p)
}

// BatchItem pairs one query's endpoints with its proof for batch
// verification. Items may repeat (vs, vt, proof) — VerifyBatch verifies
// each distinct item once and shares the verdict.
type BatchItem = core.BatchItem

// VerifyBatch client-verifies a batch of proofs of one method, returning
// one verdict per item (nil ⇒ authentic and optimal) — exactly VerifyProof's
// verdict for that item. Each distinct (vs, vt, proof) is verified once and
// repeats share its verdict; proofs of one epoch share the root signature
// check through the Verifier's memo. See DESIGN.md §12.
func VerifyBatch(v *Verifier, m Method, items []BatchItem) []error {
	return core.VerifyBatch(v, m, items)
}

// ProofBatch is a decoded batch blob (the /batch "encoding":"shared"
// transport): proofs of one method framed together, each body a standalone
// proof wire, a repeated answer a 5-byte backref that shares its target's
// Proof value. Items() feeds VerifyBatch.
type ProofBatch = core.ProofBatch

// AppendProofBatch frames proofs of one method as one blob: per item its
// endpoints (which must be the proof's path endpoints) and either the
// proof's standalone wire or a backref to an earlier identical one.
func AppendProofBatch(buf []byte, m Method, items []BatchItem) ([]byte, error) {
	return core.AppendProofBatch(buf, m, items)
}

// DecodeProofBatch parses a batch blob, returning the batch and the bytes
// consumed. It accepts only what AppendProofBatch produces: decode →
// re-encode is byte-identity.
func DecodeProofBatch(buf []byte) (*ProofBatch, int, error) {
	return core.DecodeProofBatch(buf)
}

// DefaultConfig mirrors the paper's default setting (Table II), with the
// landmark count scaled for the 1/10-scale synthetic datasets.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewOwner validates the graph and configuration and generates the owner's
// key pair.
func NewOwner(g *Graph, cfg Config) (*Owner, error) { return core.NewOwner(g, cfg) }

// Signer is the owner's private key half.
type Signer = sig.Signer

// Verifier is the owner's public key half, held by clients.
type Verifier = sig.Verifier

// GenerateOwnerKey creates a fresh owner key pair of the given modulus size
// for deployments that persist keys across processes (PEM via
// Signer.MarshalPEM / ParseSignerPEM).
func GenerateOwnerKey(bits int) (*Signer, error) {
	return sig.GenerateKey(cryptorand.Reader, bits)
}

// NewOwnerWithSigner builds an owner around a persisted key pair.
func NewOwnerWithSigner(g *Graph, cfg Config, s *Signer) (*Owner, error) {
	return core.NewOwnerWithSigner(g, cfg, s)
}

// ParseSignerPEM decodes an owner private key written by Signer.MarshalPEM.
func ParseSignerPEM(data []byte) (*Signer, error) { return sig.ParseSignerPEM(data) }

// ParseVerifierPEM decodes an owner public key written by
// Verifier.MarshalPEM.
func ParseVerifierPEM(data []byte) (*Verifier, error) { return sig.ParseVerifierPEM(data) }

// Provider/proof pairs, one per method — the concrete types behind
// Provider and Proof, for callers that type-assert. Every provider is
// immutable once outsourced (or loaded from a snapshot): QueryProof is safe
// for unbounded concurrent use with no locking, and a given (vs, vt) always
// yields one byte-identical proof encoding. Proofs returned by QueryProof
// are owned by the caller.
type (
	// DIJProvider answers queries under Dijkstra subgraph verification.
	DIJProvider = core.DIJProvider
	// DIJProof is a DIJ answer: path + subgraph ΓS + integrity ΓT.
	DIJProof = core.DIJProof
	// FULLProvider answers queries from materialized all-pairs distances.
	FULLProvider = core.FULLProvider
	// FULLProof is a FULL answer: path + distance VO + path integrity.
	FULLProof = core.FULLProof
	// LDMProvider answers queries under landmark-based verification.
	LDMProvider = core.LDMProvider
	// LDMProof is an LDM answer: path + Lemma 2 subgraph + integrity.
	LDMProof = core.LDMProof
	// HYPProvider answers queries under hyper-graph verification.
	HYPProvider = core.HYPProvider
	// HYPProof is a HYP answer: path + coarse/fine proofs + hyper-edges.
	HYPProof = core.HYPProof
)

// ProofStats is the communication breakdown of a proof (ΓS vs ΓT bytes and
// item counts), matching the paper's reporting.
type ProofStats = core.ProofStats

// Verification failure classes (all wrap ErrRejected).
var (
	ErrRejected        = core.ErrRejected
	ErrBadSignature    = core.ErrBadSignature
	ErrIncompleteProof = core.ErrIncompleteProof
	ErrPathMismatch    = core.ErrPathMismatch
	ErrNotShortest     = core.ErrNotShortest
	ErrMalformedProof  = core.ErrMalformedProof
)

// Hash algorithms for the authenticated structures.
const (
	SHA1   = digest.SHA1
	SHA256 = digest.SHA256
)

// OrderMethod names a graph-node ordering for the Merkle leaf layout.
type OrderMethod = order.Method

// Graph-node orderings for the Merkle leaf layout (paper §III-B, Fig 10).
const (
	OrderBFS     = order.BFS
	OrderDFS     = order.DFS
	OrderHilbert = order.Hilbert
	OrderKD      = order.KD
	OrderRandom  = order.Random
)

// Landmark selection strategies for LDM.
const (
	LandmarksFarthest = landmark.Farthest
	LandmarksRandom   = landmark.RandomSel
)

// Dataset names one of the paper's four road networks (synthesized to the
// documented DCW shapes — see DESIGN.md §3).
type Dataset = netgen.Dataset

// The paper's four datasets.
const (
	DE  = netgen.DE
	ARG = netgen.ARG
	IND = netgen.IND
	NA  = netgen.NA
)

// Datasets lists the four datasets in size order.
func Datasets() []Dataset { return netgen.Datasets() }

// NetworkConfig controls dataset synthesis.
type NetworkConfig = netgen.Config

// GenerateNetwork synthesizes a named dataset (connected, normalized to
// [0..10,000]²).
func GenerateNetwork(d Dataset, cfg NetworkConfig) (*Graph, error) {
	return netgen.Generate(d, cfg)
}

// SynthesizeNetwork builds a road-like network with explicit node and edge
// counts.
func SynthesizeNetwork(nodes, edges int, seed int64) (*Graph, error) {
	return netgen.Synthesize(nodes, edges, seed)
}

// BuildNetwork resolves the network flags shared by the CLI tools
// (spvserve, spvsnap): a positive nodes count synthesizes (edges
// defaulting to nodes + nodes/20), otherwise dataset names one of the
// paper's four networks, generated at scale. One definition keeps every
// tool's "-dataset DE -scale 0.05" the same world.
func BuildNetwork(dataset string, scale float64, nodes, edges int, seed int64) (*Graph, error) {
	if nodes > 0 {
		if edges <= 0 {
			edges = nodes + nodes/20
		}
		return SynthesizeNetwork(nodes, edges, seed)
	}
	for _, d := range Datasets() {
		if strings.EqualFold(string(d), dataset) {
			return GenerateNetwork(d, NetworkConfig{Scale: scale, Seed: seed})
		}
	}
	return nil, fmt.Errorf("spv: unknown dataset %q (want one of %v)", dataset, Datasets())
}

// Query is one shortest path query with its ground-truth distance.
type Query = workload.Query

// GenerateWorkload builds count queries whose shortest path distances
// approximate queryRange (the paper's workload construction, §VI-A).
func GenerateWorkload(g *Graph, count int, queryRange float64, seed int64) ([]Query, error) {
	return workload.Generate(g, count, queryRange, seed)
}

// ShortestPath computes an exact shortest path with Dijkstra's algorithm —
// the trusted-oracle view of the network, useful for tests and baselines.
func ShortestPath(g *Graph, vs, vt NodeID) (float64, Path) {
	return sp.DijkstraTo(g, vs, vt)
}

// Provider serving layer: a thread-safe, batched query engine with an LRU
// proof cache, plus the HTTP front-end used by cmd/spvserve. See internal/serve and DESIGN.md §7.

// ServeQuery is one query against a serving engine.
type ServeQuery = serve.Query

// ServeAnswer is the engine's reply: distance, hop count, and the proof's
// exact wire encoding (decodable with DecodeProof, checked by VerifyProof).
// The Proof bytes belong to the caller — a copy out of the engine's proof
// cache, which keeps its wires outside the Go heap — so modifying them
// never reaches the cache or another answer.
type ServeAnswer = serve.Answer

// ServeOptions configures the engine's proof cache and default latency
// budget.
type ServeOptions = serve.Options

// ServeStats is a snapshot of an engine's hit/miss/error counters.
type ServeStats = serve.Snapshot

// QueryEngine is the concurrent, batched provider front-end.
type QueryEngine = serve.Engine

// Server exposes a QueryEngine over HTTP (/query, /batch, /verifier,
// /stats, and — when wired — /update, /snapshot). Immutable after
// construction and Enable* wiring; safe for any number of concurrent
// requests.
type Server = serve.Server

// ErrUnknownMethod reports a query for a method an engine does not serve.
var ErrUnknownMethod = serve.ErrUnknownMethod

// NewEngine outsources each requested method from the owner via the
// method registry and wraps the resulting providers in a concurrent
// query engine. With no methods given it serves every registered method
// (note FULL's quadratic pre-computation).
func NewEngine(o *Owner, opts ServeOptions, methods ...Method) (*QueryEngine, error) {
	if len(methods) == 0 {
		methods = Methods()
	}
	e := serve.NewEngine(opts)
	for _, m := range methods {
		p, err := o.Outsource(m)
		if err != nil {
			return nil, err
		}
		e.Register(p)
	}
	return e, nil
}

// NewRawEngine returns an engine with no providers attached; wire up
// already-outsourced providers with its Register method. Most callers
// want NewEngine, which outsources for you.
func NewRawEngine(opts ServeOptions) *QueryEngine { return serve.NewEngine(opts) }

// Incremental updates: the owner applies edge re-weightings without a full
// re-outsource — stored hint/distance rows are repaired, re-settling only
// the nodes whose distance moves, and only the dirty Merkle paths rehash.
// The resulting roots, signatures and proofs are byte-identical to a
// from-scratch re-outsource (with the landmark placement pinned). See
// DESIGN.md §8.

// EdgeUpdate re-weights one existing road segment.
type EdgeUpdate = core.EdgeUpdate

// UpdateBatch carries the owner-side dirty sets of one applied batch; its
// Patch method derives updated providers copy-on-write.
type UpdateBatch = core.UpdateBatch

// PatchStats reports what one provider patch rewrote.
type PatchStats = core.PatchStats

// Deployment couples an owner, its providers and a serving engine,
// keeping them in sync under edge-weight updates via atomic hot-swaps.
// Safe for concurrent use: ApplyUpdates and Save serialize against each
// other, while queries through the engine never block on either.
type Deployment = serve.Deployment

// UpdateSummary reports one end-to-end Deployment update batch.
type UpdateSummary = serve.UpdateSummary

// NewDeployment outsources each requested method and returns the
// update-capable owner+engine bundle. With no methods given it serves all
// four (note FULL's quadratic pre-computation).
func NewDeployment(o *Owner, opts ServeOptions, methods ...Method) (*Deployment, error) {
	return serve.NewDeployment(o, opts, methods...)
}

// NewServerFromEngine wraps an already-built engine and the owner's public
// verifier in the HTTP daemon surface; pair with NewDeployment when the
// engine must stay hot-swappable under updates.
func NewServerFromEngine(e *QueryEngine, v *Verifier) (*Server, error) {
	return serve.NewServer(e, v)
}

// NewUpdatableServer builds the HTTP daemon surface around a deployment:
// proofs, the owner's public key, engine stats (graph epoch, last-update
// latency) and the owner-side POST /update endpoint.
func NewUpdatableServer(d *Deployment) (*Server, error) {
	s, err := serve.NewServer(d.Engine(), d.Owner().Verifier())
	if err != nil {
		return nil, err
	}
	s.EnableUpdates(d)
	return s, nil
}

// NewServer builds the full provider daemon surface: outsourced providers,
// query engine, and the HTTP handler that serves proofs and the owner's
// public key. The server never holds the owner's private key.
func NewServer(o *Owner, opts ServeOptions, methods ...Method) (*Server, error) {
	e, err := NewEngine(o, opts, methods...)
	if err != nil {
		return nil, err
	}
	return serve.NewServer(e, o.Verifier())
}

// Persistent snapshots: a deployment serializes to one versioned,
// CRC-checked file (graph, config, every provider's Merkle trees with
// precomputed digests, hint rows, signatures, update epoch), and loads
// back without recomputing a single hash — the publish-once /
// replicate-many shape: one owner writes a snapshot, N replicas cold-start
// from it and serve identical proofs. See DESIGN.md §9 for the format.

// ProviderSet is a complete deserialized deployment: providers (nil for
// absent methods), the owner's public key, config, graph and update
// epoch. Loaded providers are immutable and safe for unbounded concurrent
// QueryProof use, exactly like freshly outsourced ones.
type ProviderSet = core.ProviderSet

// SnapshotResult reports one completed snapshot save (path, bytes, epoch,
// latency).
type SnapshotResult = serve.SnapshotResult

// SnapshotFunc performs one snapshot save; wire into a Server with
// EnableSnapshot to open POST /snapshot. Implementations must be safe for
// concurrent use.
type SnapshotFunc = serve.SnapshotFunc

// FileSnapshot returns a SnapshotFunc that saves d to path atomically
// (temp file + rename); each call takes its own consistent cut against
// concurrent updates.
func FileSnapshot(d *Deployment, path string) SnapshotFunc {
	return serve.FileSnapshot(d, path)
}

// SaveSnapshot writes a deployment's complete state to path atomically
// (via a temp file + rename, so concurrent readers never see a torn
// file), returning the bytes written. The save is a consistent cut: it
// serializes against ApplyUpdates, while queries keep flowing.
func SaveSnapshot(path string, d *Deployment) (int64, error) {
	res, err := serve.FileSnapshot(d, path)()
	return res.Bytes, err
}

// LoadProviderSet loads a snapshot file into ready-to-serve providers —
// no hash recomputed, no search re-run; tuple encodings and derived hint
// state are rebuilt in parallel from the stored truth. The caller owns
// the set and may wrap it in any number of engines.
func LoadProviderSet(path string) (*ProviderSet, error) { return core.OpenProviderSet(path) }

// LoadProviderSetLazy opens a snapshot for lazy serving: the core
// sections (config, graph, verifier, ordering) load now, and each method
// section is streamed from the file (every byte copied once), CRC-checked
// and decoded on its first touch. On large worlds this turns a replica
// cold start from O(file) into O(core sections), and methods nobody
// touches stay on disk: the library never hydrates ahead of demand (a
// caller that wants to, as spvserve does once it listens, runs set.Warm()).
// Proofs are byte-identical to an eager load's. The set holds the file open
// for on-demand reads — Close it when done; hydrated methods keep serving.
func LoadProviderSetLazy(path string) (*ProviderSet, error) {
	return core.OpenProviderSetLazy(path)
}

// LoadEngine cold-starts a replica from a snapshot file: the loaded
// providers are registered on a fresh engine whose epoch counter reports
// the snapshot's data epoch. The returned set carries the verifier to
// serve clients (NewServerFromEngine) and the graph/config an owner
// process would need. The engine is ready to share across goroutines.
func LoadEngine(path string, opts ServeOptions) (*QueryEngine, *ProviderSet, error) {
	set, err := core.OpenProviderSet(path)
	if err != nil {
		return nil, nil, err
	}
	return serve.EngineFromSet(set, opts), set, nil
}

// LoadEngineLazy is LoadEngine over LoadProviderSetLazy: the replica
// starts answering queries after loading only the core sections, and
// method payloads hydrate from the file as traffic (or set.Warm) touches
// them. The first touch per method pays its section's read+decode;
// everything after serves from memory at eager speed.
func LoadEngineLazy(path string, opts ServeOptions) (*QueryEngine, *ProviderSet, error) {
	set, err := core.OpenProviderSetLazy(path)
	if err != nil {
		return nil, nil, err
	}
	return serve.EngineFromSet(set, opts), set, nil
}

// NewEngineFromSet wraps an already-loaded provider set in a query
// engine; use when one loaded set backs several engines (e.g. per-tenant
// cache budgets over shared immutable providers).
func NewEngineFromSet(set *ProviderSet, opts ServeOptions) *QueryEngine {
	return serve.EngineFromSet(set, opts)
}

// LoadDeployment resumes an update-capable deployment from a snapshot
// file plus the owner's persisted private key (which never enters a
// snapshot): the owner continues at the stored epoch and subsequent
// ApplyUpdates batches behave exactly as if the process had never
// restarted. The key's public half must match the snapshot's embedded
// verifier. Key-less replicas use LoadEngine instead.
func LoadDeployment(path string, signer *Signer, opts ServeOptions) (*Deployment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return serve.LoadDeployment(f, st.Size(), signer, opts)
}

// Snapshot certificates: the owner signs one compact certificate over a
// deployment's complete outsourced state (per-method labellings or hint
// rows plus every Merkle commitment), and a replica audits its loaded
// snapshot against it in one linear pass — triangle-inequality, parent-
// edge and digest-fold checks, no per-row Dijkstra — before serving. See
// internal/cert and DESIGN.md §14.

// Certificate is an owner-signed snapshot certificate covering one or
// more methods at one update epoch.
type Certificate = cert.Certificate

// AuditReport is the structured outcome of one certificate audit: global
// failure (if any), per-method results, and methods the snapshot serves
// that the certificate does not cover. OK() reports a clean audit; Err()
// the first failure in audit order.
type AuditReport = cert.Report

// Certificate audit failure classes (all wrap ErrAudit).
var (
	ErrAudit              = cert.ErrAudit
	ErrAuditDistance      = cert.ErrDistance
	ErrAuditParent        = cert.ErrParent
	ErrAuditDigest        = cert.ErrRowDigest
	ErrAuditSignature     = cert.ErrSignature
	ErrAuditEncoding      = cert.ErrEncoding
	ErrAuditEpoch         = cert.ErrEpochMismatch
	ErrAuditMethodMissing = cert.ErrMethodMissing
)

// Certify issues the owner's snapshot certificate over the given
// outsourced providers (every provider must come from this owner at its
// current epoch). Attach it to snapshots via Deployment.Certify +
// SaveSnapshot, or ship it out of band alongside the certificate-less
// file.
func Certify(o *Owner, provs ...Provider) (*Certificate, error) {
	return o.Certify(provs...)
}

// Audit checks a loaded provider set against a certificate in one linear
// pass per covered method and returns the structured report; use the
// report's Err()/OK() for a verdict. v is the owner's public key (use
// set.Verifier for the snapshot's embedded one — callers distrusting the
// file should pass an out-of-band copy).
func Audit(set *ProviderSet, c *Certificate, v *Verifier) *AuditReport {
	return cert.Audit(set, c, v)
}

// AuditSnapshot opens the snapshot at path lazily, audits it against its
// embedded certificate with its embedded verifier, and reports. The
// certificate streams through the audit from the file and is never held;
// sections the audit never touches stay on disk. A snapshot without a
// CERT section is an error — auditing nothing proves nothing — and so is
// one whose certificate cannot be read.
func AuditSnapshot(path string) (*AuditReport, error) {
	set, err := LoadProviderSetLazy(path)
	if err != nil {
		return nil, err
	}
	defer set.Close()
	rep, err := set.AuditCertificate(set.Verifier)
	if err != nil {
		return nil, err
	}
	if rep == nil {
		return nil, fmt.Errorf("spv: snapshot %s carries no certificate (write one with Deployment.Certify before saving)", path)
	}
	return rep, nil
}
