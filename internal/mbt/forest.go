package mbt

import (
	"bytes"
	"errors"
	"fmt"

	"github.com/authhints/spv/internal/digest"
	"github.com/authhints/spv/internal/mht"
)

// Forest is the FULL method's distance ADS: a two-level Merkle tree over the
// implicit |V|×|V| matrix of materialized distances. Leaves are entries
// ⟨i, j, dist(i, j)⟩ in row-major order; each source row folds into a row
// subtree whose root becomes a leaf of the top tree.
//
// Only the |V| row roots are retained: O(|V|) memory instead of O(|V|²).
// Proof generation regenerates the needed row with the RowFn callback
// (one Dijkstra run in FULL) and rebuilds its subtree transiently.
type Forest struct {
	alg    digest.Alg
	fanout int
	n      int
	top    *mht.Tree
	rowFn  func(i int) []float64
}

// ForestBuilder accumulates row roots, either in source order (AddRow) or
// out of order from concurrent workers (SetRow).
type ForestBuilder struct {
	alg      digest.Alg
	fanout   int
	n        int
	next     int    // rows consumed by AddRow
	rowRoots []byte // the top tree's leaf slab: row i's root at [i·|H|, (i+1)·|H|)
	folded   []bool // per row: root written
}

// NewForestBuilder prepares a builder for an n×n matrix.
func NewForestBuilder(alg digest.Alg, fanout, n int) (*ForestBuilder, error) {
	if !alg.Valid() {
		return nil, fmt.Errorf("mbt: invalid hash algorithm %d", alg)
	}
	if n <= 0 {
		return nil, errors.New("mbt: empty forest")
	}
	if fanout < 2 || fanout > mht.MaxFanout {
		return nil, fmt.Errorf("mbt: fanout %d out of range", fanout)
	}
	return &ForestBuilder{
		alg: alg, fanout: fanout, n: n,
		rowRoots: make([]byte, n*alg.Size()), folded: make([]bool, n),
	}, nil
}

// AddRow folds row i (which must arrive in order: 0, 1, 2, ...) into its
// subtree root. vals[j] is dist(i, j) and must have length n.
func (b *ForestBuilder) AddRow(vals []float64) error {
	if b.next >= b.n {
		return fmt.Errorf("mbt: too many rows (n=%d)", b.n)
	}
	if err := b.SetRow(b.next, vals); err != nil {
		return err
	}
	b.next++
	return nil
}

// SetRow folds row i into its subtree root. Unlike AddRow it carries the
// row index explicitly, so concurrent workers may fold distinct rows
// simultaneously — row hashing is the quadratic cost of FULL outsourcing,
// and this is where it fans out across cores. Safe for concurrent use on
// distinct i.
func (b *ForestBuilder) SetRow(i int, vals []float64) error {
	if i < 0 || i >= b.n {
		return fmt.Errorf("mbt: row %d out of range [0, %d)", i, b.n)
	}
	if len(vals) != b.n {
		return fmt.Errorf("mbt: row %d has %d values, want %d", i, len(vals), b.n)
	}
	t, err := rowTree(b.alg, b.fanout, i, vals)
	if err != nil {
		return err
	}
	copy(b.rowRoots[i*b.alg.Size():], t.Root())
	b.folded[i] = true
	return nil
}

// appendRowLeaves appends the leaf digests of row i's entries ⟨i, j, vals[j]⟩
// to dst.
func appendRowLeaves(dst []byte, alg digest.Alg, i int, vals []float64) []byte {
	var buf [entrySize]byte
	for j, v := range vals {
		e := Entry{Key: MakeKey(uint32(i), uint32(j)), Value: v}
		dst = alg.AppendSum(dst, e.AppendBinary(buf[:0]))
	}
	return dst
}

// rowTree builds the subtree over row i's entries. Standalone (no shared
// scratch) so builder workers and proof regeneration can run concurrently.
func rowTree(alg digest.Alg, fanout, i int, vals []float64) (*mht.Tree, error) {
	return mht.Build(alg, fanout, appendRowLeaves(make([]byte, 0, len(vals)*alg.Size()), alg, i, vals))
}

// RowRoot computes the subtree root of row i of an n×n forest — the leaf
// the top tree authenticates for source i. The incremental update path uses
// it to re-fold only dirty rows.
func RowRoot(alg digest.Alg, fanout, n, i int, vals []float64) ([]byte, error) {
	if len(vals) != n {
		return nil, fmt.Errorf("mbt: row %d has %d values, want %d", i, len(vals), n)
	}
	t, err := rowTree(alg, fanout, i, vals)
	if err != nil {
		return nil, err
	}
	return t.Root(), nil
}

// Finish builds the top tree. rowFn must regenerate row i on demand for
// proof generation (it is the provider's half; clients never need it).
// Every row must have been folded via AddRow or SetRow.
func (b *ForestBuilder) Finish(rowFn func(i int) []float64) (*Forest, error) {
	for i, ok := range b.folded {
		if !ok {
			return nil, fmt.Errorf("mbt: row %d never folded", i)
		}
	}
	top, err := mht.Build(b.alg, b.fanout, b.rowRoots)
	if err != nil {
		return nil, err
	}
	return &Forest{alg: b.alg, fanout: b.fanout, n: b.n, top: top, rowFn: rowFn}, nil
}

// WithPatchedRows returns a forest whose row roots are replaced by newRoots
// (keyed by source), with only the dirty top-tree paths rehashed; the
// receiver stays valid for concurrent readers. rowFn regenerates rows
// against the post-update network and replaces the receiver's callback.
func (f *Forest) WithPatchedRows(newRoots map[int][]byte, rowFn func(i int) []float64) (*Forest, error) {
	top, err := f.top.UpdateLeaves(newRoots)
	if err != nil {
		return nil, err
	}
	return &Forest{alg: f.alg, fanout: f.fanout, n: f.n, top: top, rowFn: rowFn}, nil
}

// RowRootEqual reports whether row i's current root equals root — patch
// paths use it to drop no-op row updates before touching the top tree.
func (f *Forest) RowRootEqual(i int, root []byte) bool {
	return bytes.Equal(f.top.Leaf(i), root)
}

// Top exposes the top tree over row roots for snapshot serialization
// (dehydration); pair with RehydrateForest. Read-only.
func (f *Forest) Top() *mht.Tree { return f.top }

// RehydrateForest reconstructs a Forest from an already rehydrated top
// tree, without re-folding a single row — the snapshot load path for FULL,
// where the |V|² row hashing was paid once at outsourcing time. rowFn must
// regenerate row i against the same network state the top tree
// authenticates: Prove cross-checks every regenerated row's root against
// its top-tree leaf, so drift surfaces provider-side, not as an opaque
// client failure.
func RehydrateForest(n int, top *mht.Tree, rowFn func(i int) []float64) (*Forest, error) {
	if top == nil {
		return nil, errors.New("mbt: nil top tree")
	}
	if n <= 0 || top.NumLeaves() != n {
		return nil, fmt.Errorf("mbt: top tree has %d leaves for an n=%d forest", top.NumLeaves(), n)
	}
	if rowFn == nil {
		return nil, errors.New("mbt: nil row function")
	}
	return &Forest{alg: top.Alg(), fanout: top.Fanout(), n: n, top: top, rowFn: rowFn}, nil
}

// Root returns the forest root digest (signed by the data owner).
func (f *Forest) Root() []byte { return f.top.Root() }

// N returns the matrix dimension |V|.
func (f *Forest) N() int { return f.n }

// ForestProof authenticates a single entry ⟨i, j, dist⟩ against the forest
// root: the entry, a proof inside row i's subtree, and a proof of row i's
// root inside the top tree.
type ForestProof struct {
	Entry Entry
	Row   *mht.Proof // proves leaf j within the row subtree
	Top   *mht.Proof // proves row root i within the top tree
}

// Prove generates the verification object for dist(i, j). Safe for
// concurrent use; hot paths should hold a ForestScratch and call ProveWith.
func (f *Forest) Prove(i, j int) (*ForestProof, error) {
	var s ForestScratch
	return f.ProveWith(&s, i, j)
}

// ForestScratch is reusable storage for ProveWith: the row's leaf slab, the
// transient row subtree, and the working set of both Merkle proofs.
// A zero value is ready; a scratch reused across proofs on one forest (the
// FULL provider steady state) reaches near-zero allocations per proof,
// where the standalone path pays O(|V|) digest allocations to rebuild the
// row subtree. Not safe for concurrent use.
type ForestScratch struct {
	leaves []byte
	ts     mht.TreeScratch
	prove  mht.ProveScratch
}

// ProveWith is Prove with caller-provided scratch. The returned proof is
// fully detached: row-proof digests are copied out of the scratch-backed
// subtree (top-proof digests alias the persistent top tree, exactly as in
// Prove), so the proof stays valid after the scratch is reused. Output is
// byte-identical to Prove's.
func (f *Forest) ProveWith(s *ForestScratch, i, j int) (*ForestProof, error) {
	if i < 0 || i >= f.n || j < 0 || j >= f.n {
		return nil, fmt.Errorf("mbt: pair (%d, %d) out of range [0, %d)", i, j, f.n)
	}
	vals := f.rowFn(i)
	if len(vals) != f.n {
		return nil, fmt.Errorf("mbt: row function returned %d values, want %d", len(vals), f.n)
	}
	size := f.alg.Size()
	s.leaves = appendRowLeaves(s.leaves[:0], f.alg, i, vals)
	rt, err := mht.BuildInto(&s.ts, f.alg, f.fanout, s.leaves)
	if err != nil {
		return nil, err
	}
	// Detect drift between construction-time and proof-time rows early: a
	// stale provider cache would otherwise surface as an opaque client-side
	// root mismatch.
	if !bytes.Equal(rt.Root(), f.top.Leaf(i)) {
		return nil, fmt.Errorf("mbt: row %d regenerated with different contents", i)
	}
	rowProof, err := rt.ProveWith(&s.prove, []int{j})
	if err != nil {
		return nil, err
	}
	// The row proof's digests point into the transient subtree; copy them
	// into one owned block so nothing reachable from the scratch is retained
	// by the returned proof.
	block := make([]byte, 0, len(rowProof.Entries)*size)
	for ei := range rowProof.Entries {
		block = append(block, rowProof.Entries[ei].Digest...)
		rowProof.Entries[ei].Digest = block[len(block)-size:]
	}
	topProof, err := f.top.ProveWith(&s.prove, []int{i})
	if err != nil {
		return nil, err
	}
	return &ForestProof{
		Entry: Entry{Key: MakeKey(uint32(i), uint32(j)), Value: vals[j]},
		Row:   rowProof,
		Top:   topProof,
	}, nil
}

// Root reconstructs the forest root implied by the proof, without trusted
// input, for signature binding.
func (p *ForestProof) Root() ([]byte, error) {
	if p.Row == nil || p.Top == nil {
		return nil, errors.New("mbt: forest proof missing parts")
	}
	i, j := p.Entry.Key.Split()
	var s mht.Scratch
	var msg [entrySize]byte
	var sum [32]byte // either algorithm's digest
	leaf := p.Row.Alg.AppendSum(sum[:0], p.Entry.AppendBinary(msg[:0]))
	rowRoot, err := s.Reconstruct(p.Row, []mht.Known{{Index: j, Digest: leaf}})
	if err != nil {
		return nil, fmt.Errorf("mbt: row reconstruction: %w", err)
	}
	// The row root aliases the scratch the top fold is about to reuse.
	rowRoot = append([]byte(nil), rowRoot...)
	topRoot, err := s.Reconstruct(p.Top, []mht.Known{{Index: i, Digest: rowRoot}})
	if err != nil {
		return nil, fmt.Errorf("mbt: top reconstruction: %w", err)
	}
	return topRoot, nil
}

// Verify checks the proof against the trusted forest root. On success,
// Entry is an authentic materialized distance.
func (p *ForestProof) Verify(root []byte) error {
	got, err := p.Root()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, root) {
		return errors.New("mbt: root mismatch")
	}
	return nil
}

// EncodedSize returns the wire size of the proof.
func (p *ForestProof) EncodedSize() int {
	return entrySize + p.Row.EncodedSize() + p.Top.EncodedSize()
}

// NumItems counts proof items (1 entry + Merkle digests).
func (p *ForestProof) NumItems() int { return 1 + p.Row.NumEntries() + p.Top.NumEntries() }

// AppendBinary serializes the proof: entry | row proof | top proof.
func (p *ForestProof) AppendBinary(buf []byte) []byte {
	buf = p.Entry.AppendBinary(buf)
	buf = p.Row.AppendBinary(buf)
	return p.Top.AppendBinary(buf)
}

// DecodeForestProof parses a serialized forest proof.
func DecodeForestProof(buf []byte) (*ForestProof, int, error) {
	e, err := decodeEntry(buf)
	if err != nil {
		return nil, 0, err
	}
	off := entrySize
	row, n, err := mht.DecodeProof(buf[off:])
	if err != nil {
		return nil, 0, fmt.Errorf("mbt: row proof: %w", err)
	}
	off += n
	top, n, err := mht.DecodeProof(buf[off:])
	if err != nil {
		return nil, 0, fmt.Errorf("mbt: top proof: %w", err)
	}
	off += n
	return &ForestProof{Entry: e, Row: row, Top: top}, off, nil
}
