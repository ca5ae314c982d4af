// Package cert implements whole-snapshot certificates: a compact, signed
// statement by the data owner of everything a replica must hold for one
// epoch — per-method shortest-path trees (one parent slot per node) and
// the Merkle roots the stored structures must hash to — plus a linear-time
// audit that checks a freshly loaded snapshot against it in one pass, as
// the certificate streams past row by row: a process that only audits never
// holds it.
//
// The certificate complements the paper's per-query authenticated hints
// with whole-labelling assurance, after the linear-time shortest-path
// certification of Shokry et al. A row stores only the parents p of a
// tree from src; the audit derives the distances by folding d down the
// tree (d[src] = 0, d[v] = d[p[v]] + w(p[v], v)), so every parent edge is
// tight by construction and a cycle, a slot that names no edge, or a
// parented node whose chain never reaches src is refused while folding.
// What is left is the triangle inequality (d[v] ≤ d[u] + w(u,v) for every
// edge, and no reachable node left without a parent): a tight tree rooted
// at src that no edge improves on is the true SSSP labelling. The network
// is undirected, so one sweep over the nodes checks it, each node against
// its own adjacency — O(V+E) with O(1) work per edge, no Dijkstra re-runs.
// The fold and that sweep (AuditRow) are what Audit performs for every row
// the certificate carries.
//
// Stored Merkle structures are audited by folding: every level a replica
// holds is recomputed from the level below it and the root compared to
// the certificate's. For a tree that stores its leaves (mht.Tree,
// AuditTree) that is the interior levels (mht.Tree.AuditLevels): under
// collision resistance a fold match pins every stored leaf digest to the
// owner's, so the audit never re-hashes leaf messages — that is what
// keeps it several times cheaper than re-outsourcing. HYP's distance tree
// stores neither leaves nor the levels just above them; its audit folds
// the entries the certified rows determine, group by group, into its
// lowest stored level and on to the root (mbt.Tree.Audit), so there too
// every stored level is recomputed and nothing the replica does not hold
// is read.
package cert

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"

	"github.com/authhints/spv/internal/digest"
	"github.com/authhints/spv/internal/graph"
)

// Audit error classes. Every rejection wraps ErrAudit plus exactly one of
// the specific classes below, so the tamper matrix (and operators reading
// spvsnap output) can tell what kind of state was bad.
var (
	// ErrAudit is the root class: every audit rejection wraps it.
	ErrAudit = errors.New("cert: audit rejected")
	// ErrDistance: the distances a row's tree folds to violate the
	// triangle inequality, or a stored row disagrees with them.
	ErrDistance = fmt.Errorf("%w: distance label", ErrAudit)
	// ErrParent: a parent slot names no edge, the source has a parent,
	// the parents close a cycle, a parented node's chain does not reach
	// the source, or a node the source reaches has no parent.
	ErrParent = fmt.Errorf("%w: parent pointer", ErrAudit)
	// ErrRowDigest: a digest commitment mismatch — a row digest, a stored
	// Merkle level that does not fold, a root differing from the
	// certificate's, or the core-section digest.
	ErrRowDigest = fmt.Errorf("%w: digest commitment", ErrAudit)
	// ErrSignature: an owner signature (the certificate's own, or a stored
	// root signature) fails verification.
	ErrSignature = fmt.Errorf("%w: signature", ErrAudit)
	// ErrEncoding: the certificate is malformed or structurally
	// inconsistent with the snapshot it claims to certify.
	ErrEncoding = fmt.Errorf("%w: encoding", ErrAudit)
	// ErrEpochMismatch: the certificate was issued for a different epoch
	// than the one the snapshot carries.
	ErrEpochMismatch = fmt.Errorf("%w: epoch mismatch", ErrAudit)
	// ErrMethodMissing: the certificate covers a method the snapshot does
	// not carry (or the view cannot resolve).
	ErrMethodMissing = fmt.Errorf("%w: method missing", ErrAudit)
)

// SigContext domain-separates certificate signatures from every root
// signature context; the signed message is SigContext ‖ the wire up to its
// trailing signature frame.
var SigContext = []byte("spv/CERT/v1\x00")

// Certificate is the owner's signed statement for one epoch, held as the
// bytes the owner signed and the replica stores — its canonical wire
//
//	"SPVC" | version u8 | alg u8 | epoch u64 | coreDigest bytes |
//	numMethods u16 | methods × (
//	  method str | aux bytes | numRoots u16 | roots × bytes |
//	  numRows u32 | rows × (src u32 | n u32 | n×u16 parent slot | digest bytes)
//	) | sig bytes
//
// (`bytes`/`str` are u32-length-prefixed, integers big-endian, a slot is
// an index into the node's adjacency list or graph.NoParent, 0xFFFF) —
// plus an index of where each method slice lies. Nothing is decoded
// beside it: accessors read the wire, the slices they return alias it,
// and saving writes it. CoreDigest binds the snapshot's core sections
// (config, graph, leaf ordering), so a certificate cannot be replayed
// against a different world.
//
// A process that only audits never needs one: AuditReader checks the wire
// as it streams past, one row at a time, and Audit is that same pass over
// a held certificate's bytes.
type Certificate struct {
	wire    []byte
	signed  int // wire[:signed] is what the signature covers; its frame follows
	Methods []MethodCert
}

// Offsets of the fixed-position header fields.
const (
	algOff   = 5
	epochOff = 6
	coreOff  = 14 // the core digest's length prefix
)

// Bytes returns the canonical wire. It is the certificate, not a copy.
func (c *Certificate) Bytes() []byte { return c.wire }

// Alg returns the digest algorithm of the row digests and roots.
func (c *Certificate) Alg() digest.Alg { return digest.Alg(c.wire[algOff]) }

// Epoch returns the owner epoch the certificate was issued for.
func (c *Certificate) Epoch() int64 {
	return int64(binary.BigEndian.Uint64(c.wire[epochOff:]))
}

// CoreDigest returns the digest of the snapshot's core sections.
func (c *Certificate) CoreDigest() []byte {
	return c.wire[coreOff+4 : coreOff+4+c.Alg().Size()]
}

// Sig returns the owner's signature over SigContext ‖ wire[:signed].
func (c *Certificate) Sig() []byte { return c.wire[c.signed+4:] }

// Method returns the slice for the named method, or nil.
func (c *Certificate) Method(name string) *MethodCert {
	for i := range c.Methods {
		if c.Methods[i].Method == name {
			return &c.Methods[i]
		}
	}
	return nil
}

// MethodCert is one method's slice of the certificate: the Merkle roots
// its stored structures must reproduce, a method-defined parameter blob
// (e.g. HYP's row-form flag) and the labelling rows the audit checks.
// Every row of a slice covers the same node count, so the rows are one
// run of equal-size slots. A decoded certificate's slices index their
// rows in place (Row); a slice the audit hands a View delivers its rows
// as they are read (Rows).
type MethodCert struct {
	Method string
	Aux    []byte
	Roots  [][]byte
	rows   []byte  // a decoded certificate's slots, in place
	run    *rowRun // the row count and slot size, and the cursor the rows arrive on
}

// NumRows returns the number of labelling rows in the slice.
func (m *MethodCert) NumRows() int { return m.run.count }

// Row returns the i-th labelling row of a decoded certificate.
func (m *MethodCert) Row(i int) Row {
	s := m.run.slot
	return Row{m.rows[i*s : (i+1)*s : (i+1)*s]}
}

// Row is one certified shortest-path tree where it lies in the wire: src,
// the node count n, n parent slots — node v's is the index of its parent
// edge in v's adjacency list, graph.NoParent at src and at the nodes src
// does not reach — then the digest of all of that (the per-row integrity
// handle the tamper matrix targets independently of the certificate
// signature). The distances are not stored: AuditRow folds them from the
// tree. SetSlot writes the wire.
type Row struct{ slot []byte }

// slotSize is the wire size of a row over n nodes under a size-byte digest.
func slotSize(n, size int) int { return 8 + 2*n + 4 + size }

// Src returns the labelling's source node.
func (r Row) Src() graph.NodeID { return graph.NodeID(int32(binary.BigEndian.Uint32(r.slot))) }

// N returns the number of nodes the row labels.
func (r Row) N() int { return int(binary.BigEndian.Uint32(r.slot[4:])) }

// body is the digest preimage: everything but the digest frame.
func (r Row) body() []byte { return r.slot[:8+2*r.N()] }

// Digest returns the digest the row carries.
func (r Row) Digest() []byte { return r.slot[8+2*r.N()+4:] }

// Slot returns node v's parent slot.
func (r Row) Slot(v int) uint16 { return binary.BigEndian.Uint16(r.slot[8+2*v:]) }

// Slots returns the row's slot column where it lies: node v's parent slot,
// big-endian, at [2v, 2v+2).
func (r Row) Slots() []byte { return r.slot[8 : 8+2*r.N()] }

// SetSlot writes node v's parent slot.
func (r Row) SetSlot(v int, k uint16) { binary.BigEndian.PutUint16(r.slot[8+2*v:], k) }

// Seal hashes the row's body where it lies into its digest frame.
func (r Row) Seal(alg digest.Alg) { alg.AppendSum(r.Digest()[:0], r.body()) }

// Spec declares one method slice to New: everything but the trees.
type Spec struct {
	Method string
	Aux    []byte
	Roots  [][]byte
	Srcs   []graph.NodeID // one row per source, in order
}

// New lays out the wire of a certificate over the given slices, every row
// sized for n nodes and the signature frame for sigSize bytes: framing,
// roots and row sources in place, parent slots, row digests and signature
// still zero. Slots are disjoint, so rows can be filled concurrently
// (SetSlot, then Seal) before Sign completes the certificate.
func New(alg digest.Alg, epoch int64, coreDigest []byte, n, sigSize int, specs []Spec) (*Certificate, error) {
	if !alg.Valid() {
		return nil, fmt.Errorf("%w: bad digest algorithm %d", ErrEncoding, alg)
	}
	size := alg.Size()
	total := coreOff + 4 + len(coreDigest) + 2 + 4 + sigSize
	for _, s := range specs {
		total += 4 + len(s.Method) + 4 + len(s.Aux) + 2 + 4 + len(s.Srcs)*slotSize(n, size)
		for _, r := range s.Roots {
			total += 4 + len(r)
		}
	}
	buf := make([]byte, 0, total)
	buf = append(buf, certMagic...)
	buf = append(buf, certVersion, byte(alg))
	buf = binary.BigEndian.AppendUint64(buf, uint64(epoch))
	buf = appendCertBytes(buf, coreDigest)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(specs)))
	for _, s := range specs {
		buf = appendCertBytes(buf, []byte(s.Method))
		buf = appendCertBytes(buf, s.Aux)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(s.Roots)))
		for _, r := range s.Roots {
			buf = appendCertBytes(buf, r)
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.Srcs)))
		for _, src := range s.Srcs {
			buf = binary.BigEndian.AppendUint32(buf, uint32(src))
			buf = binary.BigEndian.AppendUint32(buf, uint32(n))
			buf = buf[:len(buf)+2*n]
			buf = binary.BigEndian.AppendUint32(buf, uint32(size))
			buf = buf[:len(buf)+size]
		}
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(sigSize))
	return DecodeCertificate(buf[:len(buf)+sigSize])
}

// Sign completes a certificate laid out by New: sign receives the context
// and the signed span of the wire as they lie, and its signature is written
// into the reserved frame.
func (c *Certificate) Sign(sign func(parts ...[]byte) ([]byte, error)) error {
	sig, err := sign(SigContext, c.wire[:c.signed])
	if err != nil {
		return err
	}
	if len(sig) != len(c.Sig()) {
		return fmt.Errorf("%w: %d-byte signature for a %d-byte frame", ErrEncoding, len(sig), len(c.Sig()))
	}
	copy(c.Sig(), sig)
	return nil
}

// certMagic guards against feeding arbitrary sections to the decoder.
var certMagic = []byte("SPVC")

// certVersion 2 carries parent slots only; version 1's distance and
// parent-ID columns are refused.
const certVersion = 2

// maxCertMethods bounds the index; the registry caps out far below this.
const maxCertMethods = 64

// DecodeCertificate validates the structure of a certificate wire and
// indexes it. The result aliases buf: keep buf unmodified while the
// certificate is in use. Every length is checked against the remaining
// input, all rows of a slice must be the same size, slots tile the wire
// exactly and no trailing bytes are tolerated; what is allocated is the
// index alone — bounded by maxCertMethods, whatever the input's size or
// the counts it claims. It is the audit's cursor run over a slice, with
// each row indexed where the audit would check it.
func DecodeCertificate(buf []byte) (*Certificate, error) {
	d := &wireCursor{buf: buf, size: len(buf)}
	h := d.header()
	c := &Certificate{wire: buf}
	if d.err == nil {
		c.Methods = make([]MethodCert, 0, h.methods)
	}
	for i := 0; i < h.methods && d.err == nil; i++ {
		m := d.slice(h.alg)
		start := d.off
		m.run.drain()
		m.rows = buf[start:d.off:d.off]
		c.Methods = append(c.Methods, m)
	}
	c.signed = d.off
	d.field(-1) // signature
	if err := d.finish(); err != nil {
		return nil, err
	}
	return c, nil
}

// wireCursor is the one reader of a certificate wire: a sticky-error
// cursor over a byte slice, whose fields it returns where they lie, or
// over a stream, whose fields it reads into memory as they arrive. Every
// length and count the wire claims is checked against the bytes left
// before anything is read or allocated for it, and while sum is set every
// byte consumed is folded into it — the signature's digest, taken as the
// bytes pass, in wire order.
type wireCursor struct {
	buf   []byte    // the whole wire, when reading a slice
	r     io.Reader // the stream, otherwise
	off   int       // bytes consumed
	size  int       // input length
	sum   hash.Hash // folds every consumed byte while set
	err   error
	names []string // method slices met so far, in wire order
	spare [][]byte // stream: row buffers not in use
	fixed [8]byte  // stream: the last fixed-width field
	head  [8]byte  // stream: a run's first row head, read ahead (rows)
}

func (d *wireCursor) remaining() int { return d.size - d.off }

func (d *wireCursor) fail(msg string) {
	if d.err == nil {
		d.err = errors.New(msg)
	}
}

// next consumes n bytes — where they lie in a slice, into dst[:n] from a
// stream — or, once the input has run out, returns zero bytes enough for
// any fixed-width read (up to 8), so callers read through and test err
// once.
func (d *wireCursor) next(n int, dst []byte) []byte {
	if d.err == nil && d.remaining() < n {
		d.fail("truncated")
	}
	var b []byte
	switch {
	case d.err != nil:
	case d.r == nil:
		b = d.buf[d.off : d.off+n : d.off+n]
	default:
		b = dst[:n:n]
		_, d.err = io.ReadFull(d.r, b) // short of its declared size: EOF
	}
	if d.err != nil {
		return make([]byte, min(n, 8))
	}
	d.off += n
	if d.sum != nil {
		d.sum.Write(b)
	}
	return b
}

func (d *wireCursor) u8() byte    { return d.next(1, d.fixed[:])[0] }
func (d *wireCursor) u16() uint16 { return binary.BigEndian.Uint16(d.next(2, d.fixed[:])) }
func (d *wireCursor) u32() uint32 { return binary.BigEndian.Uint32(d.next(4, d.fixed[:])) }

// field reads a u32-length-prefixed field; want >= 0 additionally pins
// the exact length (digest fields must be alg-sized). A stream's field is
// allocated only once the input is known to hold it.
func (d *wireCursor) field(want int) []byte {
	n := int(d.u32())
	if d.err == nil && want >= 0 && n != want {
		d.fail(fmt.Sprintf("field is %d bytes, want %d", n, want))
	}
	if d.err == nil && d.remaining() < n {
		d.fail("truncated")
	}
	if d.err != nil {
		return nil
	}
	var dst []byte
	if d.r != nil {
		dst = make([]byte, n)
	}
	return d.next(n, dst)
}

// certHeader is what precedes the method slices.
type certHeader struct {
	alg     digest.Alg
	epoch   int64
	core    []byte
	methods int
}

func (d *wireCursor) header() (h certHeader) {
	if m := d.next(4, d.fixed[:]); d.err != nil || string(m) != string(certMagic) {
		d.err = errors.New("bad magic")
		return h
	}
	if v := d.u8(); d.err == nil && v != certVersion {
		d.fail(fmt.Sprintf("unsupported certificate version %d", v))
	}
	if h.alg = digest.Alg(d.u8()); d.err == nil && !h.alg.Valid() {
		d.fail(fmt.Sprintf("bad digest algorithm %d", h.alg))
	}
	if d.err != nil {
		return h
	}
	h.epoch = int64(binary.BigEndian.Uint64(d.next(8, d.fixed[:])))
	h.core = d.field(h.alg.Size())
	if h.methods = int(d.u16()); h.methods > maxCertMethods {
		d.fail(fmt.Sprintf("%d method slices", h.methods))
	}
	return h
}

const maxMethodName = 16

// slice reads one method slice up to its rows, which it leaves to the
// returned run.
func (d *wireCursor) slice(alg digest.Alg) MethodCert {
	name := d.field(-1)
	if d.err == nil && (len(name) == 0 || len(name) > maxMethodName) {
		d.fail("bad method name length")
	}
	m := MethodCert{Method: string(name), run: &rowRun{d: d}}
	for _, seen := range d.names {
		if seen == m.Method {
			d.fail(fmt.Sprintf("duplicate method slice %q", m.Method))
		}
	}
	d.names = append(d.names, m.Method)
	m.Aux = d.field(-1)
	nr := int(d.u16())
	if nr > maxCertMethods {
		d.fail("too many roots")
	}
	for j := 0; j < nr && d.err == nil; j++ {
		m.Roots = append(m.Roots, d.field(alg.Size()))
	}
	d.rows(m.run, alg.Size())
	return m
}

// rowRun is one slice's labelling rows as the cursor meets them: count
// slots of slot bytes, each over n nodes with a digestSize-byte digest.
type rowRun struct {
	d          *wireCursor
	count, n   int
	slot       int
	digestSize int
	taken      int // rows consumed so far
}

// rows reads a run's row count and the node count its first row declares,
// both bounded by what the remaining input could hold before any row is
// read. From a stream the first row's head is read ahead into d.head.
func (d *wireCursor) rows(run *rowRun, digestSize int) {
	run.digestSize, run.slot = digestSize, slotSize(0, digestSize)
	count := int(d.u32())
	if d.err != nil || count == 0 {
		return
	}
	left, n := d.remaining(), 0
	if left >= 8 && d.r == nil {
		n = int(binary.BigEndian.Uint32(d.buf[d.off+4:]))
	} else if left >= 8 {
		n = int(binary.BigEndian.Uint32(d.next(8, d.head[:])[4:]))
	}
	if n > left/2 {
		d.fail("row length exceeds input")
		return
	}
	run.n, run.slot = n, slotSize(n, digestSize)
	if count > left/run.slot {
		d.fail("row count exceeds input")
		return
	}
	run.count = count
}

// take consumes the run's next row — where it lies in a slice, into dst
// (cap ≥ slot) from a stream — and checks its framing: the run's node
// count and an alg-sized digest. The row is valid only while the cursor
// has no error.
func (r *rowRun) take(dst []byte) Row {
	d, i := r.d, r.taken
	r.taken++
	var b []byte
	if d.r != nil && i == 0 {
		b = dst[:r.slot:r.slot]
		copy(b, d.head[:])
		d.next(r.slot-8, b[8:])
	} else {
		b = d.next(r.slot, dst)
	}
	if d.err != nil {
		return Row{}
	}
	row := Row{b}
	if row.N() != r.n {
		d.fail(fmt.Sprintf("row %d covers %d nodes, row 0 covers %d", i, row.N(), r.n))
	} else if got := binary.BigEndian.Uint32(b[8+2*r.n:]); int(got) != r.digestSize {
		d.fail(fmt.Sprintf("field is %d bytes, want %d", got, r.digestSize))
	}
	return row
}

// drain consumes whatever rows of the run are still unread: a decode
// indexes them, the audit hashes and frames the rows a method audit left.
func (r *rowRun) drain() {
	if r.taken >= r.count || r.d.err != nil {
		return
	}
	buf := r.d.buffer(r.slot)
	for r.taken < r.count && r.d.err == nil {
		r.take(buf)
	}
	r.d.release(buf)
}

// buffer returns a row buffer for slot-byte rows: nil over a slice, whose
// rows are read in place.
func (d *wireCursor) buffer(slot int) []byte {
	if d.r == nil {
		return nil
	}
	if k := len(d.spare) - 1; k >= 0 && cap(d.spare[k]) >= slot {
		b := d.spare[k]
		d.spare = d.spare[:k]
		return b[:slot]
	}
	return make([]byte, slot)
}

func (d *wireCursor) release(b []byte) {
	if b != nil {
		d.spare = append(d.spare, b)
	}
}

// finish settles a read that has consumed the signature frame: any error
// met, or trailing input, is the certificate's ErrEncoding.
func (d *wireCursor) finish() error {
	if d.err != nil {
		return fmt.Errorf("%w: %v", ErrEncoding, d.err)
	}
	if d.off != d.size {
		return fmt.Errorf("%w: %d trailing bytes", ErrEncoding, d.size-d.off)
	}
	return nil
}

func appendCertBytes(buf, b []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}
