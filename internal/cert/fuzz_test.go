package cert_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"github.com/authhints/spv/internal/cert"
	"github.com/authhints/spv/internal/digest"
	"github.com/authhints/spv/internal/graph"
)

// corpusCert builds a small, structurally valid certificate for one
// method — the fuzz corpus seeds one wire per method so coverage starts
// from every per-method layout (DIJ single-row, HYP aux flag, &c.).
func corpusCert(method string) *cert.Certificate {
	alg := digest.SHA256
	sig := []byte("fuzz-corpus-signature")
	c, err := cert.New(alg, 1, make([]byte, alg.Size()), 3, len(sig), []cert.Spec{{
		Method: method,
		Aux:    []byte{0},
		Roots:  [][]byte{make([]byte, alg.Size())},
		Srcs:   []graph.NodeID{0},
	}})
	if err != nil {
		panic(err)
	}
	r := c.Methods[0].Row(0)
	for v, k := range []uint16{graph.NoParent, 0, 0} { // the path 0-1-2 from 0
		r.SetSlot(v, k)
	}
	r.Seal(alg)
	if err := c.Sign(func(...[]byte) ([]byte, error) { return sig, nil }); err != nil {
		panic(err)
	}
	return c
}

// inside reports whether view lies wholly within buf's backing array.
func inside(buf, view []byte) bool {
	if len(view) == 0 {
		return true
	}
	lo, hi := uintptr(unsafe.Pointer(unsafe.SliceData(buf))), uintptr(len(buf))
	at := uintptr(unsafe.Pointer(unsafe.SliceData(view)))
	return at >= lo && at+uintptr(len(view)) <= lo+hi
}

// decodeAllocBudget bounds what decoding may allocate, whatever the input:
// the index is a fixed few words per method and per root, both capped at 64.
const decodeAllocBudget = 256 << 10

// FuzzDecodeCertificate pins the decoder's guarantees on adversarial
// input. It never panics, and what it allocates is bounded by a constant
// independent of len(data) — the index, never the rows. An accepted wire is
// the certificate: Bytes is the input itself, every slot the index reports
// lies inside it, and header, slices (name, aux, roots, rows — in wire
// order) and the signature frame tile it exactly, so no byte is outside
// what the signature or a framing check covers. The audit's streaming
// cursor runs over every input too (checkStream), and must agree.
func FuzzDecodeCertificate(f *testing.F) {
	for _, m := range []string{"DIJ", "FULL", "LDM", "HYP"} {
		f.Add(corpusCert(m).Bytes())
	}
	f.Add([]byte("SPVC"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := cert.DecodeCertificate(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > decodeAllocBudget {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		checkStream(t, data, c, err)
		if err != nil {
			return
		}
		if !bytes.Equal(c.Bytes(), data) || !inside(data, c.Bytes()) {
			t.Fatal("accepted certificate is not the input")
		}
		size := c.Alg().Size()
		tiled := 4 + 1 + 1 + 8 + 4 + len(c.CoreDigest()) + 2
		views := [][]byte{c.CoreDigest(), c.Sig()}
		for i := range c.Methods {
			m := &c.Methods[i]
			tiled += 4 + len(m.Method) + 4 + len(m.Aux) + 2 + len(m.Roots)*(4+size) + 4
			views = append(views, m.Aux)
			views = append(views, m.Roots...)
			for j := 0; j < m.NumRows(); j++ {
				r := m.Row(j)
				if r.N() != m.Row(0).N() || len(r.Digest()) != size {
					t.Fatalf("%s row %d: %d nodes, %d-byte digest", m.Method, j, r.N(), len(r.Digest()))
				}
				tiled += 8 + 2*r.N() + 4 + size
				views = append(views, r.Digest())
			}
		}
		tiled += 4 + len(c.Sig())
		if tiled != len(data) {
			t.Fatalf("indexed fields cover %d of %d bytes", tiled, len(data))
		}
		for _, v := range views {
			if !inside(data, v) {
				t.Fatal("an indexed field lies outside the input")
			}
		}
	})
}

// streamView is an audit view that accepts whatever the decoded
// certificate says and checks only that the stream delivers it: every
// slice's fields and every row, byte for byte, with the decode's.
type streamView struct {
	t *testing.T
	c *cert.Certificate // nil when the decode rejected the wire
}

func (v streamView) AuditEpoch() int64 {
	if v.c == nil {
		return 0
	}
	return v.c.Epoch()
}

func (v streamView) AuditMethods() []string { return nil }

func (v streamView) AuditCoreDigest(digest.Alg) ([]byte, error) {
	if v.c == nil {
		return nil, nil
	}
	return v.c.CoreDigest(), nil
}

func (v streamView) AuditMethod(mc *cert.MethodCert, _ cert.SigVerifier) error {
	want := v.c.Method(mc.Method)
	if want == nil || !bytes.Equal(mc.Aux, want.Aux) || len(mc.Roots) != len(want.Roots) || mc.NumRows() != want.NumRows() {
		return fmt.Errorf("slice %q differs from the decode's", mc.Method)
	}
	for i := range mc.Roots {
		if !bytes.Equal(mc.Roots[i], want.Roots[i]) {
			return fmt.Errorf("%s root %d differs", mc.Method, i)
		}
	}
	return mc.Rows(func(i int, row cert.Row, _ *cert.Scratch) error {
		w := want.Row(i)
		if row.Src() != w.Src() || row.N() != w.N() || !bytes.Equal(row.Digest(), w.Digest()) {
			return fmt.Errorf("%s row %d differs", mc.Method, i)
		}
		for x := 0; x < row.N(); x++ {
			if row.Slot(x) != w.Slot(x) {
				return fmt.Errorf("%s row %d differs at %d", mc.Method, i, x)
			}
		}
		return nil
	})
}

// digestVerifier accepts exactly the signature frame and message digest
// of the decoded certificate.
type digestVerifier struct {
	sig  []byte
	want [sha256.Size]byte
}

func (v digestVerifier) VerifyParts(sig []byte, parts ...[]byte) error {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return v.VerifyDigest(sig, [sha256.Size]byte(h.Sum(nil)))
}

func (v digestVerifier) VerifyDigest(sig []byte, h [sha256.Size]byte) error {
	if !bytes.Equal(sig, v.sig) || h != v.want {
		return errors.New("not the decoded certificate's signature")
	}
	return nil
}

// checkStream runs the audit's streaming cursor over data and holds it to
// the decode's verdict (c, err): it rejects what the decode rejects, as
// ErrEncoding and with no report; otherwise it delivers every field and
// row the decode indexed, folds exactly SigContext ‖ the signed span into
// the signature's digest, and passes. Either way it allocates no more than
// the decode's budget plus a few row buffers per worker — never a size
// the input claims.
func checkStream(t *testing.T, data []byte, c *cert.Certificate, err error) {
	v := digestVerifier{}
	if err == nil {
		v.sig = c.Sig()
		v.want = sha256.Sum256(append(bytes.Clone(cert.SigContext), data[:len(data)-4-len(c.Sig())]...))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, serr := cert.AuditReader(streamView{t, c}, bytes.NewReader(data), int64(len(data)), v)
	runtime.ReadMemStats(&after)
	if grew, budget := after.TotalAlloc-before.TotalAlloc, decodeAllocBudget+uint64(4*runtime.GOMAXPROCS(0)*len(data)); grew > budget {
		t.Fatalf("streaming %d bytes allocated %d, budget %d", len(data), grew, budget)
	}
	if err != nil {
		if rep != nil || !errors.Is(serr, cert.ErrEncoding) {
			t.Fatalf("decode rejected (%v); stream: report %v, err %v", err, rep, serr)
		}
		return
	}
	if serr != nil {
		t.Fatalf("decode accepted; stream rejected: %v", serr)
	}
	if err := rep.Err(); err != nil || len(rep.Covered) != len(c.Methods) {
		t.Fatalf("stream of an accepted wire: %v, covered %v", err, rep.Covered)
	}
}

// wireOffsets locates the numMethods-relative fields of a single-method
// certificate wire by walking the layout, so the lying-length tests stay
// correct if the corpus cert changes shape.
func wireOffsets(c *cert.Certificate) (numRowsOff, rowNOff int) {
	off := 4 + 1 + 1 + 8           // magic, version, alg, epoch
	off += 4 + len(c.CoreDigest()) // core digest
	off += 2                       // numMethods
	m := &c.Methods[0]
	off += 4 + len(m.Method) // method name
	off += 4 + len(m.Aux)    // aux
	off += 2                 // numRoots
	for _, r := range m.Roots {
		off += 4 + len(r)
	}
	numRowsOff = off
	rowNOff = off + 4 + 4 // numRows, then row src, then row n
	return numRowsOff, rowNOff
}

// TestDecodeCertificateLyingLengths pins the bounded-allocation rule: a
// wire claiming more rows (or longer rows) than its remaining bytes could
// possibly hold is rejected up front — the decoder must not trust counts
// the input asserts about itself.
func TestDecodeCertificateLyingLengths(t *testing.T) {
	c := corpusCert("DIJ")
	wire := c.Bytes()
	numRowsOff, rowNOff := wireOffsets(c)

	lying := append([]byte(nil), wire...)
	binary.BigEndian.PutUint32(lying[numRowsOff:], 0xFFFFFFFF)
	if _, err := cert.DecodeCertificate(lying); !errors.Is(err, cert.ErrEncoding) {
		t.Fatalf("lying row count: got %v, want ErrEncoding", err)
	}

	lying = append(lying[:0], wire...)
	binary.BigEndian.PutUint32(lying[rowNOff:], 0x7FFFFFFF)
	if _, err := cert.DecodeCertificate(lying); !errors.Is(err, cert.ErrEncoding) {
		t.Fatalf("lying row length: got %v, want ErrEncoding", err)
	}

	// Trailing bytes after a valid wire are rejected, not ignored — the
	// wire must be canonical for the signature to be meaningful.
	if _, err := cert.DecodeCertificate(append(append([]byte(nil), wire...), 0)); !errors.Is(err, cert.ErrEncoding) {
		t.Fatalf("trailing byte: got %v, want ErrEncoding", err)
	}
	for _, n := range []int{0, 3, 7, len(wire) / 2, len(wire) - 1} {
		if _, err := cert.DecodeCertificate(wire[:n]); !errors.Is(err, cert.ErrEncoding) {
			t.Fatalf("truncation to %d bytes: got %v, want ErrEncoding", n, err)
		}
	}
}

// TestDecodeOneLongRow pins the node-count bound to the row layout: a row
// needs two bytes a node, so a one-row certificate whose row covers more
// nodes than a twelfth of what follows its count (the bound of a layout
// with twelve bytes a node) decodes, from a held wire and from a stream.
func TestDecodeOneLongRow(t *testing.T) {
	const n = 1000
	alg := digest.SHA1
	c, err := cert.New(alg, 1, make([]byte, alg.Size()), n, 0, []cert.Spec{{Method: "DIJ", Srcs: []graph.NodeID{0}}})
	if err != nil {
		t.Fatal(err)
	}
	c.Methods[0].Row(0).Seal(alg)
	wire := c.Bytes()
	numRowsOff, _ := wireOffsets(c)
	if left := len(wire) - numRowsOff - 4; n <= left/12 {
		t.Fatalf("%d nodes in %d bytes: not past the old bound", n, left)
	}
	dc, err := cert.DecodeCertificate(wire)
	if err != nil {
		t.Fatalf("held wire: %v", err)
	}
	if got := dc.Methods[0].Row(0).N(); got != n {
		t.Fatalf("decoded row covers %d nodes, want %d", got, n)
	}
	checkStream(t, wire, dc, nil)
}
