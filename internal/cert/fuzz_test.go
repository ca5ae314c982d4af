package cert_test

import (
	"bytes"
	"encoding/binary"
	"errors"
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
	for v, p := range []graph.NodeID{graph.Invalid, 0, 1} {
		r.SetDist(v, float64(v))
		r.SetParent(v, p)
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
// what the signature or a framing check covers.
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
				tiled += 8 + 12*r.N() + 4 + size
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
