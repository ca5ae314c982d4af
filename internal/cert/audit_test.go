package cert_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/authhints/spv/internal/cert"
	"github.com/authhints/spv/internal/core"
	"github.com/authhints/spv/internal/digest"
	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/hiti"
	"github.com/authhints/spv/internal/netgen"
	"github.com/authhints/spv/internal/snapshot"
	"github.com/authhints/spv/internal/sp"
)

// certWorld builds a deterministic four-method world, certifies it, and
// round-trips it through a snapshot so the audit runs against exactly
// what a replica would load.
func certWorld(t testing.TB) (*core.Owner, *core.ProviderSet, *cert.Certificate) {
	t.Helper()
	g, err := netgen.Synthesize(200, 230, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Landmarks = 4
	cfg.Cells = 9
	owner, err := core.NewOwner(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var provs []core.Provider
	for _, m := range core.RegisteredMethods() {
		p, err := owner.Outsource(m)
		if err != nil {
			t.Fatalf("outsource %s: %v", m, err)
		}
		provs = append(provs, p)
	}
	c, err := owner.Certify(provs...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := owner.WriteSnapshotCert(&buf, c, provs...); err != nil {
		t.Fatal(err)
	}
	set, err := core.ReadProviderSet(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	return owner, set, c
}

// reDecode decodes a private copy of c's wire, so tamper subtests never
// corrupt each other's copy. Every tamper below is a byte edit of that wire
// through the view — the certificate an adversary would actually send.
func reDecode(t *testing.T, c *cert.Certificate) *cert.Certificate {
	t.Helper()
	c2, err := cert.DecodeCertificate(bytes.Clone(c.Bytes()))
	if err != nil {
		t.Fatalf("re-decode: %v", err)
	}
	return c2
}

// rowTree is what a tamper needs of one clean certificate row over g: each
// node's parent (graph.Invalid at none), the distances the tree folds to,
// and which nodes parent another.
type rowTree struct {
	g      *graph.CSR
	src    graph.NodeID
	parent []graph.NodeID
	dist   []float64
	inner  []bool
}

func readTree(t *testing.T, g *graph.CSR, r cert.Row) rowTree {
	t.Helper()
	var sc cert.Scratch
	if err := cert.AuditRow(g, r, &sc); err != nil {
		t.Fatalf("clean row rejected: %v", err)
	}
	rt := rowTree{g, r.Src(), make([]graph.NodeID, r.N()), slices.Clone(sc.Dists()), make([]bool, r.N())}
	for v := range rt.parent {
		rt.parent[v] = graph.Invalid
		if k := r.Slot(v); k != graph.NoParent {
			p := g.Neighbors(graph.NodeID(v))[k].To
			rt.parent[v], rt.inner[p] = p, true
		}
	}
	return rt
}

// node returns the first node the tree reaches, other than its source,
// that parents another node (inner) or none, and passes keep.
func (rt rowTree) node(t *testing.T, inner bool, keep func(graph.NodeID) bool) graph.NodeID {
	t.Helper()
	for v, p := range rt.parent {
		if x := graph.NodeID(v); p != graph.Invalid && rt.inner[v] == inner && keep(x) {
			return x
		}
	}
	t.Fatal("row has no node to tamper with")
	return graph.Invalid
}

func anyNode(graph.NodeID) bool { return true }

// nonTight gives a leaf of the tree that no HYP border is (so HYP's stored
// W* values still match the fold) a neighbour as its parent whose edge is
// far from tight: the fold then raises that leaf's distance alone, and only
// the triangle check can tell.
func nonTight(t *testing.T, rt rowTree, r cert.Row, border []bool) {
	t.Helper()
	var y graph.NodeID
	x := rt.node(t, false, func(x graph.NodeID) bool {
		for _, e := range rt.g.Neighbors(x) {
			if rt.dist[e.To]+e.W > rt.dist[x]*(1+1e-6)+1e-6 {
				y = e.To
				return !border[x]
			}
		}
		return false
	})
	r.SetSlot(int(x), rt.g.ParentSlot(x, y))
}

func TestCertifyAuditClean(t *testing.T) {
	_, set, c := certWorld(t)
	// The snapshot's embedded certificate must be byte-identical to the
	// issued one.
	embedded, err := set.Certificate()
	if err != nil {
		t.Fatal(err)
	}
	if embedded == nil {
		t.Fatal("snapshot carries no certificate")
	}
	if !bytes.Equal(embedded.Bytes(), c.Bytes()) {
		t.Fatal("embedded certificate differs from the issued one")
	}
	rep := cert.Audit(set, embedded, set.Verifier)
	if err := rep.Err(); err != nil {
		t.Fatalf("clean audit rejected: %v", err)
	}
	if len(rep.Methods) != len(core.RegisteredMethods()) {
		t.Fatalf("audit covered %d methods, want %d", len(rep.Methods), len(core.RegisteredMethods()))
	}
	if len(rep.Uncovered) != 0 {
		t.Fatalf("unexpected uncovered methods %v", rep.Uncovered)
	}
}

// TestAuditTamperMatrix is the satellite pin: one flipped field per
// certificate field class, for every method, must be rejected with
// exactly that class's typed error — and never panic. The certificate
// signature would also catch each flip, but it is checked last, so the
// specific class always surfaces.
func TestAuditTamperMatrix(t *testing.T) {
	_, set, c := certWorld(t)
	g := set.Graph
	hy, err := hiti.Build(g, 9) // certWorld's partition
	if err != nil {
		t.Fatal(err)
	}

	// Each tree case edits the slots of row 0 of a method's slice:
	// "distance" a non-tight tree, "parent" a parent cycle. The world is
	// connected, so "across components" cuts an inner node loose: its
	// children's parent then lies in a tree the source does not reach.
	classes := []struct {
		name   string
		tamper func(t *testing.T, rt rowTree, r cert.Row)
		want   error
		msg    string
	}{
		{"distance", func(t *testing.T, rt rowTree, r cert.Row) {
			nonTight(t, rt, r, hy.IsBorder)
		}, cert.ErrDistance, "triangle"},
		{"parent", func(t *testing.T, rt rowTree, r cert.Row) {
			var y graph.NodeID
			x := rt.node(t, false, func(x graph.NodeID) bool {
				for _, e := range g.Neighbors(x) {
					if e.To != rt.src {
						y = e.To
						return true
					}
				}
				return false
			})
			r.SetSlot(int(x), g.ParentSlot(x, y))
			r.SetSlot(int(y), g.ParentSlot(y, x))
		}, cert.ErrParent, "cycle"},
		{"slot past the degree", func(t *testing.T, rt rowTree, r cert.Row) {
			x := rt.node(t, false, anyNode)
			r.SetSlot(int(x), uint16(g.Degree(x)))
		}, cert.ErrParent, "parent slot"},
		{"parented source", func(t *testing.T, rt rowTree, r cert.Row) {
			r.SetSlot(int(rt.src), 0)
		}, cert.ErrParent, "source"},
		{"reachable without parent", func(t *testing.T, rt rowTree, r cert.Row) {
			r.SetSlot(int(rt.node(t, false, anyNode)), graph.NoParent)
		}, cert.ErrParent, "has no parent"},
		{"parent across components", func(t *testing.T, rt rowTree, r cert.Row) {
			r.SetSlot(int(rt.node(t, true, anyNode)), graph.NoParent)
		}, cert.ErrParent, "does not reach"},
		{"rowdigest", func(t *testing.T, rt rowTree, r cert.Row) { r.Digest()[0] ^= 0x01 }, cert.ErrRowDigest, "digest"},
	}
	for _, m := range core.RegisteredMethods() {
		for _, tc := range classes {
			t.Run(string(m)+"/"+tc.name, func(t *testing.T) {
				c2 := reDecode(t, c)
				mc := c2.Method(string(m))
				if mc == nil || mc.NumRows() == 0 {
					t.Fatalf("certificate has no %s rows", m)
				}
				row := mc.Row(0)
				tc.tamper(t, readTree(t, g, row), row)
				rep := cert.Audit(set, c2, set.Verifier)
				err := rep.Err()
				if err == nil {
					t.Fatalf("audit accepted a tampered %s %s", m, tc.name)
				}
				if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), tc.msg) {
					t.Fatalf("tampered %s %s: got %v, want class %v saying %q", m, tc.name, err, tc.want, tc.msg)
				}
				if !errors.Is(err, cert.ErrAudit) {
					t.Fatalf("rejection does not wrap ErrAudit: %v", err)
				}
				// Only the tampered method fails; the others stay clean.
				for _, mr := range rep.Methods {
					if mr.Method != string(m) && mr.Err != nil {
						t.Fatalf("tampering %s also failed %s: %v", m, mr.Method, mr.Err)
					}
				}
			})
		}
	}

	t.Run("signature", func(t *testing.T) {
		c2 := reDecode(t, c)
		c2.Sig()[0] ^= 0x01
		rep := cert.Audit(set, c2, set.Verifier)
		if !errors.Is(rep.Err(), cert.ErrSignature) {
			t.Fatalf("flipped signature byte: got %v, want ErrSignature", rep.Err())
		}
		for _, mr := range rep.Methods {
			if mr.Err != nil {
				t.Fatalf("signature flip must not fail method checks, %s failed: %v", mr.Method, mr.Err)
			}
		}
	})
	// The signature check runs beside the method loop; with a row byte and
	// a signature byte both flipped the row's class is still what Err
	// reports, and the signature verdict is still filled in behind it.
	t.Run("row+signature", func(t *testing.T) {
		c2 := reDecode(t, c)
		row := c2.Method(string(core.DIJ)).Row(0)
		nonTight(t, readTree(t, g, row), row, hy.IsBorder)
		c2.Sig()[0] ^= 0x01
		rep := cert.Audit(set, c2, set.Verifier)
		if err := rep.Err(); !errors.Is(err, cert.ErrDistance) || errors.Is(err, cert.ErrSignature) {
			t.Fatalf("row and signature flipped: Err() = %v, want the row's ErrDistance first", err)
		}
		if !errors.Is(rep.SigErr, cert.ErrSignature) {
			t.Fatalf("row and signature flipped: SigErr = %v, want ErrSignature", rep.SigErr)
		}
	})
	t.Run("epoch", func(t *testing.T) {
		c2 := reDecode(t, c)
		// The epoch follows magic, version and algorithm in the wire.
		binary.BigEndian.PutUint64(c2.Bytes()[4+1+1:], uint64(c2.Epoch()+1))
		if err := cert.Audit(set, c2, set.Verifier).Err(); !errors.Is(err, cert.ErrEpochMismatch) {
			t.Fatalf("bumped epoch: got %v, want ErrEpochMismatch", err)
		}
	})
	t.Run("coredigest", func(t *testing.T) {
		c2 := reDecode(t, c)
		c2.CoreDigest()[0] ^= 0x01
		if err := cert.Audit(set, c2, set.Verifier).Err(); !errors.Is(err, cert.ErrRowDigest) {
			t.Fatalf("flipped core digest byte: got %v, want ErrRowDigest", err)
		}
	})
	// Last: mutates the shared set, so it runs after every other subtest.
	t.Run("methodmissing", func(t *testing.T) {
		set.RemoveProvider(core.FULL)
		rep := cert.Audit(set, reDecode(t, c), set.Verifier)
		if err := rep.Err(); !errors.Is(err, cert.ErrMethodMissing) {
			t.Fatalf("audit of a set missing FULL: got %v, want ErrMethodMissing", err)
		}
	})
}

// TestAuditSectionCRCTamper covers the fifth field class: a byte flipped
// inside the snapshot file's CERT section surfaces as the container's
// CRC failure when the certificate is read — never a panic, never a
// silently accepted audit.
func TestAuditSectionCRCTamper(t *testing.T) {
	path := filepath.Join(t.TempDir(), "world.spv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	ow, provs := rebuildWorld(t)
	c2, err := ow.Certify(provs...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ow.WriteSnapshotCert(f, c2, provs...); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Locate the CERT section and flip one payload byte.
	sf, err := snapshot.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var info snapshot.SectionInfo
	for _, e := range sf.Sections() {
		if core.SnapshotSectionName(e.Kind) == "cert" {
			info = e
		}
	}
	sf.Close()
	if info.Length == 0 {
		t.Fatal("snapshot has no cert section")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[info.Offset+int64(info.Length)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	open := func() *core.ProviderSet {
		set, err := core.OpenProviderSetLazy(path)
		if err != nil {
			// Some flips land on section framing the open itself validates.
			if !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("open of corrupted snapshot: got %v, want ErrCorrupt", err)
			}
			return nil
		}
		return set
	}
	set := open()
	if set == nil {
		return
	}
	defer set.Close()
	if _, err := set.Certificate(); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("reading corrupted cert section: got %v, want ErrCorrupt", err)
	}
	// The stream route never holds the section, so it learns of the flip
	// only once the last byte has passed — after every method verdict — and
	// must still answer exactly what the read above did, and no report.
	streamed := open()
	defer streamed.Close()
	if rep, err := streamed.AuditCertificate(streamed.Verifier); rep != nil || !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("streamed audit of a corrupted cert section: report %v, err %v; want none, ErrCorrupt", rep, err)
	}
}

// TestAuditRefusesVersion1 writes a snapshot (version 3) whose certificate
// says it is a version-1 wire, the layout with distance and parent-ID
// columns, and whose CRCs hold: the streamed audit of a lazy set refuses
// it, and an eager open, which reads the certificate, fails, each with an
// error that names the version.
func TestAuditRefusesVersion1(t *testing.T) {
	ow, provs := rebuildWorld(t)
	c, err := ow.Certify(provs...)
	if err != nil {
		t.Fatal(err)
	}
	old := reDecode(t, c)
	old.Bytes()[4] = 1 // the version byte, after the magic
	path := filepath.Join(t.TempDir(), "v1.spv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ow.WriteSnapshotCert(f, old, provs...); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	lazy, err := core.OpenProviderSetLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	defer lazy.Close()
	if rep, err := lazy.AuditCertificate(lazy.Verifier); rep != nil || !errors.Is(err, cert.ErrEncoding) || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("streamed audit: report %v, err %v; want none, an ErrEncoding naming version 1", rep, err)
	}
	if _, err := core.OpenProviderSet(path); !errors.Is(err, cert.ErrEncoding) || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("eager open: %v, want an ErrEncoding naming version 1", err)
	}
}

// sliceAt is where one method slice's name field, row count and rows start
// in a certificate wire, its rows' slot size and their count.
type sliceAt struct {
	name, numRows, rows, slot, count int
}

// walkSlices locates every method slice of c's wire.
func walkSlices(t *testing.T, c *cert.Certificate) []sliceAt {
	t.Helper()
	w, size := c.Bytes(), c.Alg().Size()
	u32 := func(off int) int { return int(binary.BigEndian.Uint32(w[off:])) }
	off := 4 + 1 + 1 + 8 + 4 + size
	nm := int(binary.BigEndian.Uint16(w[off:]))
	off += 2
	var out []sliceAt
	for range nm {
		s := sliceAt{name: off}
		off += 4 + u32(off) // name
		off += 4 + u32(off) // aux
		nr := int(binary.BigEndian.Uint16(w[off:]))
		off += 2 + nr*(4+size)
		s.numRows, s.count = off, u32(off)
		off += 4
		s.rows, s.slot = off, 8+2*u32(off+4)+4+size
		off += s.count * s.slot
		out = append(out, s)
	}
	if off+4+len(c.Sig()) != len(w) {
		t.Fatalf("walked %d of %d bytes", off+4+len(c.Sig()), len(w))
	}
	return out
}

// TestAuditReaderRejectsMalformed pins the streaming pass to the
// whole-wire decode: a certificate broken anywhere — cut short, a row or
// node count that lies in a slice past the first, a row whose size
// disagrees with its slice's, a method slice repeated — is rejected as the
// decode rejects it (ErrEncoding, and no report), however many method
// verdicts the stream has produced by the time it gets there, and what a
// lying count claims is never allocated. cert.Audit of the same bytes held
// in memory reports the same class as its Global.
func TestAuditReaderRejectsMalformed(t *testing.T) {
	_, set, c := certWorld(t)
	wire := c.Bytes()
	sl := walkSlices(t, c)
	// What the method audits allocate for their own working state: a clean
	// stream of the same wire.
	stream := func() { cert.AuditReader(set, bytes.NewReader(wire), int64(len(wire)), set.Verifier) }
	stream() // warm the pools
	clean := totalAlloc(stream)
	last := sl[len(sl)-1]
	edit := func(f func(w []byte)) []byte {
		w := bytes.Clone(wire)
		f(w)
		return w
	}
	cases := []struct {
		name string
		w    []byte
		want string
	}{
		{"truncated-mid-rows", wire[:last.rows+last.slot/2], "row length exceeds input"},
		{"truncated-before-sig", wire[:len(wire)-len(c.Sig())], "truncated"},
		{"lying-row-count", edit(func(w []byte) {
			binary.BigEndian.PutUint32(w[last.numRows:], 0xFFFFFFFF)
		}), "row count exceeds input"},
		{"lying-node-count", edit(func(w []byte) {
			binary.BigEndian.PutUint32(w[last.rows+4:], 0x7FFFFFFF)
		}), "row length exceeds input"},
		{"row-size-mid-run", edit(func(w []byte) {
			at := last.rows + (last.count-1)*last.slot + 4
			binary.BigEndian.PutUint32(w[at:], binary.BigEndian.Uint32(w[at:])-1)
		}), fmt.Sprintf("row %d covers", last.count-1)},
		{"duplicate-slice", edit(func(w []byte) {
			// Same-length names: a later slice becomes a second copy of an
			// earlier one whose name is as long.
			for i := 1; i < len(sl); i++ {
				for j := 0; j < i; j++ {
					a, b := w[sl[j].name:sl[j].name+4], w[sl[i].name:sl[i].name+4]
					if bytes.Equal(a, b) {
						n := int(binary.BigEndian.Uint32(a))
						copy(w[sl[i].name+4:sl[i].name+4+n], w[sl[j].name+4:])
						return
					}
				}
			}
			t.Fatal("no two slices with names of one length")
		}), "duplicate method slice"},
		{"trailing-byte", append(bytes.Clone(wire), 0), "1 trailing bytes"},
	}
	for _, tc := range cases {
		w := tc.w
		t.Run(tc.name, func(t *testing.T) {
			if _, err := cert.DecodeCertificate(w); !errors.Is(err, cert.ErrEncoding) {
				t.Fatalf("decode: got %v, want ErrEncoding", err)
			}
			var (
				rep *cert.Report
				err error
			)
			grew := totalAlloc(func() {
				rep, err = cert.AuditReader(set, bytes.NewReader(w), int64(len(w)), set.Verifier)
			})
			if rep != nil || !errors.Is(err, cert.ErrEncoding) {
				t.Fatalf("stream: report %v, err %v; want none, ErrEncoding", rep, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("stream: %v, want it to say %q", err, tc.want)
			}
			// A lying count claims gigabytes; the method audits that run
			// before the stream breaks allocate at most what a clean pass
			// does.
			if grew > 2*clean {
				t.Fatalf("stream rejection allocated %d bytes, a clean stream %d", grew, clean)
			}
			// The same bytes, decoded whole and then edited in place, as
			// the tamper matrix edits them.
			held := reDecode(t, c)
			if len(w) == len(wire) {
				copy(held.Bytes(), w)
				if err := cert.Audit(set, held, set.Verifier).Global; !errors.Is(err, cert.ErrEncoding) {
					t.Fatalf("held: Global %v, want ErrEncoding", err)
				}
			}
		})
	}
	// A stream that delivers fewer bytes than it was declared to hold.
	if rep, err := cert.AuditReader(set, bytes.NewReader(wire[:len(wire)/2]), int64(len(wire)), set.Verifier); rep != nil || !errors.Is(err, cert.ErrEncoding) {
		t.Fatalf("short stream: report %v, err %v; want none, ErrEncoding", rep, err)
	}
	// And the clean wire, streamed, is the held audit's report.
	rep, err := cert.AuditReader(set, bytes.NewReader(wire), int64(len(wire)), set.Verifier)
	if err != nil || rep.Err() != nil {
		t.Fatalf("clean stream: err %v, report %v", err, rep.Err())
	}
	if held := cert.Audit(set, c, set.Verifier); len(rep.Methods) != len(held.Methods) || !slices.Equal(rep.Covered, held.Covered) {
		t.Fatalf("clean stream covered %v, held audit %v", rep.Covered, held.Covered)
	}
}

func totalAlloc(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// rebuildWorld is certWorld without certification or the snapshot
// round-trip: the owner plus its raw providers, for tests that write
// their own files.
func rebuildWorld(t testing.TB) (*core.Owner, []core.Provider) {
	t.Helper()
	g, err := netgen.Synthesize(200, 230, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Landmarks = 4
	cfg.Cells = 9
	owner, err := core.NewOwner(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var provs []core.Provider
	for _, m := range core.RegisteredMethods() {
		p, err := owner.Outsource(m)
		if err != nil {
			t.Fatalf("outsource %s: %v", m, err)
		}
		provs = append(provs, p)
	}
	return owner, provs
}

// refAuditRow is the audit's rule restated without its fold, as the
// differential reference: slot checks over every node, then distances
// derived by repeated relaxation passes down the parent edges until
// nothing moves (at most n passes), then one pass over every directed edge.
// A parented node that no pass gives a finite distance sits on a cycle or
// below a node the source does not reach. Same error classes; it returns
// the distances of a row it accepts.
func refAuditRow(g *graph.CSR, row cert.Row) ([]float64, error) {
	const unreachable = math.MaxFloat64
	n := g.NumNodes()
	if row.N() != n {
		return nil, fmt.Errorf("%w: row labels %d nodes, want %d", cert.ErrEncoding, row.N(), n)
	}
	src := row.Src()
	if src < 0 || int(src) >= n {
		return nil, fmt.Errorf("%w: row source %d out of range", cert.ErrEncoding, src)
	}
	if row.Slot(int(src)) != graph.NoParent {
		return nil, fmt.Errorf("%w: source %d has a parent", cert.ErrParent, src)
	}
	parent := make([]graph.Edge, n) // the parent edge, To = Invalid at none
	for v := range parent {
		parent[v].To = graph.Invalid
		k, adj := row.Slot(v), g.Neighbors(graph.NodeID(v))
		switch {
		case k == graph.NoParent:
		case int(k) >= len(adj):
			return nil, fmt.Errorf("%w: node %d parent slot %d, degree %d", cert.ErrParent, v, k, len(adj))
		default:
			parent[v] = adj[k]
		}
	}
	d, known := make([]float64, n), make([]bool, n)
	d[src], known[src] = 0, true
	for moved := true; moved; {
		moved = false
		for v, e := range parent {
			if e.To != graph.Invalid && known[e.To] && (!known[v] || d[v] != d[e.To]+e.W) {
				d[v], known[v], moved = d[e.To]+e.W, true, true
			}
		}
	}
	for v, e := range parent {
		switch {
		case e.To != graph.Invalid && (!known[v] || d[v] >= unreachable):
			return nil, fmt.Errorf("%w: node %d never reaches the source up its parents", cert.ErrParent, v)
		case !known[v]:
			d[v] = unreachable
		}
	}
	for u, du := range d {
		if du >= unreachable {
			continue
		}
		for _, e := range g.Neighbors(graph.NodeID(u)) {
			v, dv := int(e.To), d[e.To]
			if dv >= unreachable {
				return nil, fmt.Errorf("%w: reachable node %d has no parent", cert.ErrParent, v)
			}
			if duw := du + e.W; dv > duw && !refDistEqual(dv, duw) {
				return nil, fmt.Errorf("%w: triangle violation d[%d]=%g > d[%d]+w=%g",
					cert.ErrDistance, v, dv, u, duw)
			}
		}
	}
	return d, nil
}

// refDistEqual is cert's float tolerance, restated for the reference.
func refDistEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+max(a, b))
}

// slotsOf encodes parents over g as parent slots.
func slotsOf(g *graph.CSR, parent []graph.NodeID) []uint16 {
	slots := make([]uint16, len(parent))
	for v, p := range parent {
		slots[v] = g.ParentSlot(graph.NodeID(v), p)
	}
	return slots
}

// labelRow lays out a one-row certificate over len(slots) nodes from src
// and fills its tree with slots.
func labelRow(tb testing.TB, src graph.NodeID, slots []uint16) cert.Row {
	tb.Helper()
	c, err := cert.New(digest.SHA1, 1, make([]byte, digest.SHA1.Size()), len(slots), 0, []cert.Spec{{Method: "DIJ", Srcs: []graph.NodeID{src}}})
	if err != nil {
		tb.Fatal(err)
	}
	row := c.Methods[0].Row(0)
	for v, k := range slots {
		row.SetSlot(v, k)
	}
	return row
}

// TestAuditRowRejects edits one clean tree of a hand-built graph per case
// and names the class the audit must reject it with — AuditRow and the
// relaxation reference alike. The clean tree's chain 2 → 3 → 4 → 6 runs
// over two zero-weight edges; node 5 is isolated and the edge 7–8 is a
// second component, so all three are unreachable. A slot only ever names
// an edge of its node, so a parent that is no neighbour or out of range
// is a slot at or past the degree, and every parent edge is tight by
// construction: a tree through a longer edge is a triangle violation.
func TestAuditRowRejects(t *testing.T) {
	b := graph.New(9)
	for range 9 {
		b.AddNode(0, 0)
	}
	for _, e := range []struct {
		u, v graph.NodeID
		w    float64
	}{{0, 1, 1}, {1, 2, 2}, {0, 2, 4}, {2, 3, 1}, {1, 3, 5}, {3, 4, 0}, {4, 6, 0}, {7, 8, 1}} {
		b.MustAddEdge(e.u, e.v, e.w)
	}
	g := b.Freeze()
	none := graph.Invalid
	clean := func() []uint16 {
		return slotsOf(g, []graph.NodeID{none, 0, 1, 2, 3, none, 4, none, none})
	}
	want := []float64{0, 1, 3, 4, 4, math.MaxFloat64, 4, math.MaxFloat64, math.MaxFloat64}
	var sc cert.Scratch
	if err := cert.AuditRow(g, labelRow(t, 0, clean()), &sc); err != nil || !slices.Equal(sc.Dists(), want) {
		t.Fatalf("clean row: %v, folded to %v, want %v", err, sc.Dists(), want)
	}
	if d, err := refAuditRow(g, labelRow(t, 0, clean())); err != nil || !slices.Equal(d, want) {
		t.Fatalf("clean row, reference: %v, distances %v", err, d)
	}
	// set makes p x's parent.
	set := func(s []uint16, x, p graph.NodeID) { s[x] = g.ParentSlot(x, p) }
	cases := []struct {
		name string
		edit func(s []uint16)
		want error
	}{
		{"parented source", func(s []uint16) { set(s, 0, 1) }, cert.ErrParent},
		{"unreachable with parent", func(s []uint16) { s[5] = 0 }, cert.ErrParent},
		{"unreachable next to reachable", func(s []uint16) { s[6] = graph.NoParent }, cert.ErrParent},
		{"reachable without parent", func(s []uint16) { s[4] = graph.NoParent }, cert.ErrParent},
		{"parent out of range", func(s []uint16) { s[4] = graph.NoParent - 1 }, cert.ErrParent},
		{"parent not adjacent", func(s []uint16) { s[4] = uint16(g.Degree(4)) }, cert.ErrParent},
		{"two-node parent cycle", func(s []uint16) { set(s, 2, 3) }, cert.ErrParent},
		{"zero-weight parent cycle", func(s []uint16) { set(s, 4, 6) }, cert.ErrParent},
		{"parent across components", func(s []uint16) { set(s, 7, 8) }, cert.ErrParent},
		{"parent edge not tight", func(s []uint16) { set(s, 2, 0) }, cert.ErrDistance},
		{"triangle violation", func(s []uint16) { set(s, 3, 1) }, cert.ErrDistance},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := clean()
			tc.edit(s)
			row := labelRow(t, 0, s)
			_, ref := refAuditRow(g, row)
			for name, err := range map[string]error{
				"AuditRow":    cert.AuditRow(g, row, new(cert.Scratch)),
				"refAuditRow": ref,
			} {
				if !errors.Is(err, tc.want) {
					t.Errorf("%s: got %v, want class %v", name, err, tc.want)
				}
			}
		})
	}
}

// FuzzAuditRow holds AuditRow to the relaxation reference: on small random
// graphs — zero weights and exact ties included — the parents of a
// Dijkstra tree, then one or two slots edited (dropped, moved to another
// neighbour, set at or past the degree, or to any value), must get the
// same verdict from both, and an accepted row the same distances, bit for
// bit.
func FuzzAuditRow(f *testing.F) {
	f.Add([]byte{5, 0, 0, 1, 0, 1, 2, 1, 2, 3, 2, 0, 3, 0})
	f.Add([]byte{6, 1, 0, 1, 0, 1, 2, 0, 2, 0, 0, 3, 4, 3, 1, 2, 7, 9})
	f.Add([]byte{4, 0, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 0, 0, 5, 3, 1, 2, 2})
	weights := []float64{0, 1, 1, 2, 0.5, 3}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 2 + int(data[0])%7
		src := graph.NodeID(int(data[1]) % n)
		data = data[2:]
		b := graph.New(n)
		for range n {
			b.AddNode(0, 0)
		}
		// Edges until a (0, 0) pair ends the list; the rest are edits.
		for len(data) >= 3 {
			u, v, w := int(data[0])%n, int(data[1])%n, weights[int(data[2])%len(weights)]
			data = data[3:]
			if u == v {
				break
			}
			_ = b.AddEdge(graph.NodeID(u), graph.NodeID(v), w) // duplicates refused
		}
		g := b.Freeze()
		tree, _ := sp.DijkstraBounded(g, src, sp.Unreachable)
		s := slotsOf(g, tree.Parent)
		for k := 0; k < 2 && len(data) >= 3; k++ {
			v, what, arg := int(data[0])%n, data[1]%4, int(data[2])
			data = data[3:]
			switch what {
			case 0:
				s[v] = graph.NoParent
			case 1: // a neighbour, or at or just past the degree
				s[v] = uint16(arg % (g.Degree(graph.NodeID(v)) + 2))
			case 2:
				s[v] = uint16(arg * 257)
			case 3: // v and a neighbour each other's parent
				if adj := g.Neighbors(graph.NodeID(v)); len(adj) > 0 {
					u := adj[arg%len(adj)].To
					s[v], s[u] = g.ParentSlot(graph.NodeID(v), u), g.ParentSlot(u, graph.NodeID(v))
				}
			}
		}
		row := labelRow(t, src, s)
		var sc cert.Scratch
		got := cert.AuditRow(g, row, &sc)
		d, want := refAuditRow(g, row)
		if (got == nil) != (want == nil) {
			t.Fatalf("AuditRow: %v, reference: %v (slots %v)", got, want, s)
		}
		if got == nil && !slices.EqualFunc(sc.Dists(), d, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("AuditRow folded %v, reference %v (slots %v)", sc.Dists(), d, s)
		}
	})
}

// BenchmarkAuditRow audits one HYP border's tree row of the repository
// benchmark's world (DE at scale 0.25, 7,217 nodes, the default 100
// cells): the unit of an audited replica's boot, 663 of which it checks.
func BenchmarkAuditRow(b *testing.B) {
	bg, err := netgen.Generate(netgen.DE, netgen.Config{Scale: 0.25, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	g := bg.Freeze()
	hy, err := hiti.Build(g, core.DefaultConfig().Cells)
	if err != nil {
		b.Fatal(err)
	}
	src := hy.Borders[len(hy.Borders)/2]
	tree, _ := sp.DijkstraBounded(g, src, sp.Unreachable)
	row := labelRow(b, src, slotsOf(g, tree.Parent))
	var sc cert.Scratch
	if err := cert.AuditRow(g, row, &sc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cert.AuditRow(g, row, &sc); err != nil {
			b.Fatal(err)
		}
	}
}
