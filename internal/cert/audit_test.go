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

// tamperIndex picks a reachable non-source LEAF of the parent forest —
// finite nonzero distance, parent set, no children. A flipped source
// distance could alias -0, an unreachable node has no parent edge to
// falsify, and inflating an interior node's distance would trip the
// tightness check at its children (ErrParent) before any triangle check,
// blurring the distance class.
func tamperIndex(t *testing.T, r cert.Row) int {
	t.Helper()
	isParent := make([]bool, r.N())
	for v := range isParent {
		if p := r.Parent(v); p != graph.Invalid {
			isParent[p] = true
		}
	}
	for v := range isParent {
		if graph.NodeID(v) != r.Src() && r.Parent(v) != graph.Invalid &&
			!isParent[v] && r.Dist(v) > 0 && r.Dist(v) < math.MaxFloat64 {
			return v
		}
	}
	t.Fatal("row has no tamperable node")
	return -1
}

// inflate flips one clear exponent bit of the distance's IEEE-754 wire
// encoding — a single-bit corruption of one on-wire byte that strictly
// increases the value, so the triangle check (not the parent-tightness
// check) is deterministically the first to fire.
func inflate(d float64) float64 {
	bits := math.Float64bits(d)
	for b := 62; b >= 52; b-- {
		if bits&(1<<b) == 0 {
			return math.Float64frombits(bits | 1<<b)
		}
	}
	return math.Float64frombits(bits &^ (1 << 52))
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

	classes := []struct {
		name   string
		tamper func(r cert.Row, idx int)
		want   error
	}{
		{"distance", func(r cert.Row, idx int) { r.SetDist(idx, inflate(r.Dist(idx))) }, cert.ErrDistance},
		{"parent", func(r cert.Row, idx int) { r.SetParent(idx, r.Parent(idx)^0x40000000) }, cert.ErrParent},
		{"rowdigest", func(r cert.Row, idx int) { r.Digest()[0] ^= 0x01 }, cert.ErrRowDigest},
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
				tc.tamper(row, tamperIndex(t, row))
				rep := cert.Audit(set, c2, set.Verifier)
				err := rep.Err()
				if err == nil {
					t.Fatalf("audit accepted a tampered %s %s", m, tc.name)
				}
				if !errors.Is(err, tc.want) {
					t.Fatalf("tampered %s %s: got %v, want class %v", m, tc.name, err, tc.want)
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
		idx := tamperIndex(t, row)
		row.SetDist(idx, inflate(row.Dist(idx)))
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
		s.rows, s.slot = off, 8+12*u32(off+4)+4+size
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
			// before the stream breaks allocate about the wire's size here.
			if grew > 4*uint64(len(wire)) {
				t.Fatalf("stream rejection allocated %d bytes for a %d-byte certificate", grew, len(wire))
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

// refAuditRow is the multi-pass AuditRow the one-sweep version replaced,
// kept as the differential reference: node checks over every label, then
// one pass over every directed edge (triangle, and tightness where
// parent[v] = u), then a parent-coverage pass and an unconditional
// parent-forest walk. Same error classes and messages.
func refAuditRow(g *graph.CSR, row cert.Row) error {
	const unreachable = math.MaxFloat64
	n := g.NumNodes()
	if row.N() != n {
		return fmt.Errorf("%w: row labels %d nodes, want %d", cert.ErrEncoding, row.N(), n)
	}
	src := row.Src()
	if src < 0 || int(src) >= n {
		return fmt.Errorf("%w: row source %d out of range", cert.ErrEncoding, src)
	}
	d, p := make([]float64, n), make([]graph.NodeID, n)
	for v := range d {
		d[v], p[v] = row.Dist(v), row.Parent(v)
	}
	if d0 := d[src]; d0 != 0 {
		return fmt.Errorf("%w: d[src=%d] = %g, want 0", cert.ErrDistance, src, d0)
	}
	if p0 := p[src]; p0 != graph.Invalid {
		return fmt.Errorf("%w: source %d has parent %d", cert.ErrParent, src, p0)
	}
	for v, dv := range d {
		if math.IsNaN(dv) || dv < 0 {
			return fmt.Errorf("%w: d[%d] = %g", cert.ErrDistance, v, dv)
		}
		pv := p[v]
		if dv >= unreachable {
			if pv != graph.Invalid {
				return fmt.Errorf("%w: unreachable node %d has parent %d", cert.ErrParent, v, pv)
			}
			continue
		}
		if graph.NodeID(v) == src {
			continue
		}
		if pv == graph.Invalid {
			return fmt.Errorf("%w: reachable node %d has no parent", cert.ErrParent, v)
		}
		if pv < 0 || int(pv) >= n {
			return fmt.Errorf("%w: node %d parent %d out of range", cert.ErrParent, v, pv)
		}
	}
	seen := make([]bool, n)
	for u, du := range d {
		uReach := du < unreachable
		for _, e := range g.Neighbors(graph.NodeID(u)) {
			v := int(e.To)
			dv := d[v]
			if uReach {
				duw := du + e.W
				if dv > duw && !refDistEqual(dv, duw) {
					return fmt.Errorf("%w: triangle violation d[%d]=%g > d[%d]+w=%g",
						cert.ErrDistance, v, dv, u, duw)
				}
			}
			if p[v] == graph.NodeID(u) {
				if !uReach {
					return fmt.Errorf("%w: node %d parented to unreachable %d", cert.ErrParent, v, u)
				}
				if !refDistEqual(dv, du+e.W) {
					return fmt.Errorf("%w: parent edge (%d,%d) not tight: d[%d]=%g, d[%d]+w=%g",
						cert.ErrParent, u, v, v, dv, u, du+e.W)
				}
				seen[v] = true
			}
		}
	}
	for v, dv := range d {
		if graph.NodeID(v) == src || dv >= unreachable {
			continue
		}
		if !seen[v] {
			return fmt.Errorf("%w: parent edge (%d,%d) is not in the graph", cert.ErrParent, p[v], v)
		}
	}
	state := make([]uint8, n) // 0 unvisited, 1 on path, 2 done
	for v := range p {
		if state[v] != 0 {
			continue
		}
		x := graph.NodeID(v)
		for {
			state[x] = 1
			nxt := p[x]
			if nxt == graph.Invalid || state[nxt] == 2 {
				break
			}
			if state[nxt] == 1 {
				return fmt.Errorf("%w: parent cycle through node %d", cert.ErrParent, nxt)
			}
			x = nxt
		}
		x = graph.NodeID(v)
		for state[x] == 1 {
			state[x] = 2
			if x = p[x]; x == graph.Invalid {
				break
			}
		}
	}
	return nil
}

// refDistEqual is cert's float tolerance, restated for the reference.
func refDistEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+max(a, b))
}

// labelRow lays out a one-row certificate over n nodes from src and fills
// it with dist and parent.
func labelRow(tb testing.TB, src graph.NodeID, dist []float64, parent []graph.NodeID) cert.Row {
	tb.Helper()
	c, err := cert.New(digest.SHA1, 1, make([]byte, digest.SHA1.Size()), len(dist), 0, []cert.Spec{{Method: "DIJ", Srcs: []graph.NodeID{src}}})
	if err != nil {
		tb.Fatal(err)
	}
	row := c.Methods[0].Row(0)
	for v := range dist {
		row.SetDist(v, dist[v])
		row.SetParent(v, parent[v])
	}
	return row
}

// TestAuditRowRejects edits one clean labelling of a hand-built graph per
// case and names the class the audit must reject it with — the one-sweep
// AuditRow and the multi-pass reference alike. The clean row's parent
// chain 2 → 3 → 4 → 6 runs over two zero-weight edges, so it takes the
// parent-forest walk; node 5 is isolated, hence unreachable.
func TestAuditRowRejects(t *testing.T) {
	b := graph.New(7)
	for range 7 {
		b.AddNode(0, 0)
	}
	for _, e := range []struct {
		u, v graph.NodeID
		w    float64
	}{{0, 1, 1}, {1, 2, 2}, {0, 2, 4}, {2, 3, 1}, {3, 4, 0}, {4, 6, 0}} {
		b.MustAddEdge(e.u, e.v, e.w)
	}
	g := b.Freeze()
	inf := math.MaxFloat64
	clean := func() ([]float64, []graph.NodeID) {
		return []float64{0, 1, 3, 4, 4, inf, 4},
			[]graph.NodeID{graph.Invalid, 0, 1, 2, 3, graph.Invalid, 4}
	}
	if d, p := clean(); cert.AuditRow(g, labelRow(t, 0, d, p), new(cert.Scratch)) != nil ||
		refAuditRow(g, labelRow(t, 0, d, p)) != nil {
		t.Fatal("clean row rejected")
	}
	cases := []struct {
		name string
		edit func(d []float64, p []graph.NodeID)
		want error
	}{
		{"source distance", func(d []float64, p []graph.NodeID) { d[0] = 0.5 }, cert.ErrDistance},
		{"parented source", func(d []float64, p []graph.NodeID) { p[0] = 1 }, cert.ErrParent},
		{"NaN distance", func(d []float64, p []graph.NodeID) { d[2] = math.NaN() }, cert.ErrDistance},
		{"negative distance", func(d []float64, p []graph.NodeID) { d[3] = -1 }, cert.ErrDistance},
		{"unreachable with parent", func(d []float64, p []graph.NodeID) { p[5] = 4 }, cert.ErrParent},
		{"unreachable next to reachable", func(d []float64, p []graph.NodeID) {
			d[6], p[6] = inf, graph.Invalid
		}, cert.ErrDistance},
		{"reachable without parent", func(d []float64, p []graph.NodeID) { p[4] = graph.Invalid }, cert.ErrParent},
		{"parent out of range", func(d []float64, p []graph.NodeID) { p[4] = 99 }, cert.ErrParent},
		{"parent not adjacent", func(d []float64, p []graph.NodeID) { p[4] = 1 }, cert.ErrParent},
		{"parent edge not tight", func(d []float64, p []graph.NodeID) { p[2] = 0 }, cert.ErrParent},
		{"triangle violation", func(d []float64, p []graph.NodeID) { d[2] = 3.5 }, cert.ErrDistance},
		{"zero-weight parent cycle", func(d []float64, p []graph.NodeID) { p[4] = 6 }, cert.ErrParent},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, p := clean()
			tc.edit(d, p)
			row := labelRow(t, 0, d, p)
			for name, err := range map[string]error{
				"AuditRow":    cert.AuditRow(g, row, new(cert.Scratch)),
				"refAuditRow": refAuditRow(g, row),
			} {
				if !errors.Is(err, tc.want) {
					t.Errorf("%s: got %v, want class %v", name, err, tc.want)
				}
			}
		})
	}
}

// FuzzAuditRow holds the one-sweep AuditRow to the multi-pass reference:
// on small random graphs — zero weights and exact ties included — labelled
// by Dijkstra and then edited once or twice, both must give the same
// accept/reject verdict.
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
		d, p := tree.Dist, tree.Parent
		values := []float64{0, 1, 2, 0.5, -1, math.NaN(), math.MaxFloat64, math.Inf(1)}
		for k := 0; k < 2 && len(data) >= 3; k++ {
			v, what, arg := int(data[0])%n, data[1]%4, int(data[2])
			data = data[3:]
			switch what {
			case 0: // another node's distance
				d[v] = d[arg%n]
			case 1:
				d[v] = values[arg%len(values)]
			case 2: // any node, none, or out of range
				p[v] = graph.NodeID(arg%(n+2)) - 1
				if int(p[v]) == n {
					p[v] = graph.NodeID(n + arg)
				}
			case 3: // a neighbour as parent, distance made tight
				if adj := g.Neighbors(graph.NodeID(v)); len(adj) > 0 {
					e := adj[arg%len(adj)]
					p[v], d[v] = e.To, d[e.To]+e.W
				}
			}
		}
		row := labelRow(t, src, d, p)
		got := cert.AuditRow(g, row, new(cert.Scratch))
		want := refAuditRow(g, row)
		if (got == nil) != (want == nil) {
			t.Fatalf("AuditRow: %v, reference: %v (d %v, p %v)", got, want, d, p)
		}
	})
}

// BenchmarkAuditRow audits one HYP border's labelling row of the
// repository benchmark's world (DE at scale 0.25, 7,217 nodes, the default
// 100 cells): the unit of an audited replica's boot, 663 of which it
// checks.
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
	row := labelRow(b, src, tree.Dist, tree.Parent)
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
