package core

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/authhints/spv/internal/cert"
	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/sp"
)

// TestLDMRowOneUlpRejected holds a stored landmark row to the distances
// its certified tree folds to bit for bit: the fold repeats the additions
// the search that built the row made, so one ulp is a different row.
func TestLDMRowOneUlpRejected(t *testing.T) {
	owner, _, _, ldm, _ := snapshotWorld(t, 100, 140)
	c, err := owner.Certify(ldm)
	if err != nil {
		t.Fatal(err)
	}
	row := ldm.hints.Dists[0]
	x := len(row) - 1
	for row[x] == 0 || row[x] == math.MaxFloat64 {
		x--
	}
	row[x] = math.Nextafter(row[x], math.Inf(1))
	var buf bytes.Buffer
	if _, err := owner.WriteSnapshotCert(&buf, c, ldm); err != nil {
		t.Fatal(err)
	}
	set, err := readSet(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := set.AuditCertificate(set.Verifier)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); !errors.Is(err, cert.ErrDistance) || !strings.Contains(err.Error(), "stored landmark row 0") {
		t.Fatalf("a landmark row one ulp off: audit gave %v, want ErrDistance on the stored row", err)
	}
}

// TestCertifyRefusesUnaddressableDegree: a parent slot is a uint16 index
// into the node's adjacency, so Certify refuses a network with a node of
// more than graph.NoParent neighbours, and names the node.
func TestCertifyRefusesUnaddressableDegree(t *testing.T) {
	b := graph.New(graph.NoParent + 2)
	hub := b.AddNode(0, 0)
	for i := range graph.NoParent + 1 {
		b.MustAddEdge(hub, b.AddNode(float64(i%256), float64(i/256)), 1)
	}
	owner, err := NewOwner(b, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dij, err := owner.Outsource(DIJ)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.Certify(dij); err == nil || !strings.Contains(err.Error(), "node 0 has 65536 neighbours") {
		t.Fatalf("certify over a node of degree %d: %v, want a refusal naming node 0", graph.NoParent+1, err)
	}
}

// certifiedWorlds are the worlds a certificate issued with its providers
// is held to Certify on: the golden fixtures' world and, unless -short,
// the benchmark's (the churn stream's network before any update).
func certifiedWorlds(t *testing.T) map[string]*Owner {
	golden, _, _ := goldenWorld(t)
	worlds := map[string]*Owner{"golden": golden}
	if !testing.Short() {
		g, _ := updateStream(t, 0)
		owner, err := NewOwner(g, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		worlds["benchmark"] = owner
	}
	return worlds
}

// TestOutsourceCertifiedMatchesCertify: a certificate issued with the
// providers, its landmark and border rows written from the outsourcing
// searches, is byte for byte the one Certify issues over the same
// providers — for DIJ, LDM and HYP together and each alone.
func TestOutsourceCertifiedMatchesCertify(t *testing.T) {
	for name, owner := range certifiedWorlds(t) {
		for _, ms := range [][]Method{{DIJ, LDM, HYP}, {DIJ}, {LDM}, {HYP}} {
			provs, c, _, err := owner.OutsourceCertified(ms...)
			if err != nil {
				t.Fatalf("%s %v: %v", name, ms, err)
			}
			want, err := owner.Certify(provs...)
			if err != nil {
				t.Fatalf("%s %v: %v", name, ms, err)
			}
			if !bytes.Equal(c.Bytes(), want.Bytes()) {
				t.Fatalf("%s %v: the certificate issued with the providers differs from Certify's over them", name, ms)
			}
		}
	}
}

// TestOutsourceCertifiedSearchesEachSourceOnce counts full-row searches
// (sp.FullRows): a certificate issued with HYP's provider costs one
// search per border, the build's — outsourcing and then Certify cost two
// — and one issued with DIJ, LDM and HYP searches only DIJ's canonical
// source (unless a landmark or border is that source) beyond the builds'
// landmark and border searches.
func TestOutsourceCertifiedSearchesEachSourceOnce(t *testing.T) {
	owner, _, _ := goldenWorld(t)
	searches := func(f func()) int64 {
		before := sp.FullRows()
		f()
		return sp.FullRows() - before
	}
	var c *cert.Certificate
	var err error
	got := searches(func() { _, c, _, err = owner.OutsourceCertified(HYP) })
	if err != nil {
		t.Fatal(err)
	}
	borders := c.Method(string(HYP)).NumRows()
	if got != int64(borders) {
		t.Fatalf("issued with HYP's provider: %d full-row searches for %d borders", got, borders)
	}
	got = searches(func() {
		var hyp Provider
		if hyp, err = owner.Outsource(HYP); err == nil {
			_, err = owner.Certify(hyp)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2*int64(borders) {
		t.Fatalf("HYP outsourced, then certified: %d full-row searches, want %d", got, 2*borders)
	}

	got = searches(func() { _, c, _, err = owner.OutsourceCertified(DIJ, LDM, HYP) })
	if err != nil {
		t.Fatal(err)
	}
	built := map[graph.NodeID]bool{}
	want := int64(0)
	for _, m := range []Method{LDM, HYP} {
		mc := c.Method(string(m))
		for i := range mc.NumRows() {
			built[mc.Row(i).Src()] = true
			want++
		}
	}
	if !built[c.Method(string(DIJ)).Row(0).Src()] {
		want++
	}
	if got != want {
		t.Fatalf("issued with DIJ, LDM and HYP: %d full-row searches, want %d", got, want)
	}
}
