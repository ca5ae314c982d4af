package core

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/authhints/spv/internal/cert"
	"github.com/authhints/spv/internal/graph"
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
