package spv_test

import (
	"errors"
	"path/filepath"
	"testing"

	spv "github.com/authhints/spv"
)

// TestPublicAPIEndToEnd drives the whole workflow through the public facade
// only, as a downstream user would.
func TestPublicAPIEndToEnd(t *testing.T) {
	g, err := spv.GenerateNetwork(spv.DE, spv.NetworkConfig{Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	cfg := spv.DefaultConfig()
	cfg.Landmarks = 8
	cfg.Cells = 16
	owner, err := spv.NewOwner(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := spv.GenerateWorkload(g, 3, 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	pub := owner.Verifier()

	provs := map[spv.Method]spv.Provider{}
	for _, m := range spv.Methods() {
		if provs[m], err = owner.Outsource(m); err != nil {
			t.Fatal(err)
		}
	}

	for _, q := range queries {
		oracle, _ := spv.ShortestPath(g, q.S, q.T)
		for _, m := range spv.Methods() {
			pr, err := provs[m].QueryProof(q.S, q.T)
			if err != nil {
				t.Fatal(err)
			}
			if err := spv.VerifyProof(pub, m, q.S, q.T, pr); err != nil {
				t.Errorf("%s: %v", m, err)
			}
			if _, dist := pr.Result(); dist != oracle {
				t.Errorf("%s reported distance %v, oracle %v", m, dist, oracle)
			}
		}

		// Tampering is detected through the facade too; the typed proof
		// aliases are what a caller asserts to reach a proof's fields.
		pr, _ := provs[spv.DIJ].QueryProof(q.S, q.T)
		pr.(*spv.DIJProof).Dist *= 1.5
		if err := spv.VerifyProof(pub, spv.DIJ, q.S, q.T, pr); !errors.Is(err, spv.ErrRejected) {
			t.Error("tampered proof accepted via facade")
		}
	}
}

func TestPublicConstantsCoherent(t *testing.T) {
	if len(spv.Methods()) != 4 {
		t.Error("expected 4 methods")
	}
	if len(spv.Datasets()) != 4 {
		t.Error("expected 4 datasets")
	}
	cfg := spv.DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if cfg.Ordering != spv.OrderHilbert {
		t.Error("default ordering should be Hilbert")
	}
	if cfg.Hash != spv.SHA1 {
		t.Error("default hash should be SHA-1 (paper cost model)")
	}
	if cfg.Strategy != spv.LandmarksFarthest {
		t.Error("default landmark strategy should be farthest")
	}
}

// TestPublicAuditSnapshot audits a saved deployment's file through the
// facade: the certificate streams from the file through the audit, every
// certified method passes, and a file saved without one is refused.
func TestPublicAuditSnapshot(t *testing.T) {
	g, err := spv.GenerateNetwork(spv.DE, spv.NetworkConfig{Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	cfg := spv.DefaultConfig()
	cfg.Landmarks = 8
	cfg.Cells = 16
	owner, err := spv.NewOwner(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := spv.NewDeployment(owner, spv.ServeOptions{}, spv.DIJ, spv.LDM, spv.HYP)
	if err != nil {
		t.Fatal(err)
	}
	plain := filepath.Join(t.TempDir(), "plain.spv")
	if _, err := spv.SaveSnapshot(plain, dep); err != nil {
		t.Fatal(err)
	}
	if _, err := spv.AuditSnapshot(plain); err == nil {
		t.Fatal("audit of a snapshot without a certificate passed")
	}
	if _, err := dep.Certify(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "certified.spv")
	if _, err := spv.SaveSnapshot(path, dep); err != nil {
		t.Fatal(err)
	}
	rep, err := spv.AuditSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil || len(rep.Methods) != 3 || len(rep.Covered) != 3 {
		t.Fatalf("audit: %v, %d verdicts, covered %v", err, len(rep.Methods), rep.Covered)
	}
}
