package serve

import (
	"bytes"
	"crypto/rand"
	"errors"
	"testing"

	"github.com/authhints/spv/internal/cert"
	"github.com/authhints/spv/internal/core"
	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/netgen"
	"github.com/authhints/spv/internal/sig"
	"github.com/authhints/spv/internal/workload"
)

// TestCertificateMetamorphic pins the relation between the two trust
// paths a replica has: the whole-snapshot certificate audit and per-query
// proof verification. For a correctly certified deployment both must
// accept — before AND after an ApplyUpdates round (the deployment
// re-issues its certificate per epoch) — and a stale certificate must be
// rejected by the audit even though every per-query proof still verifies,
// because the certificate is epoch-bound while proofs are self-contained.
func TestCertificateMetamorphic(t *testing.T) {
	g, err := netgen.Synthesize(220, 250, 9)
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
	dep, err := NewDeployment(owner, Options{}, core.RegisteredMethods()...)
	if err != nil {
		t.Fatal(err)
	}
	preCert, err := dep.Certify()
	if err != nil {
		t.Fatal(err)
	}
	qs, err := workload.Generate(g, 64, 2000, 5)
	if err != nil {
		t.Fatal(err)
	}

	// check snapshots the deployment, audits the loaded set against c, and
	// cross-checks the verdict against 64 sampled per-query verifications
	// per method: certificate-accepted ⇔ every sampled proof verifies.
	check := func(phase string, c *cert.Certificate) *core.ProviderSet {
		t.Helper()
		var buf bytes.Buffer
		if _, err := dep.Save(&buf); err != nil {
			t.Fatalf("%s: save: %v", phase, err)
		}
		set, err := core.ReadProviderSet(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatalf("%s: load: %v", phase, err)
		}
		auditOK := cert.Audit(set, c, set.Verifier).OK()
		proofsOK := true
		for _, m := range set.Methods() {
			p := set.Provider(m)
			for _, q := range qs {
				pr, err := p.QueryProof(q.S, q.T)
				if err != nil {
					t.Fatalf("%s: %s query (%d,%d): %v", phase, m, q.S, q.T, err)
				}
				rt, _, err := core.DecodeProof(m, pr.AppendBinary(nil))
				if err != nil {
					t.Fatalf("%s: %s decode: %v", phase, m, err)
				}
				if core.VerifyProof(set.Verifier, m, q.S, q.T, rt) != nil {
					proofsOK = false
				}
			}
		}
		if auditOK != proofsOK {
			t.Fatalf("%s: audit verdict %v disagrees with sampled proof verification %v", phase, auditOK, proofsOK)
		}
		if !auditOK {
			t.Fatalf("%s: certified deployment failed both trust paths", phase)
		}
		return set
	}

	check("pre-update", preCert)

	// Re-weight the first edge of two fixed nodes; the deployment patches
	// every provider and — because a certificate is held — re-issues it at
	// the new epoch.
	var ups []core.EdgeUpdate
	for _, u := range []graph.NodeID{1, 50} {
		e := g.Neighbors(u)[0]
		ups = append(ups, core.EdgeUpdate{U: u, V: e.To, W: e.W * 1.25})
	}
	sum, err := dep.ApplyUpdates(ups)
	if err != nil {
		t.Fatal(err)
	}
	postCert := dep.Certificate()
	if postCert == nil || postCert.Epoch() != sum.Epoch {
		t.Fatalf("ApplyUpdates did not re-issue the certificate at epoch %d", sum.Epoch)
	}
	if postCert.Epoch() == preCert.Epoch() {
		t.Fatal("post-update certificate kept the pre-update epoch")
	}

	postSet := check("post-update", postCert)

	// The stale pre-update certificate: every sampled proof of the
	// post-update snapshot verifies (check just proved it), but the audit
	// must reject on epoch — whole-snapshot assurance is per-epoch.
	if err := cert.Audit(postSet, preCert, postSet.Verifier).Err(); !errors.Is(err, cert.ErrEpochMismatch) {
		t.Fatalf("stale certificate: got %v, want ErrEpochMismatch", err)
	}
}

// TestLoadDeploymentAdoptsCertificate pins certificate continuity across
// a process restart: a deployment loaded from a certified snapshot keeps
// re-issuing per epoch, so its next save is audit-clean too.
func TestLoadDeploymentAdoptsCertificate(t *testing.T) {
	g, err := netgen.Synthesize(160, 180, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Landmarks = 4
	cfg.Cells = 9
	signer, err := sig.GenerateKey(rand.Reader, cfg.RSABits)
	if err != nil {
		t.Fatal(err)
	}
	owner, err := core.NewOwnerWithSigner(g, cfg, signer)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := NewDeployment(owner, Options{}, core.DIJ, core.LDM)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Certify(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := dep.Save(&buf); err != nil {
		t.Fatal(err)
	}

	dep2, err := LoadDeployment(bytes.NewReader(buf.Bytes()), int64(buf.Len()), signer, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dep2.Certificate() == nil {
		t.Fatal("loaded deployment did not adopt the snapshot's certificate")
	}
	// An update after restart re-issues; the next save must audit clean.
	e := dep2.Owner().Graph().Neighbors(2)[0]
	if _, err := dep2.ApplyUpdates([]core.EdgeUpdate{{U: 2, V: e.To, W: e.W * 1.5}}); err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if _, err := dep2.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	set, err := core.ReadProviderSet(bytes.NewReader(buf2.Bytes()), int64(buf2.Len()))
	if err != nil {
		t.Fatal(err)
	}
	c, err := set.Certificate()
	if err != nil || c == nil {
		t.Fatalf("restarted deployment's save lost the certificate (err %v)", err)
	}
	if err := cert.Audit(set, c, set.Verifier).Err(); err != nil {
		t.Fatalf("post-restart audit rejected: %v", err)
	}
}
