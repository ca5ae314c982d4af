package core

import (
	"bytes"
	cryptorand "crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/netgen"
	"github.com/authhints/spv/internal/sig"
	"github.com/authhints/spv/internal/workload"
)

// TestGoldenByteCompat pins the system's complete byte-level output —
// proof wire encodings, signed roots and snapshot files, for all four
// methods, before and after an ApplyUpdates round — against fixtures
// generated at the pre-registry-refactor commit. Any refactor of the
// method dispatch spine must keep every digest here bit-identical:
// wire encodings are what clients verify and caches key on, snapshot
// bytes are what replicas rsync, and signatures bind both to the
// owner's key.
//
// Regenerate (only when the formats intentionally change) with:
//
//	go test ./internal/core -run TestGoldenByteCompat -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden byte-compat fixtures")

// goldenKeyFile pins the owner RSA key: RSA-PKCS1v15 signing is
// deterministic for a fixed key, so everything downstream is too.
const (
	goldenKeyFile = "testdata/golden_owner_key.pem"
	goldenFile    = "testdata/golden_bytes.json"
)

func goldenWorld(t testing.TB) (*Owner, []workload.Query, []EdgeUpdate) {
	t.Helper()
	g, err := netgen.Synthesize(400, 430, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Landmarks = 8
	cfg.Cells = 25
	keyPEM, err := os.ReadFile(goldenKeyFile)
	if os.IsNotExist(err) && *updateGolden {
		signer, gerr := sig.GenerateKey(cryptorand.Reader, cfg.RSABits)
		if gerr != nil {
			t.Fatal(gerr)
		}
		if werr := os.MkdirAll(filepath.Dir(goldenKeyFile), 0o755); werr != nil {
			t.Fatal(werr)
		}
		if werr := os.WriteFile(goldenKeyFile, signer.MarshalPEM(), 0o600); werr != nil {
			t.Fatal(werr)
		}
		keyPEM, err = os.ReadFile(goldenKeyFile)
	}
	if err != nil {
		t.Fatal(err)
	}
	signer, err := sig.ParseSignerPEM(keyPEM)
	if err != nil {
		t.Fatal(err)
	}
	owner, err := NewOwnerWithSigner(g, cfg, signer)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := workload.Generate(g, 6, 1500, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Two deterministic re-weightings: the first edges of two fixed nodes,
	// scaled so both distance rows and quantization actually move.
	var ups []EdgeUpdate
	for _, u := range []graph.NodeID{1, 50} {
		e := g.Neighbors(u)[0]
		ups = append(ups, EdgeUpdate{U: u, V: e.To, W: e.W * 1.25})
	}
	return owner, qs, ups
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func TestGoldenByteCompat(t *testing.T) {
	if testing.Short() {
		t.Skip("golden byte-compat world is slow; run without -short")
	}
	owner, qs, ups := goldenWorld(t)
	got := map[string]string{}

	// Everything below goes through the method registry — the same
	// dispatch spine the serving layer, deployments and snapshots use —
	// so a registry-path byte regression cannot hide behind the typed
	// constructors. (Fixtures were generated through the pre-registry
	// typed API; identical digests ARE the refactor's acceptance proof.)
	provs := map[Method]Provider{}
	for _, m := range RegisteredMethods() {
		p, err := owner.Outsource(m)
		if err != nil {
			t.Fatalf("outsource %s: %v", m, err)
		}
		provs[m] = p
	}
	record := func(phase string) {
		var all []Provider
		for _, m := range RegisteredMethods() {
			p := provs[m]
			all = append(all, p)
			for i, q := range qs {
				pr, err := p.QueryProof(q.S, q.T)
				if err != nil {
					t.Fatalf("%s query %d: %v", m, i, err)
				}
				got[fmt.Sprintf("%s/proof/%s/%d", phase, m, i)] = sha(pr.AppendBinary(nil))
			}
		}
		got[phase+"/sig/DIJ/root"] = sha(provs[DIJ].(*DIJProvider).rootSig)
		got[phase+"/sig/FULL/net"] = sha(provs[FULL].(*FULLProvider).netSig)
		got[phase+"/sig/FULL/dist"] = sha(provs[FULL].(*FULLProvider).distSig)
		got[phase+"/sig/LDM/root"] = sha(provs[LDM].(*LDMProvider).rootSig)
		got[phase+"/sig/HYP/net"] = sha(provs[HYP].(*HYPProvider).netSig)
		got[phase+"/sig/HYP/dist"] = sha(provs[HYP].(*HYPProvider).distSig)
		// The certificate wire is canonical and PKCS#1 v1.5 signatures are
		// deterministic, so its digest pins the whole Certify path per epoch.
		c, err := owner.Certify(all...)
		if err != nil {
			t.Fatalf("%s certify: %v", phase, err)
		}
		got[phase+"/cert"] = sha(c.Bytes())
		var buf bytes.Buffer
		if _, err := owner.WriteSnapshot(&buf, all...); err != nil {
			t.Fatalf("%s snapshot: %v", phase, err)
		}
		got[phase+"/snapshot"] = sha(buf.Bytes())
	}

	record("pre")

	batch, err := owner.ApplyUpdates(ups)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range RegisteredMethods() {
		p, _, err := batch.Patch(provs[m])
		if err != nil {
			t.Fatalf("patch %s: %v", m, err)
		}
		provs[m] = p
	}
	record("post-update")

	if *updateGolden {
		enc, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(enc, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d digests)", goldenFile, len(got))
		return
	}

	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("missing golden fixtures (run with -update-golden to create): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] == "" {
			t.Errorf("%s: missing from this run", k)
		} else if got[k] != want[k] {
			t.Errorf("%s: bytes diverged from pre-refactor fixture\n got %s\nwant %s", k, got[k], want[k])
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: not in fixture (world drifted?)", k)
		}
	}
}
