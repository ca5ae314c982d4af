package serve

import (
	"bytes"
	"crypto/rand"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/authhints/spv/internal/core"
	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/netgen"
	"github.com/authhints/spv/internal/sig"
	"github.com/authhints/spv/internal/workload"
)

// snapWorld builds a deployment over a small deterministic network with a
// persisted owner key.
func snapWorld(t *testing.T, seed int64) (*Deployment, *sig.Signer, *graph.Graph) {
	t.Helper()
	g, err := netgen.Synthesize(150, 200, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Landmarks = 5
	cfg.Cells = 16
	signer, err := sig.GenerateKey(rand.Reader, cfg.RSABits)
	if err != nil {
		t.Fatal(err)
	}
	owner, err := core.NewOwnerWithSigner(g, cfg, signer)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := NewDeployment(owner, Options{}, core.DIJ, core.LDM, core.HYP)
	if err != nil {
		t.Fatal(err)
	}
	return dep, signer, g
}

// sampleUpdates picks deterministic edge re-weightings.
func sampleUpdates(g *graph.Graph, factor float64) []core.EdgeUpdate {
	var ups []core.EdgeUpdate
	for v := 0; v < g.NumNodes() && len(ups) < 3; v += 37 {
		for _, e := range g.Neighbors(graph.NodeID(v)) {
			if e.To > graph.NodeID(v) {
				ups = append(ups, core.EdgeUpdate{U: graph.NodeID(v), V: e.To, W: e.W * factor})
				break
			}
		}
	}
	return ups
}

func engineProofs(t *testing.T, e *Engine, qs []workload.Query, methods []core.Method) [][]byte {
	t.Helper()
	var out [][]byte
	for _, m := range methods {
		for _, q := range qs {
			a, err := e.Query(Query{Method: m, VS: q.S, VT: q.T})
			if err != nil {
				t.Fatalf("%s (%d,%d): %v", m, q.S, q.T, err)
			}
			out = append(out, a.Proof)
		}
	}
	return out
}

// TestDeploymentSnapshotEpochContinuity is the acceptance pin for the
// serve layer: Save → Load (with the owner key) → ApplyUpdates continues
// the epoch sequence and produces proofs byte-identical to a deployment
// that never restarted.
func TestDeploymentSnapshotEpochContinuity(t *testing.T) {
	dep, signer, g := snapWorld(t, 21)
	methods := []core.Method{core.DIJ, core.LDM, core.HYP}

	// Advance the original deployment one batch, then snapshot.
	if _, err := dep.ApplyUpdates(sampleUpdates(g, 1.5)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := dep.Save(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("Save reported %d bytes, wrote %d", n, buf.Len())
	}

	loaded, err := LoadDeployment(bytes.NewReader(buf.Bytes()), int64(buf.Len()), signer, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e := loaded.Owner().Epoch(); e != 1 {
		t.Fatalf("loaded owner epoch = %d, want 1", e)
	}
	if e := loaded.Engine().Stats().Epoch; e != 1 {
		t.Fatalf("loaded engine epoch = %d, want 1", e)
	}

	// Apply the same second batch to both deployments.
	ups := sampleUpdates(g, 0.75)
	sumOrig, err := dep.ApplyUpdates(ups)
	if err != nil {
		t.Fatal(err)
	}
	sumLoaded, err := loaded.ApplyUpdates(ups)
	if err != nil {
		t.Fatal(err)
	}
	if sumOrig.Epoch != 2 || sumLoaded.Epoch != 2 {
		t.Fatalf("epochs after second batch: orig %d, loaded %d, want 2", sumOrig.Epoch, sumLoaded.Epoch)
	}

	qs, err := workload.Generate(g, 8, 2000, 13)
	if err != nil {
		t.Fatal(err)
	}
	want := engineProofs(t, dep.Engine(), qs, methods)
	got := engineProofs(t, loaded.Engine(), qs, methods)
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			t.Fatalf("proof %d differs between restarted and continuous deployments", i)
		}
	}
}

// TestLoadDeploymentRejectsWrongKey pins the key/verifier binding.
func TestLoadDeploymentRejectsWrongKey(t *testing.T) {
	dep, _, _ := snapWorld(t, 23)
	var buf bytes.Buffer
	if _, err := dep.Save(&buf); err != nil {
		t.Fatal(err)
	}
	wrong, err := sig.GenerateKey(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDeployment(bytes.NewReader(buf.Bytes()), int64(buf.Len()), wrong, Options{}); err == nil ||
		!strings.Contains(err.Error(), "does not match") {
		t.Fatalf("wrong key: %v", err)
	}
	if _, err := LoadDeployment(bytes.NewReader(buf.Bytes()), int64(buf.Len()), nil, Options{}); err == nil {
		t.Fatal("nil signer accepted")
	}
}

// TestEngineFromSet boots a key-less replica and checks it serves the
// same proofs as the origin deployment.
func TestEngineFromSet(t *testing.T) {
	dep, _, g := snapWorld(t, 29)
	var buf bytes.Buffer
	if _, err := dep.Save(&buf); err != nil {
		t.Fatal(err)
	}
	set, err := core.ReadProviderSet(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	replica := EngineFromSet(set, Options{})
	qs, err := workload.Generate(g, 6, 2000, 17)
	if err != nil {
		t.Fatal(err)
	}
	methods := []core.Method{core.DIJ, core.LDM, core.HYP}
	want := engineProofs(t, dep.Engine(), qs, methods)
	got := engineProofs(t, replica, qs, methods)
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			t.Fatalf("replica proof %d differs from origin", i)
		}
	}
	if ms := replica.Methods(); len(ms) != 3 {
		t.Fatalf("replica methods %v", ms)
	}
}

// TestSnapshotEndpoint exercises POST /snapshot end to end.
func TestSnapshotEndpoint(t *testing.T) {
	dep, _, _ := snapWorld(t, 31)
	srv, err := NewServer(dep.Engine(), dep.Owner().Verifier())
	if err != nil {
		t.Fatal(err)
	}

	// Disabled by default.
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/snapshot", nil))
	if rec.Code != 403 {
		t.Fatalf("disabled endpoint: %d", rec.Code)
	}

	path := t.TempDir() + "/world.spv"
	srv.EnableSnapshot(FileSnapshot(dep, path))

	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/snapshot", nil))
	if rec.Code != 405 {
		t.Fatalf("GET: %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/snapshot", nil))
	if rec.Code != 200 {
		t.Fatalf("POST: %d (%s)", rec.Code, rec.Body)
	}
	var res SnapshotResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Path != path || res.Bytes <= 0 {
		t.Fatalf("result = %+v", res)
	}

	// The file it wrote is a loadable snapshot.
	set, err := core.OpenProviderSet(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Methods()) != 3 {
		t.Fatalf("saved snapshot methods %v", set.Methods())
	}
}
