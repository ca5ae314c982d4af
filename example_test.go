package spv_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	spv "github.com/authhints/spv"
)

// ExampleSaveSnapshot shows the owner's half of the replication story:
// outsource once, persist the complete deployment — graph, authenticated
// structures with every precomputed digest, signatures, epoch — to one
// file that any number of replicas can boot from.
func ExampleSaveSnapshot() {
	g, _ := spv.SynthesizeNetwork(120, 160, 1)
	cfg := spv.DefaultConfig()
	cfg.Landmarks = 5
	owner, _ := spv.NewOwnerWithSigner(g, cfg, mustKey())
	dep, _ := spv.NewDeployment(owner, spv.ServeOptions{}, spv.LDM)

	dir, _ := os.MkdirTemp("", "spv-example")
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "world.spv")

	n, err := spv.SaveSnapshot(path, dep)
	fmt.Println("saved:", err == nil, "bytes >", n > 0)
	// Output:
	// saved: true bytes > true
}

// ExampleLoadEngine shows the replica's half: cold-start a serving engine
// from a snapshot file — no hashing, no Dijkstra re-runs — and serve
// proofs byte-identical to the origin's, verifiable against the embedded
// public key.
func ExampleLoadEngine() {
	g, _ := spv.SynthesizeNetwork(120, 160, 1)
	cfg := spv.DefaultConfig()
	cfg.Landmarks = 5
	owner, _ := spv.NewOwnerWithSigner(g, cfg, mustKey())
	dep, _ := spv.NewDeployment(owner, spv.ServeOptions{}, spv.LDM)

	dir, _ := os.MkdirTemp("", "spv-example")
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "world.spv")
	if _, err := spv.SaveSnapshot(path, dep); err != nil {
		fmt.Println("save:", err)
		return
	}

	// On another machine: boot a replica from the file alone.
	replica, set, err := spv.LoadEngine(path, spv.ServeOptions{})
	if err != nil {
		fmt.Println("load:", err)
		return
	}
	q := spv.ServeQuery{Method: spv.LDM, VS: 3, VT: 90}
	origin, _ := dep.Engine().Query(q)
	answer, _ := replica.Query(q)

	proof, _, _ := spv.DecodeProof(q.Method, answer.Proof)
	verified := spv.VerifyProof(set.Verifier, q.Method, q.VS, q.VT, proof) == nil
	fmt.Println("byte-identical:", bytes.Equal(origin.Proof, answer.Proof), "verified:", verified)
	// Output:
	// byte-identical: true verified: true
}

// mustKey generates a throwaway owner key for the examples.
func mustKey() *spv.Signer {
	s, err := spv.GenerateOwnerKey(1024)
	if err != nil {
		panic(err)
	}
	return s
}
