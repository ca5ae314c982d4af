// Quickstart: the complete three-party workflow in one file.
//
// A data owner outsources a road network with landmark-based authenticated
// hints (LDM), a service provider answers one shortest path query, and a
// client verifies the result with nothing but the owner's public key.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	spv "github.com/authhints/spv"
)

func main() {
	// --- Data owner -------------------------------------------------------
	// Synthesize a Germany-shaped road network (≈2,900 junctions at 1/10
	// scale) and build the authenticated structures.
	network, err := spv.GenerateNetwork(spv.DE, spv.NetworkConfig{Scale: 0.1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("owner: road network with %d nodes, %d edges\n", network.NumNodes(), network.NumEdges())

	owner, err := spv.NewOwner(network, spv.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	provider, err := owner.Outsource(spv.LDM) // hints + Merkle tree + signature
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("owner: network outsourced to the service provider (LDM hints)")

	// --- Client picks a query --------------------------------------------
	queries, err := spv.GenerateWorkload(network, 1, 4000, 42)
	if err != nil {
		log.Fatal(err)
	}
	vs, vt := queries[0].S, queries[0].T

	// --- Service provider answers ----------------------------------------
	proof, err := provider.QueryProof(vs, vt)
	if err != nil {
		log.Fatal(err)
	}
	path, dist := proof.Result()
	stats := proof.Stats()
	fmt.Printf("provider: path %d→%d, %d hops, distance %.1f\n", vs, vt, path.Hops(), dist)
	fmt.Printf("provider: proof is %.1f KB (ΓS %.1f KB + ΓT %.1f KB, %d items)\n",
		stats.KBytes(), float64(stats.SBytes)/1024, float64(stats.TBytes)/1024,
		stats.TotalItems())

	// --- Client verifies ---------------------------------------------------
	if err := spv.VerifyProof(owner.Verifier(), spv.LDM, vs, vt, proof); err != nil {
		log.Fatalf("client: REJECTED: %v", err)
	}
	fmt.Println("client: verified — the path is authentic and optimal ✓")

	// A tampered answer is caught immediately: flip one bit on the wire.
	wire := proof.AppendBinary(nil)
	wire[len(wire)/2] ^= 0x01
	if tampered, _, err := spv.DecodeProof(spv.LDM, wire); err == nil &&
		spv.VerifyProof(owner.Verifier(), spv.LDM, vs, vt, tampered) == nil {
		log.Fatal("client: tampered answer was accepted!")
	}
	fmt.Println("client: tampered answer rejected ✓")
}
