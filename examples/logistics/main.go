// Logistics: detecting a profit-motivated routing service.
//
// The paper's motivating scenario (§I): a delivery company rents shortest
// path computation from an online service. The service, paid by a partner
// chain, quietly routes drivers past partner locations — a few percent
// longer per trip, invisible without verification.
//
// This example runs both an honest and a malicious provider over the same
// signed network. The malicious one returns real paths (every edge exists!)
// that are simply not shortest; only the HYP verification exposes it.
//
// Run with:
//
//	go run ./examples/logistics
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"

	spv "github.com/authhints/spv"
)

func main() {
	network, err := spv.GenerateNetwork(spv.ARG, spv.NetworkConfig{Scale: 0.05})
	if err != nil {
		log.Fatal(err)
	}
	owner, err := spv.NewOwner(network, spv.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	provider, err := owner.Outsource(spv.HYP)
	if err != nil {
		log.Fatal(err)
	}
	clientKey := owner.Verifier()

	deliveries, err := spv.GenerateWorkload(network, 6, 3500, 7)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("fleet dispatch over %d-node network, %d deliveries\n\n",
		network.NumNodes(), len(deliveries))

	rng := rand.New(rand.NewSource(13))
	caught, verified := 0, 0
	var extraKm float64
	for i, d := range deliveries {
		answer, err := provider.QueryProof(d.S, d.T)
		if err != nil {
			log.Fatal(err)
		}
		proof := answer.(*spv.HYPProof)
		// Half of the answers come from the "partner-friendly" code path:
		// the provider swaps in a real but longer route and sizes the rest
		// of the proof consistently.
		malicious := i%2 == 1
		if malicious {
			detour, detourDist := partnerDetour(network, d.S, d.T, rng)
			if detour == nil {
				malicious = false
			} else {
				proof.Path = detour
				proof.Dist = detourDist
			}
		}

		err = spv.VerifyProof(clientKey, spv.HYP, d.S, d.T, proof)
		switch {
		case err == nil && !malicious:
			verified++
			fmt.Printf("  delivery %d: %3d hops, %7.1f units — verified ✓\n",
				i+1, proof.Path.Hops(), proof.Dist)
		case err != nil && malicious:
			caught++
			honest, _ := spv.ShortestPath(network, d.S, d.T)
			extraKm += proof.Dist - honest
			fmt.Printf("  delivery %d: REJECTED (%v) — detour of +%.1f units caught ✓\n",
				i+1, shortReason(err), proof.Dist-honest)
		case err != nil && !malicious:
			log.Fatalf("delivery %d: honest answer rejected: %v", i+1, err)
		default:
			log.Fatalf("delivery %d: malicious answer ACCEPTED", i+1)
		}
	}
	fmt.Printf("\n%d honest deliveries verified, %d detours caught (%.1f units of padding avoided)\n",
		verified, caught, extraKm)
}

// partnerDetour fabricates a real-but-suboptimal route the way a subtle
// cheat would: block one segment of the true shortest path (forcing traffic
// past the partner's location on the alternative road) and route around it.
// The result is a genuine path in the original network, just not a shortest
// one.
func partnerDetour(g *spv.Graph, s, t spv.NodeID, rng *rand.Rand) (spv.Path, float64) {
	best, shortest := spv.ShortestPath(g, s, t)
	if shortest == nil || len(shortest) < 3 {
		return nil, 0
	}
	// Scan the honest route's segments from a random offset: most segments
	// of a sparse road network are bridges (no alternative), so try until a
	// cut leaves a longer way around.
	offset := rng.Intn(len(shortest) - 1)
	for k := 0; k < len(shortest)-1; k++ {
		i := 1 + (offset+k)%(len(shortest)-1)
		blocked := g.Clone()
		blocked.RemoveEdge(shortest[i-1], shortest[i])
		d, alt := spv.ShortestPath(blocked, s, t)
		if alt == nil || d <= best*(1+1e-9) {
			continue
		}
		// The detour is a real path in the ORIGINAL network too (removing
		// an edge cannot add edges), just not a shortest one.
		return alt, d
	}
	return nil, 0
}

func shortReason(err error) string {
	switch {
	case errors.Is(err, spv.ErrNotShortest):
		return "path is not shortest"
	case errors.Is(err, spv.ErrIncompleteProof):
		return "incomplete proof"
	case errors.Is(err, spv.ErrPathMismatch):
		return "path mismatch"
	case errors.Is(err, spv.ErrBadSignature):
		return "bad signature"
	default:
		return "rejected"
	}
}
