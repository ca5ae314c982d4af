// Serving demonstrates the provider serving layer: one engine fronting two
// methods, a batched workload fanned out over the worker pool, cache-hit
// amortization across repeated queries, and full client-side verification
// of the wire proofs — the in-process version of what cmd/spvserve exposes
// over HTTP.
package main

import (
	"fmt"
	"log"

	spv "github.com/authhints/spv"
)

func main() {
	g, err := spv.GenerateNetwork(spv.DE, spv.NetworkConfig{Scale: 0.02})
	if err != nil {
		log.Fatal(err)
	}
	cfg := spv.DefaultConfig()
	cfg.Landmarks = 12
	cfg.Cells = 25
	owner, err := spv.NewOwner(g, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// The engine outsources once and then serves any number of goroutines.
	engine, err := spv.NewEngine(owner, spv.ServeOptions{}, spv.LDM, spv.HYP)
	if err != nil {
		log.Fatal(err)
	}

	queries, err := spv.GenerateWorkload(g, 6, 2500, 42)
	if err != nil {
		log.Fatal(err)
	}

	// A mixed batch: every query twice, so up to half the work is cache hits
	// (a repeat built concurrently with its first copy builds again).
	var batch []spv.ServeQuery
	for _, m := range []spv.Method{spv.LDM, spv.HYP} {
		for _, q := range queries {
			batch = append(batch,
				spv.ServeQuery{Method: m, VS: q.S, VT: q.T},
				spv.ServeQuery{Method: m, VS: q.S, VT: q.T})
		}
	}
	answers := engine.QueryBatch(batch)

	// Clients verify each wire proof against the owner's public key.
	verifier := owner.Verifier()
	for _, a := range answers {
		if a.Err != nil {
			log.Fatalf("%v: %v", a.Query, a.Err)
		}
		q := a.Query
		pr, _, err := spv.DecodeProof(q.Method, a.Proof)
		if err == nil {
			err = spv.VerifyProof(verifier, q.Method, q.VS, q.VT, pr)
		}
		if err != nil {
			log.Fatalf("%s %d→%d: %v", q.Method, q.VS, q.VT, err)
		}
	}
	fmt.Printf("verified %d proofs across %d queries\n", len(answers), len(batch))

	s := engine.Stats()
	fmt.Printf("engine: %d queries, %d cold builds, %d cache hits\n",
		s.Queries, s.Misses, s.Hits)
	fmt.Printf("served %d proof bytes; %v spent in cold construction\n",
		s.ProofBytes, s.ColdTime.Round(1000))
}
