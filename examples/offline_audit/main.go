// Offline audit: batch-verifying an untrusted provider's query log.
//
// A transport authority (the data owner) periodically audits the answers a
// third-party service handed out during the day. The log holds serialized
// FULL proofs — the smallest proof format, ideal for archiving. The auditor
// replays each record through the wire decoder and the client verifier; any
// record that was tampered with after the fact, truncated in storage, or
// answered dishonestly is flagged.
//
// Run with:
//
//	go run ./examples/offline_audit
package main

import (
	"fmt"
	"log"

	spv "github.com/authhints/spv"
)

// logRecord is one archived answer.
type logRecord struct {
	S, T  spv.NodeID
	Proof []byte
}

func main() {
	network, err := spv.GenerateNetwork(spv.IND, spv.NetworkConfig{Scale: 0.02})
	if err != nil {
		log.Fatal(err)
	}
	owner, err := spv.NewOwner(network, spv.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	provider, err := owner.Outsource(spv.FULL)
	if err != nil {
		log.Fatal(err)
	}

	// --- The day's traffic: 20 queries, archived as wire bytes ------------
	queries, err := spv.GenerateWorkload(network, 20, 3000, 3)
	if err != nil {
		log.Fatal(err)
	}
	records := make([]logRecord, 0, len(queries))
	for _, q := range queries {
		proof, err := provider.QueryProof(q.S, q.T)
		if err != nil {
			log.Fatal(err)
		}
		records = append(records, logRecord{S: q.S, T: q.T, Proof: proof.AppendBinary(nil)})
	}
	total := 0
	for _, r := range records {
		total += len(r.Proof)
	}
	fmt.Printf("audit log: %d records, %.1f KB total (%.1f KB/record)\n\n",
		len(records), float64(total)/1024, float64(total)/float64(len(records))/1024)

	// --- Corrupt a few records, as a compromised archiver might -----------
	tampered := map[int]string{}
	for which, i := range []int{3, 9, 15} {
		r := &records[i]
		switch which {
		case 0: // flip bits in the claimed distance region
			r.Proof[12] ^= 0x40
			tampered[i] = "bit flip"
		case 1: // truncate (storage corruption)
			r.Proof = r.Proof[:len(r.Proof)-7]
			tampered[i] = "truncation"
		case 2: // splice another record's proof (replay)
			r.Proof = append([]byte(nil), records[(i+1)%len(records)].Proof...)
			tampered[i] = "replayed proof"
		}
	}

	// --- The audit ---------------------------------------------------------
	verifier := owner.Verifier()
	flagged := 0
	for i, r := range records {
		proof, _, err := spv.DecodeProof(spv.FULL, r.Proof)
		if err == nil {
			err = spv.VerifyProof(verifier, spv.FULL, r.S, r.T, proof)
		}
		if err != nil {
			kind, wasTampered := tampered[i]
			if !wasTampered {
				log.Fatalf("record %d: clean record failed audit: %v", i, err)
			}
			flagged++
			fmt.Printf("  record %2d: FLAGGED (%s)\n", i, kind)
		} else if _, wasTampered := tampered[i]; wasTampered {
			log.Fatalf("record %d: tampered record passed audit", i)
		}
	}
	fmt.Printf("\naudit complete: %d/%d records verified, %d flagged — all corruptions caught ✓\n",
		len(records)-flagged, len(records), flagged)
}
