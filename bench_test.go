// BenchmarkClientVerify, the profiling entry point for client
// verification. The paper's figure benchmarks live with their harness in
// internal/bench.
package spv_test

import (
	"testing"

	spv "github.com/authhints/spv"
)

// BenchmarkClientVerify verifies one proof per method over and over on a
// DE 0.05 world: `go test -run '^$' -bench ClientVerify -cpuprofile` is
// where ROADMAP item 1 and PR 21 sized the client's hashing floor. Every
// other hot-path number — proving, serving, batch verification, outsourcing
// — comes from `go run ./benchmark -trace 1`.
func BenchmarkClientVerify(b *testing.B) {
	g, err := spv.GenerateNetwork(spv.DE, spv.NetworkConfig{Scale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	owner, err := spv.NewOwner(g, spv.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	qs, err := spv.GenerateWorkload(g, 16, 4000, 9)
	if err != nil {
		b.Fatal(err)
	}
	q, v := qs[0], owner.Verifier()
	for _, m := range spv.Methods() {
		p, err := owner.Outsource(m)
		if err != nil {
			b.Fatal(err)
		}
		pr, err := p.QueryProof(q.S, q.T)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := spv.VerifyProof(v, m, q.S, q.T, pr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
