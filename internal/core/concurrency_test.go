package core

import (
	"bytes"
	"sync"
	"testing"

	"github.com/authhints/spv/internal/graph"
)

// These tests pin down the concurrency contract documented on the provider
// types: after Outsource returns, a provider's state is read-only, so
// QueryProof may be called from any number of goroutines without locking, and a
// fixed (vs, vt) always yields a byte-identical wire encoding. Run with
// -race; the serving layer (internal/serve) is built on both guarantees.

// hammerMethod fires mixed repeated/distinct queries at m's provider from
// many goroutines and checks every answer against the sequential baseline.
func hammerMethod(t *testing.T, m Method) {
	t.Helper()
	w := world(t)
	p := testProvider(t, w, m)
	query := func(vs, vt graph.NodeID) ([]byte, error) {
		pr, err := p.QueryProof(vs, vt)
		if err != nil {
			return nil, err
		}
		return pr.AppendBinary(nil), nil
	}
	qs := w.queries[:4]
	baseline := make([][]byte, len(qs))
	for i, q := range qs {
		wire, err := query(q.S, q.T)
		if err != nil {
			t.Fatal(err)
		}
		baseline[i] = wire
	}
	const goroutines = 8
	const perG = 6
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := (g + i) % len(qs)
				wire, err := query(qs[k].S, qs[k].T)
				if err != nil {
					errCh <- err
					return
				}
				if !bytes.Equal(wire, baseline[k]) {
					t.Errorf("concurrent proof for %d→%d differs from sequential baseline",
						qs[k].S, qs[k].T)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestConcurrentQueriesDIJ(t *testing.T)  { hammerMethod(t, DIJ) }
func TestConcurrentQueriesFULL(t *testing.T) { hammerMethod(t, FULL) }
func TestConcurrentQueriesLDM(t *testing.T)  { hammerMethod(t, LDM) }
func TestConcurrentQueriesHYP(t *testing.T)  { hammerMethod(t, HYP) }

// TestConcurrentVerification checks the client side too: Verifier is
// shareable and proofs are not mutated by verification.
func TestConcurrentVerification(t *testing.T) {
	w := world(t)
	q := w.queries[0]
	proof := prove[*LDMProof](t, w.ldm, q.S, q.T)
	v := w.owner.Verifier()
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if err := VerifyProof(v, LDM, q.S, q.T, proof); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
