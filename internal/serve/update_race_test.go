package serve

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/authhints/spv/internal/core"
	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/netgen"
	"github.com/authhints/spv/internal/workload"
)

// TestQueriesRaceUpdates hammers the engine with concurrent queries across
// methods while the deployment applies update batches and hot-swaps
// providers. Every returned proof must pass full client verification —
// each proof carries the root signature it was built under, so answers
// racing a swap verify against whichever root they were signed under.
// Run with -race, this also pins the swap path's memory safety. The second
// pass gives every query a latency budget: admission may then shed some,
// and the counters must still add up — answered queries in the ledger,
// shed ones in their own class only.
func TestQueriesRaceUpdates(t *testing.T) {
	for _, budget := range []time.Duration{0, 50 * time.Millisecond} {
		t.Run("budget="+budget.String(), func(t *testing.T) { raceUpdates(t, budget) })
	}
}

func raceUpdates(t *testing.T, budget time.Duration) {
	g, err := netgen.Generate(netgen.DE, netgen.Config{Scale: 0.01, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Landmarks = 5
	cfg.Cells = 9
	owner, err := core.NewOwner(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := NewDeployment(owner, Options{CacheBytes: 1 << 20}, core.DIJ, core.LDM, core.HYP)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := workload.Generate(g, 12, 2000, 17)
	if err != nil {
		t.Fatal(err)
	}
	verifier := owner.Verifier()
	engine := dep.Engine()
	methods := []core.Method{core.DIJ, core.LDM, core.HYP}

	const batches = 8
	var stop atomic.Bool
	var answered, shed atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				q := qs[rng.Intn(len(qs))]
				a, err := engine.QueryBudget(Query{Method: methods[rng.Intn(len(methods))], VS: q.S, VT: q.T}, budget)
				if errors.Is(err, ErrShed) {
					shed.Add(1)
					continue
				}
				answered.Add(1)
				if err != nil {
					select {
					case errCh <- err:
					default:
					}
					return
				}
				if err := verifyWire(verifier, a); err != nil {
					select {
					case errCh <- err:
					default:
					}
					return
				}
			}
		}(int64(w + 1))
	}

	// One save races the updates and the queries (what the retired load
	// harness did over HTTP): it must cut between two batches, never inside
	// one, so the file loads and serves proofs that verify.
	var snap bytes.Buffer
	saved := make(chan error, 1)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < batches; i++ {
		if i == batches/2 {
			go func() {
				_, err := dep.Save(&snap)
				saved <- err
			}()
		}
		ups := make([]core.EdgeUpdate, 0, 2)
		for len(ups) < 2 {
			u := graph.NodeID(rng.Intn(g.NumNodes()))
			adj := owner.Graph().Neighbors(u)
			if len(adj) == 0 {
				continue
			}
			e := adj[rng.Intn(len(adj))]
			ups = append(ups, core.EdgeUpdate{U: u, V: e.To, W: e.W * (0.6 + rng.Float64())})
		}
		if _, err := dep.ApplyUpdates(ups); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errCh)
	if err := <-saved; err != nil {
		t.Fatalf("save racing updates: %v", err)
	}
	set, err := core.ReadProviderSet(bytes.NewReader(snap.Bytes()), int64(snap.Len()))
	if err != nil {
		t.Fatalf("snapshot saved mid-updates does not load: %v", err)
	}
	if set.Epoch < batches/2 || set.Epoch > batches {
		t.Errorf("saved epoch %d, want one of the cuts in [%d, %d]", set.Epoch, batches/2, batches)
	}
	replica := EngineFromSet(set, Options{})
	for _, m := range methods {
		a, err := replica.Query(Query{Method: m, VS: qs[0].S, VT: qs[0].T})
		if err != nil || verifyWire(verifier, a) != nil {
			t.Errorf("%s proof from the mid-update snapshot: %v", m, err)
		}
	}
	for err := range errCh {
		t.Errorf("racing query failed verification: %v", err)
	}
	s := engine.Stats()
	if s.Epoch != batches {
		t.Errorf("engine epoch = %d, want %d", s.Epoch, batches)
	}
	if s.LastUpdate <= 0 {
		t.Error("last-update latency not recorded")
	}
	assertLedger(t, s)
	if s.Queries != answered.Load() || s.Pipeline.Shed != shed.Load() || s.Pipeline.InFlight != 0 {
		t.Errorf("queries %d (answered %d), shed %d (refused %d), in flight %d",
			s.Queries, answered.Load(), s.Pipeline.Shed, shed.Load(), s.Pipeline.InFlight)
	}
	if budget == 0 && shed.Load() != 0 {
		t.Errorf("%d queries shed with no budget", shed.Load())
	}
}

// verifyWire runs full client-side verification of an answer's wire proof.
func verifyWire(v core.SigVerifier, a Answer) error {
	q := a.Query
	pr, _, err := core.DecodeProof(q.Method, a.Proof)
	if err != nil {
		return err
	}
	return core.VerifyProof(v, q.Method, q.VS, q.VT, pr)
}
