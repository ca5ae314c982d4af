package loadgen

import (
	"reflect"
	"testing"

	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/netgen"
)

// TestPerturbBatches pins the three things the benchmark's churn workload
// relies on: the schedule is a function of the seed, it has count perturb
// batches then count restore batches of per updates each, and every update
// re-weights an edge the graph has — to 1.05× its weight, then back — with
// no edge in two batches.
func TestPerturbBatches(t *testing.T) {
	g, err := netgen.Synthesize(200, 260, 7)
	if err != nil {
		t.Fatal(err)
	}
	const count, per = 4, 3
	ups, err := PerturbBatches(g, count, per, 11)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := PerturbBatches(g, count, per, 11); !reflect.DeepEqual(ups, again) {
		t.Fatal("same seed, different schedule")
	}
	if other, _ := PerturbBatches(g, count, per, 12); reflect.DeepEqual(ups, other) {
		t.Fatal("different seeds, same schedule")
	}
	if len(ups) != 2*count {
		t.Fatalf("%d batches, want %d perturb + %d restore", len(ups), count, count)
	}
	seen := map[[2]graph.NodeID]bool{}
	for i := 0; i < count; i++ {
		perturb, restore := ups[i], ups[count+i]
		if len(perturb) != per || len(restore) != per {
			t.Fatalf("batch %d: %d perturb / %d restore updates, want %d", i, len(perturb), len(restore), per)
		}
		for j, u := range perturb {
			w, ok := g.EdgeWeight(u.U, u.V)
			if !ok {
				t.Fatalf("batch %d update %d: (%d,%d) is not an edge", i, j, u.U, u.V)
			}
			if r := restore[j]; r.U != u.U || r.V != u.V || r.W != w || u.W != w*1.05 {
				t.Fatalf("batch %d update %d: perturb %+v / restore %+v around weight %v", i, j, u, r, w)
			}
			key := [2]graph.NodeID{min(u.U, u.V), max(u.U, u.V)}
			if seen[key] {
				t.Fatalf("edge (%d,%d) sampled twice", u.U, u.V)
			}
			seen[key] = true
		}
	}
	if _, err := PerturbBatches(g, 0, per, 1); err == nil {
		t.Fatal("zero batches accepted")
	}
}
