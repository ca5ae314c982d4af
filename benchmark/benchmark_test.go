package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	spv "github.com/authhints/spv"
)

func TestPercentileIsAMeasuredSample(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0.50, 5}, {0.90, 9}, {0.99, 10}, {1.0, 10}, {0.01, 1}, {0.11, 2},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// 1000 samples: p99 leaves exactly ten beyond it.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 0.99); got != 990 {
		t.Errorf("percentile(1..1000, 0.99) = %v, want 990", got)
	}
}

// The spread -repeat prints must be the one the acceptance pipeline
// computes with Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2}) // Python: [0.75, 1.5, 2.25]
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
	if d := maxRelDiff([]float64{100, 110, 105}); math.Abs(d-0.10) > 1e-12 {
		t.Errorf("maxRelDiff = %v, want 0.10", d)
	}
}

func TestSelfTimesSubtractCallees(t *testing.T) {
	med := map[string]float64{
		"serve.loopback_json.DIJ": 300, "serve.handler_json.DIJ": 120, "serve.engine_hit": 20,
		"serve.engine_miss.DIJ": 500, "core.prove.DIJ": 350, "core.encode.DIJ": 100,
		"core.verify.DIJ": 900, "sig.verify": 40,
	}
	self := selfTimes(med, calls(spv.DIJ))
	want := map[string]float64{
		"serve.loopback_json.DIJ": 180, // transport
		"serve.handler_json.DIJ":  100,
		"serve.engine_hit":        20, // a leaf keeps its whole time
		"serve.engine_miss.DIJ":   50, // two callees
		"core.prove.DIJ":          350,
		"core.encode.DIJ":         100,
		"core.verify.DIJ":         860,
		"sig.verify":              40,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v\nwant %v", self, want)
	}
	// An unmeasured callee leaves the caller whole.
	if got := selfTimes(map[string]float64{"core.verify.DIJ": 900}, calls(spv.DIJ))["core.verify.DIJ"]; got != 900 {
		t.Errorf("self time with unmeasured callee = %v, want 900", got)
	}
}

func TestLayerMetricNames(t *testing.T) {
	for layer, want := range map[string]string{
		"core.prove.DIJ":           "core.prove_us.DIJ",
		"serve.engine_hit":         "serve.engine_hit_us",
		"core.outsource.HYP":       "core.outsource_ms.HYP",
		"snapshot.first_proof.LDM": "snapshot.first_proof_ms.LDM",
		"core.update":              "core.update_ms",
	} {
		if got, _ := layerMetric(layer); got != want {
			t.Errorf("layerMetric(%q) = %q, want %q", layer, got, want)
		}
	}
}

// A stalled server must show up as lateness and as latency on every
// arrival that queued behind the stall, timed from when each was due.
func TestOpenLoopTimesFromDueAcrossAStall(t *testing.T) {
	const n, gap, stall = 20, 5 * time.Millisecond, 80 * time.Millisecond
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(i) * gap
	}
	start := time.Now()
	latency := make([]time.Duration, n) // as a workload measures it: completion − due
	outs := openLoop(context.Background(), start, dues, 1, time.Second, func(_, i int, due time.Time) {
		if !due.Equal(start.Add(dues[i])) {
			t.Errorf("arrival %d handed due time %v, want start+%v", i, due.Sub(start), dues[i])
		}
		if i == 2 {
			time.Sleep(stall) // the fake server stalls on one request
		}
		latency[i] = time.Since(due)
	})
	if len(outs) != n {
		t.Fatalf("%d outcomes for %d arrivals", len(outs), n)
	}
	for i, o := range outs {
		if !o.dispatched {
			t.Errorf("arrival %d not dispatched inside the grace period", i)
		}
		if latency[i] < o.lateness {
			t.Errorf("arrival %d: latency %v below lateness %v", i, latency[i], o.lateness)
		}
	}
	if latency[2] < stall {
		t.Errorf("stalled arrival's latency %v, want ≥ %v", latency[2], stall)
	}
	// Arrival 3 was due 5 ms after arrival 2 and waited out its stall.
	if floor := stall - 2*gap; outs[3].lateness < floor || latency[3] < floor {
		t.Errorf("arrival behind the stall: lateness %v latency %v, want both ≥ %v", outs[3].lateness, latency[3], floor)
	}
	if outs[1].lateness > stall/2 {
		t.Errorf("arrival before the stall was %v late", outs[1].lateness)
	}
}

func TestOpenLoopCountsWhatItNeverDispatched(t *testing.T) {
	dues := []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	var ran atomic.Int32
	outs := openLoop(context.Background(), time.Now(), dues, 1, 20*time.Millisecond, func(_, _ int, _ time.Time) {
		ran.Add(1)
		time.Sleep(60 * time.Millisecond) // outlasts the last due time plus grace
	})
	if len(outs) != len(dues) {
		t.Fatalf("%d outcomes for %d arrivals", len(outs), len(dues))
	}
	dispatched := 0
	for _, o := range outs {
		if o.dispatched {
			dispatched++
		}
	}
	if dispatched != int(ran.Load()) || dispatched == len(dues) || dispatched == 0 {
		t.Errorf("dispatched %d, executed %d of %d: abandoned arrivals must be reported, not run late and not lost",
			dispatched, ran.Load(), len(dues))
	}
}

func TestPoolHoldsNoPairTwice(t *testing.T) {
	qs := []spv.Query{{S: 1, T: 2, Dist: 5}, {S: 3, T: 4}, {S: 1, T: 2, Dist: 5}, {S: 2, T: 1}, {S: 3, T: 4}}
	got := distinctPairs(qs)
	want := []spv.Query{{S: 1, T: 2, Dist: 5}, {S: 3, T: 4}, {S: 2, T: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("distinctPairs = %v, want %v", got, want)
	}

	g, err := spv.SynthesizeNetwork(400, 420, 7)
	if err != nil {
		t.Fatal(err)
	}
	// 300 pairs from 400 sources: the generator must repeat sources, so the
	// pool only fills if repeats are dropped and further rounds drawn.
	pool, err := buildPool(g, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pool) != 300 || len(distinctPairs(pool)) != 300 {
		t.Fatalf("pool of %d with %d distinct pairs, want 300 of each", len(pool), len(distinctPairs(pool)))
	}
	again, _ := buildPool(g, 300, 1)
	other, _ := buildPool(g, 300, 2)
	if !reflect.DeepEqual(pool, again) || reflect.DeepEqual(pool, other) {
		t.Errorf("pool must be a function of the seed: same seed equal=%v, other seed equal=%v",
			reflect.DeepEqual(pool, again), reflect.DeepEqual(pool, other))
	}
	for _, q := range pool[:20] {
		if d, _ := spv.ShortestPath(g, q.S, q.T); !sameDist(d, q.Dist) {
			t.Errorf("pool distance %v for %d→%d, search says %v", q.Dist, q.S, q.T, d)
		}
	}
}

func TestKeyWalkTouchesEveryKeyOncePerCycle(t *testing.T) {
	pool := make([]spv.Query, 5)
	for i := range pool {
		pool[i] = spv.Query{S: spv.NodeID(i), T: spv.NodeID(i + 100)}
	}
	cycle := len(methods) * len(pool)
	seen := map[key]bool{}
	for i := 0; i < cycle; i++ {
		k := keyAt(pool, i)
		if seen[k] {
			t.Fatalf("key %v repeats inside one cycle at request %d", k, i)
		}
		seen[k] = true
		if k.method != methods[i%len(methods)] {
			t.Errorf("request %d asks %s; methods must rotate per request", i, k.method)
		}
		if keyAt(pool, i+cycle) != k {
			t.Errorf("request %d and %d differ; the walk must be cyclic", i, i+cycle)
		}
	}
}

// The `cold` workload promises a cache that does no work. Walk its key
// order past one full cycle against an engine with the default 64 MiB
// cache: the returning walk must find every key already evicted.
func TestColdKeyOrderNeverHitsTheDefaultCache(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the benchmark world and 12,800 proofs")
	}
	g, err := buildWorld()
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buildPool(g, coldPairs, 1)
	if err != nil {
		t.Fatal(err)
	}
	owner, err := spv.NewOwner(g, spv.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := spv.NewEngine(owner, spv.ServeOptions{}, methods...)
	if err != nil {
		t.Fatal(err)
	}
	cycle := len(methods) * len(pool)
	qs := make([]spv.ServeQuery, cycle+512)
	for i := range qs {
		k := keyAt(pool, i)
		qs[i] = spv.ServeQuery{Method: k.method, VS: k.q.S, VT: k.q.T}
	}
	// One worker: the order the cache sees is the order of the walk.
	for i, q := range qs {
		if a, err := eng.Query(q); err != nil || a.Cached {
			t.Fatalf("request %d (%v): cached=%v err=%v", i, q, a.Cached, err)
		}
	}
	st := eng.Stats()
	if st.Hits != 0 || st.Misses != int64(len(qs)) {
		t.Errorf("hits=%d misses=%d over %d requests, want 0 hits", st.Hits, st.Misses, len(qs))
	}
	if st.CacheBytesEvicted < 4*st.CacheBytes {
		t.Errorf("evicted %d bytes with %d held: one cycle should be several times the cache", st.CacheBytesEvicted, st.CacheBytes)
	}
}

// BENCHMARK.json is written by hand; the tables in metrics.go are what the
// program prints. They must name the same metrics.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program runs %v", names, workloadNames)
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			better := "lower"
			if want[i].higher {
				better = "higher"
			}
			// got[i].Bound is 0 for a per-layer metric: the file gives those
			// none, whatever -repeat holds them to.
			w := metric{want[i].name, want[i].unit, better, want[i].bound}
			if kind == "per_layer" {
				w.Bound = 0
			}
			if got[i] != w {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, program has %+v", kind, i, got[i], w)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(spec.PerLayer))
	}
}
