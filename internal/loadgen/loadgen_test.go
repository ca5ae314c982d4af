package loadgen

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"github.com/authhints/spv/internal/core"
	"github.com/authhints/spv/internal/netgen"
	"github.com/authhints/spv/internal/serve"
	"github.com/authhints/spv/internal/workload"
)

// liveServer stands up a full in-process deployment (updates + snapshot
// enabled) behind httptest and returns its base URL plus the pieces a
// load config needs.
func liveServer(t *testing.T) (string, *workload.Pool, [][]core.EdgeUpdate) {
	t.Helper()
	g, err := netgen.Generate(netgen.DE, netgen.Config{Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Landmarks = 8
	cfg.Cells = 16
	owner, err := core.NewOwner(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := serve.NewDeployment(owner, serve.Options{}, core.DIJ, core.LDM, core.HYP)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(dep.Engine(), owner.Verifier())
	if err != nil {
		t.Fatal(err)
	}
	srv.EnableUpdates(dep)
	srv.EnableSnapshot(serve.FileSnapshot(dep, filepath.Join(t.TempDir(), "load.spv")))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	qs, err := workload.Generate(g, 24, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := workload.NewPool(qs, workload.Friendly, 3)
	if err != nil {
		t.Fatal(err)
	}
	ups, err := PerturbBatches(owner.Graph(), 4, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	return ts.URL, pool, ups
}

// TestRunEndToEnd drives the full harness shape against a live in-process
// server: mixed single/batch traffic, concurrent updates, one snapshot
// save — and checks the report's ledger adds up with zero errors.
func TestRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("load run takes ~2s of wall clock")
	}
	url, pool, ups := liveServer(t)
	mix, err := ParseMix("DIJ=1,LDM=2,HYP=1")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), Config{
		BaseURL:       url,
		Rate:          150,
		Duration:      1200 * time.Millisecond,
		Warmup:        300 * time.Millisecond,
		Mix:           mix,
		Pool:          pool,
		Locality:      workload.Friendly,
		BatchFraction: 0.1,
		BatchSize:     4,
		UpdateEvery:   250 * time.Millisecond,
		UpdateBatches: ups,
		SnapshotAt:    []time.Duration{600 * time.Millisecond},
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != Schema {
		t.Fatalf("schema %q, want %q", rep.Schema, Schema)
	}
	for _, ph := range []Phase{PhaseQuery, PhaseBatch, PhaseUpdate, PhaseSnapshot} {
		ps := rep.Phases[ph]
		if ps == nil {
			t.Fatalf("phase %s missing from report", ph)
		}
		if ps.Errors != 0 {
			t.Errorf("phase %s: %d errors", ph, ps.Errors)
		}
		if ps.Dropped != 0 {
			t.Errorf("phase %s: %d drops", ph, ps.Dropped)
		}
		if ps.Completed == 0 {
			t.Errorf("phase %s: nothing completed", ph)
		}
		if ps.Completed+ps.Errors+ps.Dropped+ps.Shed != ps.Offered {
			t.Errorf("phase %s ledger: completed %d + errors %d + dropped %d + shed %d != offered %d",
				ph, ps.Completed, ps.Errors, ps.Dropped, ps.Shed, ps.Offered)
		}
		if ps.Completed > 0 && (ps.P50 <= 0 || ps.P99 <= 0) {
			t.Errorf("phase %s: non-positive quantiles p50=%v p99=%v", ph, ps.P50, ps.P99)
		}
		if ps.P50 > ps.P99 || ps.P99 > ps.Max {
			t.Errorf("phase %s quantiles out of order: %v / %v / %v", ph, ps.P50, ps.P99, ps.Max)
		}
	}
	q := rep.Phases[PhaseQuery]
	if q.AchievedQPS <= 0 || q.OfferedQPS <= 0 {
		t.Errorf("query QPS: achieved %v offered %v", q.AchievedQPS, q.OfferedQPS)
	}
	if rep.Phases[PhaseSnapshot].Offered != 1 {
		t.Errorf("snapshot offered %d, want 1", rep.Phases[PhaseSnapshot].Offered)
	}

	// Server-side cross-check: the engine must have seen at least the
	// measured queries (warmup traffic makes it strictly more), updates
	// must have bumped the epoch, and the friendly distribution must have
	// produced cache hits.
	d := rep.Stats
	measuredQueries := q.Completed + rep.Phases[PhaseBatch].Completed*int64(4)
	if d.Queries < measuredQueries {
		t.Errorf("server saw %d queries, client measured %d", d.Queries, measuredQueries)
	}
	if d.EpochDelta < 1 {
		t.Errorf("epoch delta %d, want ≥1 (updates ran)", d.EpochDelta)
	}
	if d.LeavesPatched <= 0 {
		t.Errorf("leaves patched %d, want >0", d.LeavesPatched)
	}
	if d.Hits == 0 {
		t.Errorf("no cache hits under the friendly distribution")
	}
	if d.Errors != 0 {
		t.Errorf("server counted %d errors", d.Errors)
	}
	if len(d.After.Latency) == 0 {
		t.Errorf("server /stats reports no latency summaries after load")
	}
}

// TestRunCountsServerErrors pins the error ledger: traffic for a method
// the server does not serve must land in Errors, not vanish.
func TestRunCountsServerErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("load run takes ~1s of wall clock")
	}
	url, pool, _ := liveServer(t)
	rep, err := Run(context.Background(), Config{
		BaseURL:  url,
		Rate:     50,
		Duration: 500 * time.Millisecond,
		Mix:      []MethodShare{{Method: core.FULL, Weight: 1}}, // not served
		Pool:     pool,
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := rep.Phases[PhaseQuery]
	if q.Errors == 0 {
		t.Fatal("unserved method produced zero errors")
	}
	if q.Completed != 0 {
		t.Fatalf("unserved method completed %d requests", q.Completed)
	}
}

// TestRunShedLedger drives a server with an unmeetable 1ns budget: every
// query and batch after the first answered one (which seeds admission's
// service-time estimate) is shed with 503, and the harness must book those
// as their own ledger class — never errors, never latency samples — while
// Completed+Errors+Dropped+Shed == Offered stays pinned.
func TestRunShedLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("load run takes ~1s of wall clock")
	}
	url, pool, _ := liveServer(t)
	mix, err := ParseMix("DIJ=1,LDM=1")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), Config{
		BaseURL:  url,
		Rate:     100,
		Duration: 700 * time.Millisecond,
		Mix:      mix,
		Pool:     pool,
		Locality: workload.Friendly,
		Budget:   time.Nanosecond, // below any service-time estimate
		Seed:     4,

		BatchFraction: 0.2,
		BatchSize:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if b := rep.Phases[PhaseBatch]; b.Shed == 0 || b.Errors != 0 || b.Completed+b.Dropped+b.Shed != b.Offered {
		t.Errorf("batch phase: offered %d = completed %d + errors %d + dropped %d + shed %d, want shed > 0 and no errors",
			b.Offered, b.Completed, b.Errors, b.Dropped, b.Shed)
	}
	q := rep.Phases[PhaseQuery]
	if q.Shed == 0 {
		t.Fatal("1ns budget shed nothing")
	}
	if q.Errors != 0 {
		t.Errorf("shed responses leaked into errors: %d", q.Errors)
	}
	if q.Completed+q.Errors+q.Dropped+q.Shed != q.Offered {
		t.Errorf("ledger: completed %d + errors %d + dropped %d + shed %d != offered %d",
			q.Completed, q.Errors, q.Dropped, q.Shed, q.Offered)
	}
	// Shed turnarounds must not pollute the latency histogram: the sample
	// count is exactly the completed+errored requests.
	var samples int64
	for _, b := range q.Buckets {
		samples += b.Count
	}
	if samples != q.Completed+q.Errors {
		t.Errorf("histogram holds %d samples for %d completed+errored", samples, q.Completed+q.Errors)
	}
	if rep.Stats.Shed == 0 {
		t.Error("server-side shed delta is zero")
	}
	if rep.Budget != time.Nanosecond {
		t.Errorf("report budget = %v", rep.Budget)
	}
}

func TestParseMix(t *testing.T) {
	mix, err := ParseMix("dij=2, LDM , HYP=0.5")
	if err != nil {
		t.Fatal(err)
	}
	want := []MethodShare{{core.DIJ, 2}, {core.LDM, 1}, {core.HYP, 0.5}}
	if len(mix) != len(want) {
		t.Fatalf("parsed %d entries, want %d", len(mix), len(want))
	}
	for i := range want {
		if mix[i] != want[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, mix[i], want[i])
		}
	}
	if got := FormatMix(mix); got != "DIJ=2,LDM=1,HYP=0.5" {
		t.Fatalf("FormatMix = %q", got)
	}
	for _, bad := range []string{"", "LDM=0", "LDM=-1", "LDM=x"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	pool := &workload.Pool{}
	base := Config{BaseURL: "http://x", Rate: 10, Duration: time.Second,
		Mix: []MethodShare{{core.LDM, 1}}, Pool: pool}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no-url", func(c *Config) { c.BaseURL = "" }},
		{"zero-rate", func(c *Config) { c.Rate = 0 }},
		{"zero-duration", func(c *Config) { c.Duration = 0 }},
		{"no-mix", func(c *Config) { c.Mix = nil }},
		{"no-pool", func(c *Config) { c.Pool = nil }},
		{"bad-batch-fraction", func(c *Config) { c.BatchFraction = 1.5 }},
		{"batch-without-size", func(c *Config) { c.BatchFraction = 0.5; c.BatchSize = 0 }},
		{"updates-without-batches", func(c *Config) { c.UpdateEvery = time.Second }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestRunVerify drives the harness as a full client: every /query proof is
// verified individually and every /batch reply travels as shared-encoding
// blobs that batch-verify, with the verification cost in its own phase.
func TestRunVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("load run takes ~1s of wall clock")
	}
	url, pool, _ := liveServer(t)
	mix, err := ParseMix("DIJ=1,LDM=1,HYP=1")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), Config{
		BaseURL:       url,
		Rate:          60,
		Duration:      900 * time.Millisecond,
		Mix:           mix,
		Pool:          pool,
		Locality:      workload.Friendly,
		BatchFraction: 0.4,
		BatchSize:     4,
		Verify:        true,
		Seed:          5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verify {
		t.Error("report does not record verify mode")
	}
	v := rep.Phases[PhaseVerify]
	if v == nil {
		t.Fatal("verify phase missing from report")
	}
	if v.Errors != 0 {
		t.Errorf("verify phase: %d rejections", v.Errors)
	}
	if v.Completed == 0 {
		t.Error("verify phase: nothing verified")
	}
	// One verify entry per query plus one per batch call.
	wantVerifies := rep.Phases[PhaseQuery].Completed + rep.Phases[PhaseBatch].Completed
	if v.Offered != wantVerifies {
		t.Errorf("verify offered %d, want %d (queries %d + batches %d)",
			v.Offered, wantVerifies, rep.Phases[PhaseQuery].Completed, rep.Phases[PhaseBatch].Completed)
	}
	if v.Completed > 0 && v.P50 <= 0 {
		t.Errorf("verify p50 = %v", v.P50)
	}
}
