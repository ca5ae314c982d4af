package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// metricDef names one metric. The tables below are the single list the
// human report, the result line, -repeat and BENCHMARK.json (held to them
// by TestBenchmarkJSONMatchesTables) are all written from.
type metricDef struct {
	name   string
	unit   string
	higher bool // higher is better
	// bound is the share of the baseline median by which runs may differ:
	// for an end-to-end metric the acceptance pipeline's regression bound,
	// for a per-layer metric (BENCHMARK.json gives those none) a bound that
	// -repeat alone holds. 0: a diagnostic.
	bound float64
	// medianOnly: the pipeline holds the medians of two sets of runs to the
	// bound but not the spread within a set, and so does -repeat.
	medianOnly bool
}

// endToEnd is what a user of the system sees, measured untraced against
// the real daemon. Every one is defined on every workload. Every bound is
// 0.25, the widest the acceptance pipeline takes: on the 2-core sandbox this
// was written on, quiet hours gave run-to-run spreads (interquartile range
// over median, ten runs on ten seeds) of 0–7 %, but other hours gave 9 % on
// verified_qps, 12 % on verified_p50_ms and 11 % on server_rss_mb, and a
// bound should be three times what was seen. README.md has the spreads.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25, medianOnly: true},
	{name: "verified_qps", unit: "1/s", higher: true, bound: 0.25},
	{name: "verified_p50_ms", unit: "ms", bound: 0.25},
	{name: "verified_p90_ms", unit: "ms", bound: 0.25},
	{name: "wire_kb_per_answer", unit: "KB", bound: 0.25},
	{name: "server_cpu_ms_per_answer", unit: "ms", bound: 0.25},
	{name: "server_rss_mb", unit: "MB", bound: 0.25},
}

// perMethod expands name.{M} over the served methods.
func perMethod(unit string, higher bool, names ...string) []metricDef {
	var out []metricDef
	for _, n := range names {
		for _, m := range methods {
			out = append(out, metricDef{name: n + "." + string(m), unit: unit, higher: higher})
		}
	}
	return out
}

func defs(unit string, names ...string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{name: n, unit: unit}
	}
	return out
}

// perLayer is everything a traced run reports: the in-process layer
// timings and counts, the serving layer's own counters over the
// end-to-end phase, and the end-to-end diagnostics that exist on some
// workloads only (0 where the workload has no such operation) or that
// cannot hold a bound.
var perLayer = func() []metricDef {
	var out []metricDef
	add := func(ds ...metricDef) { out = append(out, ds...) }
	// set-up
	add(defs("ms", "netgen.build_ms")...)
	add(perMethod("ms", false, "core.outsource_ms")...)
	add(defs("ms", "cert.issue_ms", "snapshot.save_ms")...)
	// provider: search, proof, encoding, engine
	add(defs("us", "sp.search_us")...)
	add(perMethod("us", false, "core.prove_us")...)
	add(perMethod("count", false, "core.prove_allocs")...)
	add(perMethod("us", false, "core.encode_us", "serve.engine_miss_us")...)
	add(defs("us", "serve.engine_hit_us")...)
	add(defs("count", "serve.engine_hit_allocs")...)
	add(perMethod("us", false, "serve.handler_json_us", "serve.handler_binary_us", "serve.loopback_json_us", "serve.transport_self_us")...)
	// client
	add(perMethod("us", false, "client.json_decode_us", "core.decode_us", "core.verify_us")...)
	add(perMethod("count", false, "core.verify_allocs")...)
	add(defs("us", "sig.verify_us", "sig.sign_us")...)
	add(perMethod("B", false, "core.proof_bytes")...)
	// updates
	add(defs("ms", "core.update_ms")...)
	add(defs("count", "core.update_rows_recomputed", "core.update_leaves_patched", "serve.update_invalidated")...)
	// batch wire
	add(defs("us", "core.batch_encode_us", "core.batch_decode_us")...)
	add(perMethod("us", false, "core.verify_batch8_us")...)
	// restart
	add(defs("ms", "snapshot.lazy_open_ms")...)
	add(perMethod("ms", false, "snapshot.first_proof_ms")...)
	add(defs("ms", "snapshot.eager_load_ms", "cert.audit_ms")...)
	// the daemon's /stats over the end-to-end phase
	add(metricDef{name: "serve.hit_rate", unit: "ratio", higher: true})
	add(defs("count", "serve.deduped", "serve.shed")...)
	add(metricDef{name: "serve.flush_mean", unit: "count", higher: true})
	add(metricDef{name: "serve.coalesced_share", unit: "ratio", higher: true})
	add(perMethod("us", false, "serve.server_p50_us", "serve.server_p99_us")...)
	// end-to-end diagnostics
	add(defs("ms", "verified_p99_ms")...)
	add(defs("ratio", "over_20ms_share", "failed_share")...)
	// The next four exist on one workload only, so the pipeline cannot bound
	// them; -repeat holds runs of that workload to these. update_p50_ms has
	// none: over the eight updates of a run its spread reached a third.
	add(defs("ms", "gen_lateness_p99_ms", "update_p50_ms")...)
	add(metricDef{name: "batch_p50_ms", unit: "ms", bound: 0.25},
		metricDef{name: "restart_lazy_ms", unit: "ms", bound: 0.25},
		metricDef{name: "restart_audited_ms", unit: "ms", bound: 0.25},
		metricDef{name: "snapshot_mb", unit: "MB", bound: 0.10})
	add(defs("ms", "proc.client_cpu_ms_per_answer")...)
	add(defs("ratio", "proc.client_gc_cpu_share")...)
	// the ledger
	add(defs("%", "trace.overhead_pct")...)
	add(perMethod("us", false, "ledger.residual_us")...)
	return out
}()

func (m metricDef) arrow() string {
	if m.higher {
		return "↑"
	}
	return " "
}

// printHuman writes one run's report: every end-to-end metric by name and
// unit with its bound, then whatever else was measured.
func (r *result) printHuman(w io.Writer, traced map[string]float64) {
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-32s %12.4f %-5s %s bound %.2f\n", m.name, r.e2e[m.name], m.unit, m.arrow(), m.bound)
	}
	fmt.Fprintf(w, "  -- diagnostics\n")
	for _, name := range sortedKeys(r.diag) {
		fmt.Fprintf(w, "  %-32s %12.4f\n", name, r.diag[name])
	}
	if traced != nil {
		fmt.Fprintf(w, "  -- per layer (traced, in-process)\n")
		for _, name := range sortedKeys(traced) {
			fmt.Fprintf(w, "  %-32s %12.4f\n", name, traced[name])
		}
	}
	var counts []string
	for _, k := range sortedKeys(r.samples) {
		counts = append(counts, fmt.Sprintf("%s=%d", k, r.samples[k]))
	}
	fmt.Fprintf(w, "  samples: %s\n", strings.Join(counts, " "))
	fmt.Fprintf(w, "  attempted=%d failed=%d wrong=%d %v\n", r.attempted, r.failed(), r.wrong, r.fails)
}

// resultLine is the machine-readable last line of a run.
func (r *result) resultLine(traced map[string]float64) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced == nil {
		for _, m := range endToEnd {
			metrics[m.name] = value{r.e2e[m.name], m.unit}
		}
	} else {
		for _, m := range perLayer {
			v, ok := traced[m.name]
			if !ok {
				v = r.diag[m.name] // 0 where this workload has no such operation
			}
			metrics[m.name] = value{v, m.unit}
		}
	}
	line, err := json.Marshal(struct { // fails on a NaN or infinite value
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.wrong == 0, r.attempted, r.failed(), metrics})
	return string(line), err
}
