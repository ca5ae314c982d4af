package main

import (
	"errors"
	"sort"
	"time"

	spv "github.com/authhints/spv"
)

// tally is what a load phase counted. Each generator goroutine fills its
// own and they are merged after the phase, so the timed path takes no lock.
type tally struct {
	lat       []time.Duration // send/due → verified, single queries
	latEnd    []time.Time     // when each of lat completed
	latBy     map[spv.Method][]time.Duration
	batchLat  []time.Duration // due → all items batch-verified
	batchEnd  []time.Time
	updateLat []time.Duration // POST /update → 200
	lateness  []time.Duration // dispatch − due, open loop only
	answers   int             // verified answers; a batch counts each item
	sized     int             // the answers bodyBytes was summed over
	bodyBytes int64
	attempted int
	fails     map[string]int // failure class → operations
	wrong     int            // rejected proofs + distance mismatches
	firstErr  error
}

func newTally() *tally {
	return &tally{latBy: map[spv.Method][]time.Duration{}, fails: map[string]int{}}
}

func (t *tally) fail(err error) {
	class := "other"
	for _, c := range []error{errTransport, errStatus, errShed, errRejected, errMismatch} {
		if errors.Is(err, c) {
			class = c.Error()
		}
	}
	t.fails[class]++
	if errors.Is(err, errRejected) || errors.Is(err, errMismatch) {
		t.wrong++
	}
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) failed() int {
	n := 0
	for _, c := range t.fails {
		n += c
	}
	return n
}

func (t *tally) merge(o *tally) {
	t.lat = append(t.lat, o.lat...)
	t.latEnd = append(t.latEnd, o.latEnd...)
	t.batchEnd = append(t.batchEnd, o.batchEnd...)
	for m, l := range o.latBy {
		t.latBy[m] = append(t.latBy[m], l...)
	}
	t.batchLat = append(t.batchLat, o.batchLat...)
	t.updateLat = append(t.updateLat, o.updateLat...)
	t.lateness = append(t.lateness, o.lateness...)
	t.answers += o.answers
	t.sized += o.sized
	t.bodyBytes += o.bodyBytes
	t.attempted += o.attempted
	t.wrong += o.wrong
	for c, n := range o.fails {
		t.fails[c] += n
	}
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// single records one single-query attempt. Its response size counts toward
// wire_kb_per_answer when sized is set.
func (t *tally) single(c *client, k key, from time.Time, sized bool) {
	t.attempted++
	n, err := c.query(k)
	if err != nil {
		t.fail(err)
		return
	}
	now := time.Now()
	d := now.Sub(from)
	t.lat = append(t.lat, d)
	t.latEnd = append(t.latEnd, now)
	t.latBy[k.method] = append(t.latBy[k.method], d)
	t.answers++
	if sized {
		t.sized++
		t.bodyBytes += int64(n)
	}
}

// result is one run of one workload: the end-to-end metrics, the
// diagnostics that ride along, and the counts that qualify them.
type result struct {
	workload string
	e2e      map[string]float64
	diag     map[string]float64
	samples  map[string]int
	*tally
}

// newResult folds what a timed phase measured into a result: the windowed
// rates and timings, the sizes, and the diagnostics every workload has.
// sortedMS is every latency sample of the phase, for the whole-run tail.
func newResult(name string, setupS, rssMB float64, t *tally, ws []window, sortedMS []float64) *result {
	r := &result{
		workload: name,
		e2e: map[string]float64{
			"setup_s":            setupS,
			"wire_kb_per_answer": float64(t.bodyBytes) / float64(t.sized) / 1000,
			"server_rss_mb":      rssMB,
		},
		diag: map[string]float64{
			"verified_p99_ms": percentile(sortedMS, 0.99),
			"over_20ms_share": shareOver(sortedMS, 20),
			"failed_share":    float64(t.failed()) / float64(t.attempted),
		},
		samples: map[string]int{"verified": len(sortedMS), "windows": len(ws)},
		tally:   t,
	}
	overWindows(ws, r.e2e)
	return r
}

// value is metric name as this run measured it, end-to-end or diagnostic.
func (r *result) value(name string) (float64, bool) {
	if v, ok := r.e2e[name]; ok {
		return v, true
	}
	v, ok := r.diag[name]
	return v, ok
}

// window is one slice of a timed phase. Every end-to-end rate and timing
// is computed per window and reported as the median across windows, so a
// burst of interference from outside spoils one window and not the run.
type window struct {
	wall    time.Duration
	answers int
	lat     []time.Duration // boot or single-query latencies that completed in it
	cpu     time.Duration   // daemon CPU spent in it
}

// windowsPerRun divides every timed phase, whatever -seconds makes its
// length: 2 s windows at the pipeline's 16 s. On `churn` each window holds
// one update.
const windowsPerRun = 8

// overWindows folds windows into the four windowed end-to-end metrics.
func overWindows(ws []window, into map[string]float64) {
	var qps, p50, p90, cpu []float64
	for _, w := range ws {
		if w.answers == 0 {
			continue
		}
		lat := ms(w.lat)
		qps = append(qps, float64(w.answers)/w.wall.Seconds())
		p50 = append(p50, percentile(lat, 0.50))
		p90 = append(p90, percentile(lat, 0.90))
		cpu = append(cpu, float64(w.cpu)/float64(time.Millisecond)/float64(w.answers))
	}
	into["verified_qps"] = median(qps)
	into["verified_p50_ms"] = median(p50)
	into["verified_p90_ms"] = median(p90)
	into["server_cpu_ms_per_answer"] = median(cpu)
}

func shareOver(sortedMS []float64, limit float64) float64 {
	if len(sortedMS) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(sortedMS, limit)
	return float64(len(sortedMS)-i) / float64(len(sortedMS))
}

// statsDiag reads the serving layer's own counters over the phase: how
// the cache, the singleflight and the micro-batching pipeline took part.
// The per-method latency summaries are the daemon's lifetime figures (the
// histogram cannot be differenced), so on `hot` they include the warm-up
// misses.
func statsDiag(diag map[string]float64, before, after spv.ServeStats) {
	if q := after.Queries - before.Queries; q > 0 {
		diag["serve.hit_rate"] = float64(after.Hits-before.Hits) / float64(q)
	}
	diag["serve.deduped"] = float64(after.Deduped - before.Deduped)
	if b, a := before.Pipeline, after.Pipeline; a != nil && b != nil {
		diag["serve.shed"] = float64(a.Shed - b.Shed)
		if n := a.Flushes - b.Flushes; n > 0 {
			diag["serve.flush_mean"] = (a.FlushMean*float64(a.Flushes) - b.FlushMean*float64(b.Flushes)) / float64(n)
		}
		var coalesced, solo int64
		for m, am := range a.Methods {
			coalesced += am.Coalesced - b.Methods[m].Coalesced
			solo += am.Solo - b.Methods[m].Solo
		}
		if coalesced+solo > 0 {
			diag["serve.coalesced_share"] = float64(coalesced) / float64(coalesced+solo)
		}
	}
	for m, l := range after.Latency {
		diag["serve.server_p50_us."+string(m)] = float64(l.P50) / float64(time.Microsecond)
		diag["serve.server_p99_us."+string(m)] = float64(l.P99) / float64(time.Microsecond)
	}
}
