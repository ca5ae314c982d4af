package loadgen

import (
	"time"

	"github.com/authhints/spv/internal/hist"
	"github.com/authhints/spv/internal/serve"
)

// Schema identifies the load report wire format.
const Schema = "spv-load/v1"

// Phase names one traffic class; each gets its own latency histogram so a
// slow update can never hide inside the query percentiles (or vice versa).
type Phase string

const (
	// PhaseQuery is single GET /query traffic.
	PhaseQuery Phase = "query"
	// PhaseBatch is POST /batch traffic.
	PhaseBatch Phase = "batch"
	// PhaseUpdate is POST /update traffic (owner-side re-weighting).
	PhaseUpdate Phase = "update"
	// PhaseSnapshot is POST /snapshot traffic (full state save).
	PhaseSnapshot Phase = "snapshot"
	// PhaseVerify is client-side proof verification (Config.Verify): one
	// entry per verified /query response or /batch blob, measuring pure
	// verification time (decode + signature + re-execution), not transport.
	PhaseVerify Phase = "verify"
)

// PhaseStats is one phase's ledger: every scheduled arrival is accounted
// for as completed, failed, dropped, or shed — achieved throughput can be
// honestly compared against offered only if nothing vanishes
// (Completed + Errors + Dropped + Shed == Offered, pinned by test).
type PhaseStats struct {
	// Offered counts scheduled arrivals in the measured window; OfferedQPS
	// is the rate the open-loop schedule demanded.
	Offered    int64   `json:"offered"`
	OfferedQPS float64 `json:"offered_qps"`
	// Completed counts requests that finished with a 2xx (and, for /batch,
	// no per-item errors); AchievedQPS is Completed over the window.
	Completed   int64   `json:"completed"`
	AchievedQPS float64 `json:"achieved_qps"`
	// Errors counts transport failures, non-2xx statuses and per-item
	// batch errors; Dropped counts arrivals abandoned because the in-flight
	// cap was hit (the open-loop signal that the server has fallen over).
	Errors  int64 `json:"errors"`
	Dropped int64 `json:"dropped"`
	// Shed counts requests the server refused with 503 under deadline
	// pressure (Config.Budget). A shed is the server keeping its latency
	// promise, not breaking one: it is neither a completion nor an error,
	// and its turnaround is excluded from the latency quantiles below.
	Shed int64 `json:"shed"`
	// Latency quantiles are measured from the *scheduled* arrival time,
	// not the actual send — a stalled server queues arrivals and the queue
	// wait lands in the percentiles (coordinated-omission avoidance).
	// Durations are nanoseconds.
	P50  time.Duration `json:"p50_ns"`
	P90  time.Duration `json:"p90_ns"`
	P99  time.Duration `json:"p99_ns"`
	P999 time.Duration `json:"p999_ns"`
	Mean time.Duration `json:"mean_ns"`
	Max  time.Duration `json:"max_ns"`
	// Buckets is the compact histogram dump (non-empty buckets only), the
	// artifact form plots are rebuilt from.
	Buckets []hist.Bucket `json:"buckets,omitempty"`
}

// fill populates the derived fields from a finished histogram over a
// measurement window.
func (p *PhaseStats) fill(h *hist.Histogram, window time.Duration) {
	s := h.Snapshot()
	p.Completed = s.Count() - p.Errors
	if p.Completed < 0 {
		p.Completed = 0
	}
	if window > 0 {
		p.AchievedQPS = float64(p.Completed) / window.Seconds()
	}
	p.P50 = time.Duration(s.Quantile(0.50))
	p.P90 = time.Duration(s.Quantile(0.90))
	p.P99 = time.Duration(s.Quantile(0.99))
	p.P999 = time.Duration(s.Quantile(0.999))
	p.Mean = time.Duration(s.Mean())
	p.Max = time.Duration(s.MaxValue())
	p.Buckets = s.Buckets()
}

// StatsDelta cross-checks the client-side ledger against the server's own
// /stats counters: Before and After are verbatim server snapshots, the
// scalar fields their differences over the run.
type StatsDelta struct {
	Queries          int64   `json:"queries"`
	Hits             int64   `json:"hits"`
	Misses           int64   `json:"misses"`
	Deduped          int64   `json:"deduped"`
	Errors           int64   `json:"errors"`
	Shed             int64   `json:"shed"`
	HitRate          float64 `json:"hit_rate"`
	EpochDelta       int64   `json:"epoch_delta"`
	LeavesPatched    int64   `json:"leaves_patched"`
	CacheInvalidated int64   `json:"cache_invalidated"`

	Before serve.Snapshot `json:"before"`
	After  serve.Snapshot `json:"after"`
}

func delta(before, after serve.Snapshot) StatsDelta {
	d := StatsDelta{
		Queries:          after.Queries - before.Queries,
		Hits:             after.Hits - before.Hits,
		Misses:           after.Misses - before.Misses,
		Deduped:          after.Deduped - before.Deduped,
		Errors:           after.Errors - before.Errors,
		EpochDelta:       after.Epoch - before.Epoch,
		LeavesPatched:    after.LeavesPatched - before.LeavesPatched,
		CacheInvalidated: after.CacheInvalidated - before.CacheInvalidated,
		Before:           before,
		After:            after,
	}
	// The shed counters live on the admission ("pipeline") block of
	// /stats; a server too old to send one simply reports zero shed.
	if after.Pipeline != nil {
		d.Shed = after.Pipeline.Shed
		if before.Pipeline != nil {
			d.Shed -= before.Pipeline.Shed
		}
	}
	if d.Queries > 0 {
		d.HitRate = float64(d.Hits) / float64(d.Queries)
	}
	return d
}

// Report is one load run's complete result document.
type Report struct {
	Schema   string        `json:"schema"`
	BaseURL  string        `json:"base_url"`
	Rate     float64       `json:"rate_qps"`
	Duration time.Duration `json:"duration_ns"`
	Warmup   time.Duration `json:"warmup_ns"`
	Locality string        `json:"locality"`
	Mix      string        `json:"mix"`
	// Budget is the per-query deadline sent as X-SPV-Budget (0 = none).
	Budget time.Duration `json:"budget_ns,omitempty"`
	Seed   int64         `json:"seed"`
	// Verify records whether the driver verified every proof client-side
	// (see PhaseVerify for the cost it measured).
	Verify bool `json:"verify"`
	// CPUs is runtime.NumCPU on the driving host — load numbers from a
	// 1-CPU box measure contention between driver and server, and the CI
	// gate refuses to compare across different budgets.
	CPUs   int                   `json:"cpus"`
	Phases map[Phase]*PhaseStats `json:"phases"`
	Stats  StatsDelta            `json:"stats_delta"`
}
