// Package loadgen is an open-loop HTTP load harness for spvserve-shaped
// servers: it schedules request arrivals on a fixed-rate clock (arrivals
// do not wait for responses — a slow server faces a growing backlog, like
// it would in production), drives realistic traffic mixes drawn from
// internal/workload pools, optionally injects concurrent owner-side
// update batches and snapshot saves, and records per-phase HDR-style
// latency histograms plus server /stats deltas.
//
// The open-loop choice is deliberate: a closed-loop driver (send, wait,
// send) throttles itself to exactly the server's pace, so measured
// latency stays flat while real queueing delay is silently shifted into
// the driver — the coordinated-omission trap. Here latency is measured
// from each request's *scheduled* arrival time, so server stalls surface
// as tail latency, and arrivals that cannot even launch (in-flight cap)
// are counted as drops rather than quietly ignored.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/authhints/spv/internal/core"
	"github.com/authhints/spv/internal/hist"
	"github.com/authhints/spv/internal/serve"
	"github.com/authhints/spv/internal/sig"
	"github.com/authhints/spv/internal/workload"
)

// MethodShare is one entry of a weighted method mix.
type MethodShare struct {
	Method core.Method
	Weight float64
}

// ParseMix parses "DIJ=2,LDM=1,HYP=1" (or "LDM" shorthand for weight 1)
// into a mix; weights must be positive.
func ParseMix(s string) ([]MethodShare, error) {
	var out []MethodShare
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weightStr, found := strings.Cut(part, "=")
		w := 1.0
		if found {
			if _, err := fmt.Sscanf(weightStr, "%g", &w); err != nil || w <= 0 {
				return nil, fmt.Errorf("loadgen: bad weight in mix entry %q", part)
			}
		}
		out = append(out, MethodShare{Method: core.Method(strings.ToUpper(strings.TrimSpace(name))), Weight: w})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("loadgen: empty mix %q", s)
	}
	return out, nil
}

// FormatMix renders a mix back to the flag syntax (for reports).
func FormatMix(mix []MethodShare) string {
	parts := make([]string, len(mix))
	for i, ms := range mix {
		parts[i] = fmt.Sprintf("%s=%g", ms.Method, ms.Weight)
	}
	return strings.Join(parts, ",")
}

// Config parameterizes one load run.
type Config struct {
	// BaseURL is the server under test, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Rate is the offered arrival rate in requests/sec for query+batch
	// traffic (each /batch call counts as one arrival).
	Rate float64
	// Duration is the measured window; Warmup (optional) runs the same
	// traffic before it without recording, so connection setup and cache
	// fill don't pollute the histograms.
	Duration time.Duration
	Warmup   time.Duration
	// Mix is the weighted method mix; Pool supplies the endpoint pairs.
	Mix  []MethodShare
	Pool *workload.Pool
	// BatchFraction of arrivals become POST /batch calls of BatchSize
	// queries each (0 disables batching).
	BatchFraction float64
	BatchSize     int
	// UpdateEvery injects one POST /update batch at this cadence (0
	// disables). Batches cycle through UpdateBatches; updates run
	// closed-loop (one at a time — the server serializes them anyway).
	UpdateEvery   time.Duration
	UpdateBatches [][]core.EdgeUpdate
	// SnapshotAt lists offsets into the measured window at which to POST
	// /snapshot.
	SnapshotAt []time.Duration
	// Locality records the pool's distribution in the report (the pool is
	// already built; this is documentation, not behavior).
	Locality workload.Locality
	// Budget, when positive, is sent as the X-SPV-Budget header on every
	// /query and /batch: the server sheds the request with 503 instead of
	// answering late when admission cannot meet the budget. Shed responses
	// form their own ledger class (PhaseStats.Shed) — they are neither
	// completions nor errors, and their turnaround never enters the latency
	// histograms (a fast refusal is not service).
	Budget time.Duration
	// Verify turns the driver into a full client: it bootstraps the owner's
	// public key from GET /verifier, verifies every /query proof, asks
	// /batch for the shared proof encoding and batch-verifies each blob.
	// Verification time lands in its own phase histogram (PhaseVerify);
	// rejected proofs count as verify errors, never as transport errors.
	Verify bool
	// Timeout bounds one request (default 15s). MaxInFlight caps launched
	// goroutines (default 1024); arrivals past the cap are dropped and
	// reported. Seed drives the method/batch coin flips.
	Timeout     time.Duration
	MaxInFlight int
	Seed        int64
}

func (c *Config) validate() error {
	if c.BaseURL == "" {
		return fmt.Errorf("loadgen: BaseURL required")
	}
	if c.Rate <= 0 {
		return fmt.Errorf("loadgen: Rate must be positive, got %v", c.Rate)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("loadgen: Duration must be positive, got %v", c.Duration)
	}
	if len(c.Mix) == 0 {
		return fmt.Errorf("loadgen: empty method mix")
	}
	if c.Pool == nil {
		return fmt.Errorf("loadgen: nil query pool")
	}
	if c.BatchFraction < 0 || c.BatchFraction > 1 {
		return fmt.Errorf("loadgen: BatchFraction %v outside [0,1]", c.BatchFraction)
	}
	if c.BatchFraction > 0 && c.BatchSize <= 0 {
		return fmt.Errorf("loadgen: BatchFraction set but BatchSize is %d", c.BatchSize)
	}
	if c.UpdateEvery > 0 && len(c.UpdateBatches) == 0 {
		return fmt.Errorf("loadgen: UpdateEvery set but no UpdateBatches")
	}
	return nil
}

// run carries one load run's live state.
type run struct {
	cfg      Config
	client   *http.Client
	rng      *rand.Rand
	cum      []float64     // cumulative mix weights, normalized
	verifier *sig.Verifier // non-nil iff cfg.Verify

	sem    chan struct{}
	wg     sync.WaitGroup
	hists  map[Phase]*hist.Histogram
	errs   map[Phase]*atomic.Int64
	booked map[Phase]*atomic.Int64 // offered (scheduled in window)
	drops  map[Phase]*atomic.Int64
	sheds  map[Phase]*atomic.Int64
}

// errShed marks a request the server refused under deadline pressure
// (HTTP 503 from the admission queue). It is its own ledger class: the
// dispatcher counts it in sheds, never in errs, and never records its
// turnaround in the latency histogram.
var errShed = errors.New("loadgen: request shed by server")

// Run executes one load run against a live server and returns its report.
// The context cancels the run early (the report covers what ran).
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 15 * time.Second
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 1024
	}
	r := &run{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		client: &http.Client{
			Timeout: cfg.Timeout,
			Transport: &http.Transport{
				MaxIdleConns:        cfg.MaxInFlight,
				MaxIdleConnsPerHost: cfg.MaxInFlight,
			},
		},
		sem:    make(chan struct{}, cfg.MaxInFlight),
		hists:  map[Phase]*hist.Histogram{},
		errs:   map[Phase]*atomic.Int64{},
		booked: map[Phase]*atomic.Int64{},
		drops:  map[Phase]*atomic.Int64{},
		sheds:  map[Phase]*atomic.Int64{},
	}
	for _, ph := range []Phase{PhaseQuery, PhaseBatch, PhaseUpdate, PhaseSnapshot, PhaseVerify} {
		r.hists[ph] = &hist.Histogram{}
		r.errs[ph] = &atomic.Int64{}
		r.booked[ph] = &atomic.Int64{}
		r.drops[ph] = &atomic.Int64{}
		r.sheds[ph] = &atomic.Int64{}
	}
	total := 0.0
	for _, ms := range cfg.Mix {
		if ms.Weight <= 0 {
			return nil, fmt.Errorf("loadgen: non-positive weight for %s", ms.Method)
		}
		total += ms.Weight
		r.cum = append(r.cum, total)
	}
	for i := range r.cum {
		r.cum[i] /= total
	}

	if cfg.Verify {
		v, err := r.fetchVerifier(ctx)
		if err != nil {
			return nil, fmt.Errorf("loadgen: /verifier: %w", err)
		}
		r.verifier = v
	}

	before, err := r.fetchStats(ctx)
	if err != nil {
		return nil, fmt.Errorf("loadgen: /stats before run: %w", err)
	}

	start := time.Now()
	measureFrom := start.Add(cfg.Warmup)
	end := measureFrom.Add(cfg.Duration)

	runCtx, cancel := context.WithDeadline(ctx, end)
	defer cancel()

	var aux sync.WaitGroup
	if cfg.UpdateEvery > 0 {
		aux.Add(1)
		go func() {
			defer aux.Done()
			r.updateLoop(runCtx, measureFrom)
		}()
	}
	for _, at := range cfg.SnapshotAt {
		aux.Add(1)
		go func(at time.Duration) {
			defer aux.Done()
			r.snapshotAt(runCtx, measureFrom.Add(at))
		}(at)
	}

	r.dispatch(runCtx, ctx, start, measureFrom, end)
	r.wg.Wait() // measured-traffic goroutines
	aux.Wait()

	after, err := r.fetchStats(ctx)
	if err != nil {
		return nil, fmt.Errorf("loadgen: /stats after run: %w", err)
	}

	return r.report(before, after), nil
}

// dispatch is the open-loop arrival clock: arrival i is scheduled at
// start + i/Rate, unconditionally. If the clock has slipped past the next
// arrival time the request fires immediately (the backlog is real load);
// the loop never waits for responses. Scheduling stops at schedCtx's
// deadline (the window end), but launched requests run under reqCtx so
// in-flight tails complete and are measured rather than cancelled into
// phantom errors.
func (r *run) dispatch(schedCtx, reqCtx context.Context, start, measureFrom, end time.Time) {
	interval := time.Duration(float64(time.Second) / r.cfg.Rate)
	for i := int64(0); ; i++ {
		at := start.Add(time.Duration(i) * interval)
		if !at.Before(end) {
			return
		}
		if d := time.Until(at); d > 0 {
			select {
			case <-schedCtx.Done():
				return
			case <-time.After(d):
			}
		} else if schedCtx.Err() != nil {
			return
		}
		// Drawing on the dispatcher goroutine keeps the request sequence
		// deterministic per seed regardless of completion order.
		measured := !at.Before(measureFrom)
		isBatch := r.cfg.BatchFraction > 0 && r.rng.Float64() < r.cfg.BatchFraction
		ph := PhaseQuery
		if isBatch {
			ph = PhaseBatch
		}
		var reqFn func() error
		if isBatch {
			qs := make([]serve.Query, r.cfg.BatchSize)
			for j := range qs {
				qs[j] = r.drawQuery()
			}
			reqFn = func() error { return r.doBatch(reqCtx, qs, measured) }
		} else {
			q := r.drawQuery()
			reqFn = func() error { return r.doQuery(reqCtx, q, measured) }
		}
		if measured {
			r.booked[ph].Add(1)
		}
		select {
		case r.sem <- struct{}{}:
		default:
			// In-flight cap reached: the server (or the driver host) cannot
			// absorb the offered rate. Dropping — and saying so — is the
			// honest open-loop outcome; blocking here would turn the
			// harness closed-loop exactly when the measurement matters.
			if measured {
				r.drops[ph].Add(1)
			}
			continue
		}
		r.wg.Add(1)
		go func() {
			defer func() { <-r.sem; r.wg.Done() }()
			err := reqFn()
			if !measured {
				return
			}
			// Shed responses are a third outcome, not failures: the server
			// honored the deadline contract by refusing fast. Counting them
			// as errors would punish shedding; recording their (tiny)
			// turnaround would pollute the service-latency percentiles.
			if errors.Is(err, errShed) {
				r.sheds[ph].Add(1)
				return
			}
			// Latency from the scheduled arrival: queue wait included.
			if err != nil {
				r.errs[ph].Add(1)
			}
			r.hists[ph].Record(int64(time.Since(at)))
		}()
	}
}

func (r *run) drawQuery() serve.Query {
	q := r.cfg.Pool.Next()
	x := r.rng.Float64()
	m := r.cfg.Mix[len(r.cfg.Mix)-1].Method
	for i, c := range r.cum {
		if x < c {
			m = r.cfg.Mix[i].Method
			break
		}
	}
	return serve.Query{Method: m, VS: q.S, VT: q.T}
}

// doQuery fetches one binary proof; the body is drained so the connection
// is reusable and the server actually did the work. Under Config.Verify
// the proof is decoded and checked against the served key, with the pure
// verification time recorded in PhaseVerify.
func (r *run) doQuery(ctx context.Context, q serve.Query, measured bool) error {
	url := fmt.Sprintf("%s/query?method=%s&vs=%d&vt=%d&format=binary", r.cfg.BaseURL, q.Method, q.VS, q.VT)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	r.setBudget(req)
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable {
		io.Copy(io.Discard, resp.Body)
		return errShed
	}
	if r.verifier != nil {
		wire, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("query status %d", resp.StatusCode)
		}
		if len(wire) == 0 {
			return fmt.Errorf("query returned empty proof")
		}
		start := time.Now()
		pr, _, err := core.DecodeProof(q.Method, wire)
		if err == nil {
			err = core.VerifyProof(r.verifier, q.Method, q.VS, q.VT, pr)
		}
		// Verify-phase entries follow the measurement window like every
		// other phase: warmup verifies run but are not recorded.
		if measured {
			r.booked[PhaseVerify].Add(1)
			if err != nil {
				r.errs[PhaseVerify].Add(1)
			}
			r.hists[PhaseVerify].Record(int64(time.Since(start)))
		}
		return err
	}
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("query status %d", resp.StatusCode)
	}
	if n == 0 {
		return fmt.Errorf("query returned empty proof")
	}
	return nil
}

// doBatch posts one batch and fails on any per-item error — a batch that
// "succeeds" while its items fail would hide errors from the run ledger.
// Under Config.Verify the request opts into the shared proof encoding and
// every returned blob is batch-verified (PhaseVerify records one entry per
// /batch call, covering all its blobs).
func (r *run) doBatch(ctx context.Context, qs []serve.Query, measured bool) error {
	breq := struct {
		Queries  []serve.Query `json:"queries"`
		Encoding string        `json:"encoding,omitempty"`
	}{Queries: qs}
	if r.verifier != nil {
		breq.Encoding = "shared"
	}
	body, err := json.Marshal(breq)
	if err != nil {
		return err
	}
	resp, err := r.post(ctx, "/batch", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable {
		io.Copy(io.Discard, resp.Body)
		return errShed
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("batch status %d", resp.StatusCode)
	}
	var rep struct {
		Answers []struct {
			Error string `json:"error"`
			Bytes int    `json:"proof_bytes"`
		} `json:"answers"`
		Batches []proofBlob `json:"proof_batches"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return fmt.Errorf("batch decode: %w", err)
	}
	if len(rep.Answers) != len(qs) {
		return fmt.Errorf("batch returned %d answers for %d queries", len(rep.Answers), len(qs))
	}
	for _, a := range rep.Answers {
		if a.Error != "" {
			return fmt.Errorf("batch item: %s", a.Error)
		}
	}
	if r.verifier == nil {
		return nil
	}
	start := time.Now()
	verr := r.verifyBlobs(len(qs), rep.Batches)
	if measured {
		r.booked[PhaseVerify].Add(1)
		if verr != nil {
			r.errs[PhaseVerify].Add(1)
		}
		r.hists[PhaseVerify].Record(int64(time.Since(start)))
	}
	return verr
}

// proofBlob mirrors one serve.wireBatch entry of a shared-encoding /batch
// reply.
type proofBlob struct {
	Method core.Method `json:"method"`
	Items  []int       `json:"items"`
	Batch  []byte      `json:"batch"`
}

// verifyBlobs decodes and batch-verifies every shared-encoding blob of one
// /batch reply, checking that the blobs jointly cover all n answers.
func (r *run) verifyBlobs(n int, blobs []proofBlob) error {
	covered := 0
	for _, b := range blobs {
		pb, bn, err := core.DecodeProofBatch(b.Batch)
		if err != nil || bn != len(b.Batch) {
			return fmt.Errorf("%s blob decode: %v", b.Method, err)
		}
		if pb.Method != b.Method || pb.Len() != len(b.Items) {
			return fmt.Errorf("%s blob shape: method %s, %d items for %d indexes",
				b.Method, pb.Method, pb.Len(), len(b.Items))
		}
		for i, err := range core.VerifyBatch(r.verifier, b.Method, pb.Items()) {
			if err != nil {
				return fmt.Errorf("%s blob item %d: %w", b.Method, i, err)
			}
		}
		covered += len(b.Items)
	}
	if covered != n {
		return fmt.Errorf("blobs cover %d of %d answers", covered, n)
	}
	return nil
}

func (r *run) post(ctx context.Context, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.cfg.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	r.setBudget(req)
	return r.client.Do(req)
}

// setBudget stamps the run's latency budget, if any, on a request; only
// /query and /batch read the header.
func (r *run) setBudget(req *http.Request) {
	if r.cfg.Budget > 0 {
		req.Header.Set("X-SPV-Budget", r.cfg.Budget.String())
	}
}

// updateLoop fires one update batch per tick, closed-loop, cycling the
// configured batches. Ticks lost to a slow server are skipped, not queued
// — the cadence is an operator intent, not an arrival process.
func (r *run) updateLoop(ctx context.Context, measureFrom time.Time) {
	tick := time.NewTicker(r.cfg.UpdateEvery)
	defer tick.Stop()
	for i := 0; ; i++ {
		select {
		case <-ctx.Done():
			return
		case at := <-tick.C:
			batch := r.cfg.UpdateBatches[i%len(r.cfg.UpdateBatches)]
			if !at.Before(measureFrom) {
				r.booked[PhaseUpdate].Add(1)
			}
			body, err := json.Marshal(struct {
				Updates []core.EdgeUpdate `json:"updates"`
			}{batch})
			if err != nil {
				r.errs[PhaseUpdate].Add(1)
				continue
			}
			start := time.Now()
			resp, err := r.post(ctx, "/update", body)
			ok := err == nil && resp.StatusCode == http.StatusOK
			if resp != nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			if at.Before(measureFrom) {
				continue
			}
			if !ok {
				// A cancellation mid-flight at run end is teardown, not a
				// server failure.
				if ctx.Err() != nil {
					r.booked[PhaseUpdate].Add(-1)
					return
				}
				r.errs[PhaseUpdate].Add(1)
			}
			r.hists[PhaseUpdate].Record(int64(time.Since(start)))
		}
	}
}

// snapshotAt fires one POST /snapshot at the given wall time.
func (r *run) snapshotAt(ctx context.Context, at time.Time) {
	select {
	case <-ctx.Done():
		return
	case <-time.After(time.Until(at)):
	}
	r.booked[PhaseSnapshot].Add(1)
	start := time.Now()
	resp, err := r.post(ctx, "/snapshot", nil)
	ok := err == nil && resp.StatusCode == http.StatusOK
	if resp != nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if !ok {
		if ctx.Err() != nil {
			r.booked[PhaseSnapshot].Add(-1)
			return
		}
		r.errs[PhaseSnapshot].Add(1)
	}
	r.hists[PhaseSnapshot].Record(int64(time.Since(start)))
}

// fetchVerifier bootstraps the owner's public key from GET /verifier —
// the out-of-band trust anchor every real client starts from.
func (r *run) fetchVerifier(ctx context.Context) (*sig.Verifier, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.cfg.BaseURL+"/verifier", nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	pem, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("verifier status %d", resp.StatusCode)
	}
	return sig.ParseVerifierPEM(pem)
}

func (r *run) fetchStats(ctx context.Context) (serve.Snapshot, error) {
	var s serve.Snapshot
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.cfg.BaseURL+"/stats", nil)
	if err != nil {
		return s, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("stats status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&s)
	return s, err
}

func (r *run) report(before, after serve.Snapshot) *Report {
	rep := &Report{
		Schema:   Schema,
		BaseURL:  r.cfg.BaseURL,
		Rate:     r.cfg.Rate,
		Duration: r.cfg.Duration,
		Warmup:   r.cfg.Warmup,
		Locality: string(r.cfg.Locality),
		Mix:      FormatMix(r.cfg.Mix),
		Budget:   r.cfg.Budget,
		Seed:     r.cfg.Seed,
		Verify:   r.cfg.Verify,
		CPUs:     runtime.NumCPU(),
		Phases:   map[Phase]*PhaseStats{},
		Stats:    delta(before, after),
	}
	for ph, h := range r.hists {
		ps := &PhaseStats{
			Offered: r.booked[ph].Load(),
			Errors:  r.errs[ph].Load(),
			Dropped: r.drops[ph].Load(),
			Shed:    r.sheds[ph].Load(),
		}
		if ps.Offered == 0 && h.Count() == 0 {
			continue // phase never ran (e.g. no updates configured)
		}
		if window := r.cfg.Duration; window > 0 {
			ps.OfferedQPS = float64(ps.Offered) / window.Seconds()
		}
		ps.fill(h, r.cfg.Duration)
		rep.Phases[ph] = ps
	}
	return rep
}
