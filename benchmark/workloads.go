package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	spv "github.com/authhints/spv"
	"github.com/authhints/spv/internal/loadgen"
	"github.com/authhints/spv/internal/workload"
)

const (
	churnRate     = 100.0 // arrivals per second, singles and batches together
	batchEvery    = 10    // every tenth arrival is a POST /batch
	batchSize     = 8
	updateBatches = 16 // single-edge perturbations, then their 16 restores
	gateProofs    = 32
	setupStarts   = 5 // cold starts behind one setup_s
	lazyPerRound  = 2 // restart boots two lazy replicas, then an audited one
	// wireSample is how many requests from the start of a closed loop's walk
	// wire_kb_per_answer is taken over: four whole cycles on `hot`, the
	// first 1,024 pairs on `cold`. How many requests a timed loop gets
	// through follows the clock; these it always reaches, so the figure
	// repeats exactly per seed.
	wireSample = 3072
)

// env is what every workload of one process shares.
type env struct {
	bin     string // spvserve binary
	tmp     string // per-process scratch, removed on exit
	keyPath string // owner key every daemon runs with
	signer  *spv.Signer
	g       *spv.Graph
	nproc   int
	seed    int64
	seconds time.Duration // length of every timed phase
	win     time.Duration // seconds / windowsPerRun
	admin   *http.Client  // /stats and /verifier, off the measured connections
}

// bootDaemon measures setup_s — setupStarts cold starts of the same
// command, the benchmark idle throughout, median reported — and keeps the
// last daemon running for the workload.
func (e *env) bootDaemon(ctx context.Context, args ...string) (*daemon, float64, error) {
	args = append(append(worldFlags(), "-key", e.keyPath), args...)
	var starts []float64
	for i := 0; ; i++ {
		d, err := startDaemon(ctx, e.bin, filepath.Join(e.tmp, "daemon.log"), args...)
		if err != nil {
			return nil, 0, err
		}
		starts = append(starts, d.startup.Seconds())
		if i == setupStarts-1 {
			return d, median(starts), nil
		}
		d.stop()
	}
}

// closedLoop drives `clients` verifying clients, each sending its next
// request when its previous answer has verified, over the cyclic key walk
// starting at request index `from`. It stops after `count` requests
// (count > 0) or once `dur` has passed, and returns the merged tally.
func closedLoop(ctx context.Context, base string, v *spv.Verifier, pool []spv.Query, clients, from, count int, dur time.Duration) *tally {
	var next atomic.Int64
	next.Store(int64(from))
	tallies := make([]*tally, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		tallies[c] = newTally()
		go func(t *tally) {
			defer wg.Done()
			cl := newClient(base, v, true)
			defer cl.close()
			for {
				i := int(next.Add(1) - 1)
				if count > 0 && i >= from+count {
					return
				}
				if (count == 0 && time.Since(start) >= dur) || ctx.Err() != nil {
					return
				}
				t.single(cl, keyAt(pool, i), time.Now(), i < from+wireSample)
			}
		}(tallies[c])
	}
	wg.Wait()
	total := newTally()
	for _, t := range tallies {
		total.merge(t)
	}
	return total
}

// phase brackets a timed load phase with what is read off the daemon and
// the benchmark process around it, and samples the daemon's CPU clock at
// every window boundary while the phase runs.
type phase struct {
	d        *daemon
	e        *env
	before   spv.ServeStats
	selfCPU0 time.Duration
	gc0      cpuSeconds
	start    time.Time
	cpuAt    []time.Duration // daemon CPU at start and at the end of every window
	sampled  chan error      // the sampler's verdict once it has read the last boundary
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuSeconds is the benchmark process's CPU as the Go runtime accounts it
// (as of its last collection): the collector's, and everything not idle.
type cpuSeconds struct{ gc, busy float64 }

func runtimeCPU() cpuSeconds {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuSeconds{gc: s[0].Value.Float64(), busy: s[1].Value.Float64() - s[2].Value.Float64()}
}

func (e *env) beginPhase(ctx context.Context, d *daemon) (*phase, error) {
	before, err := d.stats(e.admin)
	if err != nil {
		return nil, err
	}
	cpu0, err := d.cpuNow()
	if err != nil {
		return nil, err
	}
	p := &phase{
		d: d, e: e, before: before, selfCPU0: selfCPU(), gc0: runtimeCPU(),
		cpuAt: []time.Duration{cpu0}, sampled: make(chan error, 1),
	}
	p.start = time.Now()
	go func() {
		// Every phase runs for e.seconds at least, so the sampler ends with
		// the phase.
		for w := 1; w <= windowsPerRun; w++ {
			select {
			case <-time.After(time.Until(p.start.Add(time.Duration(w) * e.win))):
			case <-ctx.Done():
				p.sampled <- ctx.Err()
				return
			}
			cpu, err := d.cpuNow()
			if err != nil {
				p.sampled <- err
				return
			}
			p.cpuAt = append(p.cpuAt, cpu)
		}
		p.sampled <- nil
	}()
	return p, nil
}

// end stops the daemon and folds the phase's tally into a result.
func (p *phase) end(name string, setupS float64, t *tally) (*result, error) {
	selfCPU1, gc1 := selfCPU(), runtimeCPU()
	if err := <-p.sampled; err != nil {
		return nil, err
	}
	after, err := p.d.stats(p.e.admin)
	if err != nil {
		return nil, err
	}
	u := p.d.stop()
	if t.answers == 0 {
		return nil, fmt.Errorf("%s: no verified answer: %v", name, t.firstErr)
	}
	// Only whole windows count: the tail after the last sampled boundary
	// is load that was cut short.
	ws := make([]window, len(p.cpuAt)-1)
	for w := range ws {
		ws[w] = window{wall: p.e.win, cpu: p.cpuAt[w+1] - p.cpuAt[w]}
	}
	at := func(end time.Time) *window {
		if w := int(end.Sub(p.start) / p.e.win); w < len(ws) {
			return &ws[w]
		}
		return &window{}
	}
	for i, end := range t.latEnd {
		w := at(end)
		w.answers++
		w.lat = append(w.lat, t.lat[i])
	}
	for _, end := range t.batchEnd {
		at(end).answers += batchSize
	}
	r := newResult(name, setupS, u.rssMB, t, ws, ms(t.lat))
	r.diag["proc.client_cpu_ms_per_answer"] = float64(selfCPU1-p.selfCPU0) / float64(time.Millisecond) / float64(t.answers)
	// What collection the fixed heap budget (generatorGC) leaves in the
	// client half; under the default pacer it was about half.
	r.diag["proc.client_gc_cpu_share"] = (gc1.gc - p.gc0.gc) / (gc1.busy - p.gc0.busy)
	statsDiag(r.diag, p.before, after)
	return r, nil
}

// gate fetches the key the daemon publishes, requires it to be the owner
// key this benchmark generated — a client takes the key out of band, and
// a daemon serving some other key is some other world — and runs the
// tamper gate before anything is timed.
func (e *env) gate(d *daemon, pool []spv.Query, batches bool) (*spv.Verifier, error) {
	v, err := d.verifier(e.admin)
	if err != nil {
		return nil, err
	}
	if !v.Equal(e.signer.Verifier()) {
		return nil, fmt.Errorf("daemon publishes a verifier that is not the benchmark's owner key")
	}
	// The gate always checks distances: it runs before any update lands.
	c := newClient(d.base, v, true)
	defer c.close()
	return v, c.tamperGate(pool, gateProofs, batches)
}

// runQuery is `cold` and `hot`: a closed loop of nproc clients over the
// pool for the run's duration. With warm set every key is requested once
// before timing, so the timed loop finds each in the cache.
func (e *env) runQuery(ctx context.Context, name string, pool []spv.Query, warm bool) (*result, error) {
	d, setupS, err := e.bootDaemon(ctx)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	v, err := e.gate(d, pool, false)
	if err != nil {
		return nil, err
	}
	from := 0
	if warm {
		keys := len(methods) * len(pool)
		if t := closedLoop(ctx, d.base, v, pool, e.nproc, 0, keys, 0); t.failed() > 0 {
			return nil, fmt.Errorf("%s warm-up: %v", name, t.firstErr)
		}
	} else {
		// The gate fetched the first keys of the walk; start past them so
		// the first timed requests are misses like all the others.
		from = gateProofs
	}
	p, err := e.beginPhase(ctx, d)
	if err != nil {
		return nil, err
	}
	t := closedLoop(ctx, d.base, v, pool, e.nproc, from, 0, e.seconds)
	return p.end(name, setupS, t)
}

// arrival is one planned open-loop request: a single query, or a batch
// when it carries batchSize keys.
type arrival struct {
	due  time.Duration
	keys []key
}

// planChurn lays out the whole arrival schedule up front: every tenth
// arrival a batch of eight, methods rotating, pairs drawn from the seed
// uniformly over the pool. Uniform, not Zipf: one pair drawing a quarter
// of the traffic makes bytes and time per answer a property of that pair,
// and the pair changes with the seed.
func planChurn(pool []spv.Query, seed int64, dur time.Duration) ([]arrival, error) {
	sampler, err := workload.NewPool(pool, workload.Hostile, seed)
	if err != nil {
		return nil, err
	}
	plan := make([]arrival, int(churnRate*dur.Seconds()))
	rot := 0
	for i := range plan {
		size := 1
		if i%batchEvery == batchEvery-1 {
			size = batchSize
		}
		a := arrival{due: time.Duration(float64(i) / churnRate * float64(time.Second)), keys: make([]key, size)}
		for j := range a.keys {
			a.keys[j] = key{method: methods[rot%len(methods)], q: sampler.Next()}
			rot++
		}
		plan[i] = a
	}
	return plan, nil
}

// updatePlan is the update stream of `churn`: 16 single-edge perturbations
// followed by their 16 restores, so every update is a real change. The
// edges are part of the world, not of the seed: what one update costs —
// a bridge is re-summed, another edge re-runs hundreds of rows — differs
// tenfold from edge to edge, and a run applies eight.
func updatePlan(g *spv.Graph) ([][]spv.EdgeUpdate, error) {
	return loadgen.PerturbBatches(g, updateBatches, 1, worldSeed)
}

// runChurn is the open loop: reads arrive on a schedule whether or not the
// daemon keeps up, while an update in every window patches, re-signs,
// hot-swaps and invalidates underneath them.
func (e *env) runChurn(ctx context.Context, pool []spv.Query) (*result, error) {
	plan, err := planChurn(pool, e.seed, e.seconds)
	if err != nil {
		return nil, err
	}
	updates, err := updatePlan(e.g)
	if err != nil {
		return nil, err
	}
	d, setupS, err := e.bootDaemon(ctx, "-updates")
	if err != nil {
		return nil, err
	}
	defer d.stop()
	v, err := e.gate(d, pool, true)
	if err != nil {
		return nil, err
	}
	// Every key once, as on `hot`: the run measures the steady state that
	// updates disturb, not a cache filling for the first time.
	if t := closedLoop(ctx, d.base, v, pool, e.nproc, 0, len(methods)*len(pool), 0); t.failed() > 0 {
		return nil, fmt.Errorf("churn warm-up: %v", t.firstErr)
	}

	workers := e.nproc
	tallies := make([]*tally, workers)
	clients := make([]*client, workers)
	for w := range clients {
		tallies[w] = newTally()
		clients[w] = newClient(d.base, v, false)
		defer clients[w].close()
	}
	control := newClient(d.base, v, false)
	defer control.close()
	dues := make([]time.Duration, len(plan))
	for i, a := range plan {
		dues[i] = a.due
	}

	p, err := e.beginPhase(ctx, d)
	if err != nil {
		return nil, err
	}
	start := p.start
	ctl := newTally()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k)*e.win + e.win/2) // mid-window
			if due.Sub(start) >= e.seconds {
				return
			}
			select {
			case <-time.After(time.Until(due)):
			case <-ctx.Done():
				return
			}
			ctl.attempted++
			sent := time.Now()
			if err := control.update(updates[k%len(updates)]); err != nil {
				ctl.fail(err)
				continue
			}
			ctl.updateLat = append(ctl.updateLat, time.Since(sent))
		}
	}()
	outs := openLoop(ctx, start, dues, workers, 10*time.Second, func(w, i int, due time.Time) {
		t, a := tallies[w], plan[i]
		if len(a.keys) == 1 {
			t.single(clients[w], a.keys[0], due, true)
			return
		}
		t.attempted++
		n, err := clients[w].batch(a.keys)
		if err != nil {
			t.fail(err)
			return
		}
		now := time.Now()
		t.batchLat = append(t.batchLat, now.Sub(due))
		t.batchEnd = append(t.batchEnd, now)
		t.answers += len(a.keys)
		t.sized += len(a.keys)
		t.bodyBytes += int64(n)
	})
	wg.Wait()
	wall := time.Since(start)

	t := newTally()
	for _, wt := range tallies {
		t.merge(wt)
	}
	t.merge(ctl)
	for _, o := range outs {
		if !o.dispatched {
			t.attempted++
			t.fails["undispatched"]++
			continue
		}
		t.lateness = append(t.lateness, o.lateness)
	}
	r, err := p.end("churn", setupS, t)
	if err != nil {
		return nil, err
	}
	// The schedule fixes an open loop's rate, window by window; what can
	// move is answers over the time to the last completion, which falls
	// only when the daemon stops keeping up.
	r.e2e["verified_qps"] = float64(t.answers) / wall.Seconds()
	r.diag["update_p50_ms"] = percentile(ms(t.updateLat), 0.50)
	r.diag["batch_p50_ms"] = percentile(ms(t.batchLat), 0.50)
	r.diag["gen_lateness_p99_ms"] = percentile(ms(t.lateness), 0.99)
	r.samples["updates"], r.samples["batches"] = len(t.updateLat), len(t.batchLat)
	return r, nil
}

// runRestart boots replica after replica from the origin's snapshot, each
// timed from exec to the first verified answer of all three methods. The
// snapshot writer, the lazy reader, certificate issue and the audit do the
// work here; no query workload touches them.
func (e *env) runRestart(ctx context.Context, pool []spv.Query) (*result, error) {
	snap := filepath.Join(e.tmp, "world.spv")
	origin, setupS, err := e.bootDaemon(ctx, "-save", snap)
	if err != nil {
		return nil, err
	}
	defer origin.stop()
	v, err := e.gate(origin, pool, false)
	if err != nil {
		return nil, err
	}
	origin.stop()
	fi, err := os.Stat(snap)
	if err != nil {
		return nil, err
	}

	// A window here is one round of three boots — lazy, lazy, audited —
	// so across a round's boot → verified samples the median is the slower
	// lazy boot and the 90th percentile is the audited one.
	t := newTally()
	var lazy, audited []time.Duration
	var rounds []window
	var rss float64
	for i, start := 0, time.Now(); time.Since(start) < e.seconds && ctx.Err() == nil; {
		round, began := window{}, time.Now()
		for j := 0; j <= lazyPerRound; j, i = j+1, i+1 {
			args := []string{"-snapshot", snap}
			if j == lazyPerRound {
				args = append(args, "-audit-on-load")
			}
			d, err := startDaemon(ctx, e.bin, filepath.Join(e.tmp, "replica.log"), args...)
			if err != nil {
				return nil, err
			}
			c := newClient(d.base, v, true)
			for m, method := range methods {
				// A pair of its own for every first answer.
				t.single(c, key{method, pool[(i*len(methods)+m)%len(pool)]}, time.Now(), true)
			}
			took := time.Since(d.execAt)
			c.close()
			u := d.stop()
			round.cpu += u.cpu
			round.lat = append(round.lat, took)
			rss = max(rss, u.rssMB)
			if j == lazyPerRound {
				audited = append(audited, took)
			} else {
				lazy = append(lazy, took)
			}
		}
		round.wall, round.answers = time.Since(began), (lazyPerRound+1)*len(methods)
		rounds = append(rounds, round)
	}
	if t.failed() > 0 {
		return nil, fmt.Errorf("restart: %d of %d first answers failed: %v", t.failed(), t.attempted, t.firstErr)
	}

	r := newResult("restart", setupS, rss, t, rounds, ms(append(append([]time.Duration(nil), lazy...), audited...)))
	r.diag["restart_lazy_ms"] = percentile(ms(lazy), 0.50)
	r.diag["restart_audited_ms"] = percentile(ms(audited), 0.50)
	r.diag["snapshot_mb"] = float64(fi.Size()) / 1e6
	r.samples["lazy_boots"], r.samples["audited_boots"] = len(lazy), len(audited)
	return r, nil
}
