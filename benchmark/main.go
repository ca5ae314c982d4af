// Command benchmark is the repository's benchmark: it drives a real
// spvserve subprocess over loopback HTTP with full verifying clients and
// prints, per workload, what a user of the system would see — verified
// answers per second, time to a verified answer, bytes on the wire, server
// CPU and memory per answer, start-up time. A traced run (-trace 1) then
// replays the same inputs in-process, once per process, and times the calls
// into each layer's public functions. See README.md for every workload and
// metric.
//
//	go run ./benchmark                       # all four workloads
//	go run ./benchmark -workload hot -trace 1
//	go run ./benchmark -repeat 5             # spread of every metric against its bound
//
// Run it from the repository root.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"

	spv "github.com/authhints/spv"
)

const outDir = "benchmark/out" // git-ignored: the daemon binary, scratch, trace.json

var workloadNames = []string{"cold", "hot", "churn", "restart"}

func main() {
	var (
		workloadFlag = flag.String("workload", "", "one of cold, hot, churn, restart (default: all four)")
		seed         = flag.Int64("seed", 1, "drives the query pairs and their sampling; never the world or its update stream")
		seconds      = flag.Int("seconds", 16, "length of each workload's timed phase; the acceptance pipeline passes BENCHMARK.json's run_seconds on every run")
		trace        = flag.Int("trace", 0, "1: also time each layer in-process and write "+outDir+"/trace.json")
		repeat       = flag.Int("repeat", 1, "run the selected workloads N times and hold each metric's spread to its bound")
	)
	flag.Parse()
	names := workloadNames
	if *workloadFlag != "" {
		names = strings.Split(*workloadFlag, ",")
	}
	for _, n := range names {
		if !slices.Contains(workloadNames, n) {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want one of %v)\n", n, workloadNames)
			os.Exit(2)
		}
	}
	if *seconds < 1 || *repeat < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds and -repeat must be positive, and there are no positional arguments")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, names, *seed, time.Duration(*seconds)*time.Second, *trace != 0, *repeat)
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

// generatorHeap is the heap budget the load generator collects on. Left
// to the default pacer, a process whose live heap is a few megabytes and
// whose every answer allocates 150 KB collects every few dozen answers:
// half of the client's CPU went to GC, and how much exactly moved by a
// quarter with the incidental size of the live heap (whatever earlier runs
// had left behind). A fixed budget makes the generator collect every
// thousand-odd answers on every run alike. The in-process layer trace
// runs under the default pacer, like the daemon it stands in for.
const generatorHeap = 256 << 20

func generatorGC() {
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(generatorHeap)
}

func defaultGC() {
	debug.SetMemoryLimit(math.MaxInt64)
	debug.SetGCPercent(100)
}

// run owns every temp file and subprocess: whatever path leaves it, the
// scratch directory is removed and no daemon is left behind.
func run(ctx context.Context, names []string, seed int64, seconds time.Duration, trace bool, repeat int) error {
	generatorGC()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	e := &env{
		tmp: tmp, keyPath: filepath.Join(tmp, "owner.pem"),
		nproc: runtime.NumCPU(), seed: seed, seconds: seconds, win: seconds / windowsPerRun,
		admin: &http.Client{Timeout: 30 * time.Second},
	}
	if e.bin, err = buildDaemon(ctx, outDir); err != nil {
		return err
	}
	// One owner key for every daemon of the run, generated here so that RSA
	// key generation's random run time never enters setup_s.
	if e.signer, err = spv.GenerateOwnerKey(spv.DefaultConfig().RSABits); err != nil {
		return err
	}
	if err := os.WriteFile(e.keyPath, e.signer.MarshalPEM(), 0o600); err != nil {
		return err
	}
	if e.g, err = buildWorld(); err != nil {
		return err
	}
	pool, err := buildPool(e.g, coldPairs, seed)
	if err != nil {
		return err
	}
	fmt.Printf("world %s@%g: %d nodes, %d edges; pool of %d distinct pairs at range %g; seed %d; %d cores\n",
		worldDataset, worldScale, e.g.NumNodes(), e.g.NumEdges(), len(pool), queryRange, seed, e.nproc)

	runs := map[string][]*result{}
	var lt *layerTrace // the in-process layer trace: the same for every workload, so run once
	for rep := 0; rep < repeat; rep++ {
		for _, name := range names {
			fmt.Printf("== %s  (%v timed, run %d of %d)\n", name, seconds, rep+1, repeat)
			r, err := e.runWorkload(ctx, name, pool)
			if err == nil {
				err = ctx.Err() // a signal cut the load short: no result to report
			}
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			var traced map[string]float64
			if trace {
				if lt == nil {
					if lt, err = e.traceLayers(pool); err != nil {
						return err
					}
				}
				traced = lt.metricsFor(r)
			}
			r.printHuman(os.Stdout, traced)
			line, err := r.resultLine(traced)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			fmt.Println(line)
			if r.wrong > 0 {
				return fmt.Errorf("%s: %d wrong outputs (rejected proofs or distances off ground truth); first: %v", name, r.wrong, r.firstErr)
			}
			runs[name] = append(runs[name], r)
		}
	}
	if lt != nil {
		if err := lt.write(filepath.Join(outDir, "trace.json"), seed); err != nil {
			return err
		}
	}
	if repeat > 1 {
		return reportRepeats(names, runs)
	}
	return nil
}

func (e *env) runWorkload(ctx context.Context, name string, pool []spv.Query) (*result, error) {
	switch name {
	case "cold":
		return e.runQuery(ctx, name, pool, false)
	case "hot":
		return e.runQuery(ctx, name, pool[:hotPairs], true)
	case "churn":
		return e.runChurn(ctx, pool[:hotPairs])
	default:
		return e.runRestart(ctx, pool[:hotPairs])
	}
}

// reportRepeats prints, for every metric that carries a bound and that the
// workload reports, its quartiles, its spread — the distance between the
// quartiles as a share of the median, which is what the acceptance pipeline
// holds against the bound — and the largest relative difference between any
// two runs. It fails when the spread of one commit's runs exceeds the
// bound (a metric marked medianOnly apart): such a metric cannot gate a
// change.
func reportRepeats(names []string, runs map[string][]*result) error {
	var over []string
	for _, name := range names {
		fmt.Printf("== %s: %d runs\n", name, len(runs[name]))
		fmt.Printf("  %-28s %12s %12s %12s %8s %9s %6s\n", "metric", "q1", "median", "q3", "spread", "max diff", "bound")
		for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			if _, ok := runs[name][0].value(m.name); !ok || m.bound == 0 {
				continue
			}
			xs := make([]float64, len(runs[name]))
			for i, r := range runs[name] {
				xs[i], _ = r.value(m.name)
			}
			q1, q2, q3 := quartiles(xs)
			spread, verdict := (q3-q1)/q2, ""
			if spread > m.bound && !m.medianOnly {
				verdict = "  OVER"
				over = append(over, name+"/"+m.name)
			}
			fmt.Printf("  %-28s %12.4f %12.4f %12.4f %7.1f%% %8.1f%% %5.0f%%%s\n",
				m.name, q1, q2, q3, 100*spread, 100*maxRelDiff(xs), 100*m.bound, verdict)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("runs of one commit disagree beyond the bound on: %s", strings.Join(over, ", "))
	}
	return nil
}
