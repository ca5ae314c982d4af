// Command spvserve is the service provider daemon: it builds (or loads) a
// road network, outsources the requested verification methods from an
// in-process owner — or cold-starts from a persistent snapshot in seconds,
// without recomputing a single hash — and serves authenticated shortest
// path proofs over HTTP to any number of untrusting clients.
//
//	# Serve LDM and HYP proofs for a 1/20-scale DE network on :8080.
//	spvserve -dataset DE -scale 0.05 -methods LDM,HYP
//
//	# Outsource once, persist, then replicate: every replica serves proofs
//	# byte-identical to the origin's.
//	spvserve -dataset DE -scale 0.05 -key owner.pem -save world.spv   # origin
//	spvserve -snapshot world.spv -addr :8081              # replica 1 (no owner key)
//	spvserve -snapshot world.spv -addr :8082              # replica 2
//
// Replicas boot lazily — listen, then warm: only the small core sections
// load before the listener is bound; one goroutine then hydrates the method
// sections, largest first, a query that arrives sooner hydrates its own,
// and each hydration logs a line. -eager validates everything first instead
// (and logs no per-section line: its load is over before anyone is told).
//
//	# Resume an update-capable owner from a snapshot + the same persisted
//	# key the origin ran with (spvquery keygen -key owner.pem creates one;
//	# a fresh per-run key can never resume — the snapshot pins its public
//	# half).
//	spvserve -snapshot world.spv -key owner.pem -updates -save world.spv
//
//	# Query it (JSON):
//	curl 'localhost:8080/query?method=LDM&vs=17&vt=1860'
//
//	# Batch, binary proofs, public key, throughput counters, snapshots:
//	curl -d '{"queries":[{"method":"LDM","vs":17,"vt":1860}]}' localhost:8080/batch
//	curl 'localhost:8080/query?method=LDM&vs=17&vt=1860&format=binary' -o proof.bin
//	curl localhost:8080/verifier
//	curl localhost:8080/stats
//	curl -X POST localhost:8080/snapshot        # persist current state (needs -save)
//
// Clients verify with spv.DecodeProof + spv.VerifyProof against the
// /verifier key; the daemon holds the private key only long enough to
// sign ADS roots at startup (or loads a persisted key with -key, keeping
// key custody out of the serving process's long-term state). Snapshot
// replicas never see the private key at all — the snapshot carries only
// public material.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	spv "github.com/authhints/spv"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		dataset  = flag.String("dataset", "DE", "dataset name (DE, ARG, IND, NA)")
		scale    = flag.Float64("scale", 0.05, "dataset scale factor")
		nodes    = flag.Int("nodes", 0, "synthesize this many nodes instead of a named dataset")
		edges    = flag.Int("edges", 0, "edge count for -nodes (default: nodes + nodes/20)")
		seed     = flag.Int64("seed", 1, "synthesis seed")
		methods  = flag.String("methods", "DIJ,LDM,HYP", "comma-separated methods to serve (FULL is quadratic)")
		cache    = flag.Int64("cache-bytes", 0, "proof cache byte budget (0 = default 64 MiB, negative = disabled)")
		keyFile  = flag.String("key", "", "owner private key PEM (default: fresh key per run)")
		landmark = flag.Int("landmarks", 0, "LDM landmark count (0 = config default)")
		cells    = flag.Int("cells", 0, "HYP grid cell count (0 = config default)")
		updates  = flag.Bool("updates", false, "enable owner-side POST /update (incremental edge re-weighting + hot-swap)")
		snapFile = flag.String("snapshot", "", "cold-start from this snapshot file instead of outsourcing")
		eager    = flag.Bool("eager", false, "with -snapshot: hydrate and validate every method before listening, instead of listening first and warming in the background")
		audit    = flag.Bool("audit-on-load", false, "with -snapshot: audit the embedded certificate before serving; methods that fail (or are uncovered) are refused")
		saveFile = flag.String("save", "", "write a snapshot here after startup and enable POST /snapshot")
		drain    = flag.Duration("drain", 10*time.Second, "in-flight drain timeout on SIGINT/SIGTERM before forced exit")
		deadline = flag.Duration("deadline-default", 0, "latency budget applied to queries that carry no X-SPV-Budget header; one that cannot be met is shed with 503 (0 = none)")
	)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	opts := serveFlags{
		addr: *addr, dataset: *dataset, scale: *scale, nodes: *nodes, edges: *edges,
		seed: *seed, methods: *methods, cache: *cache,
		keyFile: *keyFile, landmarks: *landmark, cells: *cells, updates: *updates,
		snapFile: *snapFile, saveFile: *saveFile, eager: *eager, auditOnLoad: *audit,
		drain: *drain, deadline: *deadline, explicit: set,
	}
	if err := run(opts); err != nil {
		fmt.Fprintf(os.Stderr, "spvserve: %v\n", err)
		os.Exit(1)
	}
}

// serveFlags carries the parsed command line. explicit records which
// flags the operator actually typed, so mode-incompatible combinations
// can be rejected instead of silently ignored.
type serveFlags struct {
	addr, dataset, methods, keyFile, snapFile, saveFile string
	scale                                               float64
	nodes, edges, landmarks, cells                      int
	seed, cache                                         int64
	updates, eager, auditOnLoad                         bool
	drain, deadline                                     time.Duration
	explicit                                            map[string]bool
}

func run(fl serveFlags) error {
	if fl.snapFile != "" {
		// A snapshot fixes the world and the method set; a world-shaping
		// flag alongside it would be silently ignored, letting the operator
		// believe they selected a network or method set the file overrides —
		// the same misbelief the -key/-save guards below exist to prevent.
		for _, name := range []string{"dataset", "scale", "nodes", "edges", "seed", "methods", "landmarks", "cells"} {
			if fl.explicit[name] {
				return fmt.Errorf("-%s has no effect with -snapshot (the snapshot fixes the world and methods); drop it", name)
			}
		}
	}
	if fl.eager && (fl.snapFile == "" || fl.updates) {
		// Owner resume is always eager — every method gets patched, so
		// deferring hydration would only move the same work later.
		return fmt.Errorf("-eager only applies to a key-less -snapshot replica boot")
	}
	if fl.auditOnLoad && (fl.snapFile == "" || fl.updates) {
		// The audit defends a replica against a tampered or mis-built file
		// it received from elsewhere; an owner resume holds the key and can
		// re-outsource, and a fresh build has nothing to audit.
		return fmt.Errorf("-audit-on-load only applies to a key-less -snapshot replica boot")
	}
	serveOpts := spv.ServeOptions{CacheBytes: fl.cache, DefaultBudget: fl.deadline}
	var (
		engine   *spv.QueryEngine
		verifier *spv.Verifier
		dep      *spv.Deployment
		err      error
		bound    func() // runs once the listener is bound
	)
	switch {
	case fl.snapFile != "" && fl.updates:
		// Owner resume: snapshot + persisted key → update-capable deployment
		// continuing the snapshot's epoch sequence.
		if fl.keyFile == "" {
			return fmt.Errorf("-snapshot with -updates needs -key (the snapshot holds no private key)")
		}
		signer, err := loadSigner(fl.keyFile)
		if err != nil {
			return err
		}
		start := time.Now()
		if dep, err = spv.LoadDeployment(fl.snapFile, signer, serveOpts); err != nil {
			return err
		}
		engine, verifier = dep.Engine(), dep.Owner().Verifier()
		log.Printf("resumed owner deployment from %s in %v: epoch %d, methods %v",
			fl.snapFile, time.Since(start).Round(time.Millisecond), dep.Owner().Epoch(), engine.Methods())
	case fl.snapFile != "":
		// Replica: public material only, cold-start without recomputing a hash.
		if fl.saveFile != "" {
			// Replicas can re-publish the snapshot they booted from (e.g. to
			// seed further replicas), but hold no owner state to snapshot anew.
			return fmt.Errorf("-save on a key-less replica is not supported; copy %s instead", fl.snapFile)
		}
		if fl.keyFile != "" {
			// Silently ignoring the key would let an operator believe the
			// owner resumed when only a replica booted.
			return fmt.Errorf("-key with -snapshot needs -updates (owner resume); drop -key for a replica")
		}
		// Replicas boot lazily by default: core sections load now, the
		// listener binds, and method payloads hydrate behind it — in the
		// background walk, or under a query that gets there sooner. -eager
		// pays the full load, and validates it, before listening.
		start := time.Now()
		mode := "lazy"
		load := spv.LoadProviderSetLazy
		if fl.eager {
			mode, load = "eager", spv.LoadProviderSet
		}
		set, err := load(fl.snapFile)
		if err != nil {
			return err
		}
		set.OnHydrate = logHydration
		if fl.auditOnLoad {
			if err := auditReplicaSet(set, fl.snapFile); err != nil {
				return err
			}
		} else if !fl.eager {
			// After bind; a failed section is that method's error, not ours.
			bound = set.Warm
		}
		engine, verifier = spv.NewEngineFromSet(set, serveOpts), set.Verifier
		log.Printf("replica cold-started (%s) from %s in %v: epoch %d, %d nodes, methods %v",
			mode, fl.snapFile, time.Since(start).Round(time.Millisecond),
			set.Epoch, set.Graph.NumNodes(), engine.Methods())
	default:
		if dep, err = buildDeployment(fl, serveOpts); err != nil {
			return err
		}
		engine, verifier = dep.Engine(), dep.Owner().Verifier()
	}

	srv, err := spv.NewServerFromEngine(engine, verifier)
	if err != nil {
		return err
	}
	endpoints := "/query /batch /verifier /stats"
	if fl.updates {
		srv.EnableUpdates(dep)
		endpoints += " /update"
	}
	if fl.saveFile != "" && dep != nil {
		// Certify before the first save so the snapshot can boot an
		// -audit-on-load replica. The deployment retains the certificate:
		// every later POST /snapshot embeds it, and ApplyUpdates re-issues
		// it per epoch, so saved files stay audit-ready for the daemon's
		// whole lifetime.
		if _, err := dep.Certify(); err != nil {
			return fmt.Errorf("certify for snapshot: %w", err)
		}
		snapFn := spv.FileSnapshot(dep, fl.saveFile)
		if res, err := snapFn(); err != nil {
			return fmt.Errorf("initial snapshot: %w", err)
		} else {
			log.Printf("snapshot written: %s (%d bytes, epoch %d, %v)",
				res.Path, res.Bytes, res.Epoch, res.Duration.Round(time.Millisecond))
		}
		srv.EnableSnapshot(snapFn)
		endpoints += " /snapshot"
	}
	log.Printf("serving %v on %s (%s)", engine.Methods(), fl.addr, endpoints)
	// Explicit timeouts: the daemon fronts many untrusting clients, and the
	// zero-value http.Server would let slow-loris connections pin goroutines
	// forever. Write timeout stays generous for large DIJ proofs.
	hs := &http.Server{
		Addr:              fl.addr,
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	return serveUntilSignal(hs, fl.drain, bound)
}

// logHydration is the one line a method section's decode leaves in the log.
func logHydration(m spv.Method, n int64, took time.Duration, trigger string, err error) {
	if err != nil {
		log.Printf("hydrate %s (%s) failed: %v", m, trigger, err)
		return
	}
	log.Printf("hydrated %s: %d section bytes in %.2f ms (%s)", m, n, took.Seconds()*1e3, trigger)
}

// serveUntilSignal binds the listener, starts bound (if any) on a goroutine
// of its own and serves until SIGINT/SIGTERM, then drains: the listener
// closes immediately (load drivers and balancers see clean refusals, never
// mid-response resets), in-flight requests get up to drainTimeout, and only
// then does the process exit. A second signal aborts the drain.
func serveUntilSignal(hs *http.Server, drainTimeout time.Duration, bound func()) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", hs.Addr)
	if err != nil {
		return err
	}
	if bound != nil {
		go bound()
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // restore default handling: a second signal kills the drain
	log.Printf("signal received; draining in-flight requests (up to %v)", drainTimeout)
	sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		// Deadline hit with requests still in flight: close them hard
		// rather than leaking the process.
		hs.Close()
		return fmt.Errorf("drain timed out after %v: %w", drainTimeout, err)
	}
	<-errc // Serve has returned http.ErrServerClosed
	log.Printf("shutdown complete")
	return nil
}

// buildDeployment is the classic startup path: synthesize/load a network
// and outsource the requested methods from an in-process owner.
func buildDeployment(fl serveFlags, serveOpts spv.ServeOptions) (*spv.Deployment, error) {
	g, err := spv.BuildNetwork(fl.dataset, fl.scale, fl.nodes, fl.edges, fl.seed)
	if err != nil {
		return nil, err
	}
	cfg := spv.DefaultConfig()
	if fl.landmarks > 0 {
		cfg.Landmarks = fl.landmarks
	}
	if fl.cells > 0 {
		cfg.Cells = fl.cells
	}

	var owner *spv.Owner
	if fl.keyFile != "" {
		signer, err := loadSigner(fl.keyFile)
		if err != nil {
			return nil, err
		}
		owner, err = spv.NewOwnerWithSigner(g, cfg, signer)
		if err != nil {
			return nil, err
		}
	} else {
		owner, err = spv.NewOwner(g, cfg)
		if err != nil {
			return nil, err
		}
	}

	var ms []spv.Method
	for _, name := range strings.Split(fl.methods, ",") {
		ms = append(ms, spv.Method(strings.ToUpper(strings.TrimSpace(name))))
	}
	log.Printf("network ready: %d nodes, %d edges; outsourcing %v", g.NumNodes(), g.NumEdges(), ms)

	// Always deploy through the update-capable bundle; /update itself only
	// opens with -updates, since it is the owner's side door (re-signing
	// roots needs the private key this process holds anyway).
	return spv.NewDeployment(owner, serveOpts, ms...)
}

// auditReplicaSet runs the certificate audit against a freshly loaded
// replica set and enforces the serving policy: a snapshot without a
// certificate (or with a globally bad one — wrong epoch, wrong core
// digest, bad signature) is refused outright; a method whose rows fail
// the linear-pass audit — or that the certificate does not cover — is
// dropped from the set, so the replica serves only audited state. On a
// lazy set only the audited sections hydrate.
func auditReplicaSet(set *spv.ProviderSet, path string) error {
	c, err := set.Certificate()
	if err != nil {
		return fmt.Errorf("-audit-on-load: reading certificate from %s: %w", path, err)
	}
	if c == nil {
		return fmt.Errorf("-audit-on-load: %s carries no certificate (write one with `spvsnap make -certify`, `spvserve -save`, or Deployment.Certify)", path)
	}
	rep := spv.Audit(set, c, set.Verifier)
	if rep.Global != nil {
		return fmt.Errorf("-audit-on-load: %s rejected: %w", path, rep.Global)
	}
	if rep.SigErr != nil {
		return fmt.Errorf("-audit-on-load: %s rejected: %w", path, rep.SigErr)
	}
	kept := 0
	for _, mr := range rep.Methods {
		if mr.Err != nil {
			log.Printf("audit: refusing to serve %s: %v", mr.Method, mr.Err)
			set.RemoveProvider(spv.Method(mr.Method))
			continue
		}
		kept++
	}
	for _, m := range rep.Uncovered {
		log.Printf("audit: refusing to serve %s: certificate does not cover it", m)
		set.RemoveProvider(spv.Method(m))
	}
	if kept == 0 {
		return fmt.Errorf("-audit-on-load: no method in %s passed the audit", path)
	}
	log.Printf("audit clean for %d method(s) at epoch %d", kept, rep.Epoch)
	return nil
}

func loadSigner(keyFile string) (*spv.Signer, error) {
	pem, err := os.ReadFile(keyFile)
	if err != nil {
		return nil, err
	}
	signer, err := spv.ParseSignerPEM(pem)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", keyFile, err)
	}
	return signer, nil
}
