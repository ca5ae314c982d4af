// Command spvsnap inspects, verifies and produces persistent ADS
// snapshots — the offline-audit companion to spvserve's -snapshot/-save
// runtime flags.
//
//	# Build the standard world and write a snapshot.
//	spvsnap make -out world.spv -dataset DE -scale 0.05 -methods DIJ,LDM,HYP
//
//	# Print header, sections and deployment summary (CRCs verified).
//	spvsnap info world.spv
//
//	# Full audit: load every provider, run sample queries per method and
//	# client-verify each proof against the embedded public key.
//	spvsnap verify world.spv -proofs 64
//
//	# Certificate audit: one linear pass over every stored row against the
//	# owner-signed snapshot certificate — no queries, no Dijkstra re-runs.
//	spvsnap audit world.spv
//
// verify exits non-zero on the first failure, so it slots into CI and
// cron-driven fleet audits; info only checks container integrity (a usable
// index, every section's CRC) and never loads the structures. audit
// distinguishes its verdicts by exit code: 0 clean, 3 certificate rejected
// (tampered or mis-labelled state), 1 anything else (unreadable file, no
// certificate), 2 usage.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	spv "github.com/authhints/spv"
	"github.com/authhints/spv/internal/cert"
	"github.com/authhints/spv/internal/core"
	"github.com/authhints/spv/internal/snapshot"
	"github.com/authhints/spv/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "make":
		err = runMake(os.Args[2:])
	case "info":
		err = runInfo(os.Args[2:], os.Stdout)
	case "verify":
		err = runVerify(os.Args[2:], os.Stdout)
	case "audit":
		code, aerr := runAudit(os.Args[2:], os.Stdout)
		if aerr != nil {
			fmt.Fprintf(os.Stderr, "spvsnap: %v\n", aerr)
		}
		os.Exit(code)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "spvsnap: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  spvsnap make   -out FILE [-dataset DE] [-scale 0.05] [-nodes N] [-edges M] [-seed 1] [-methods DIJ,LDM,HYP] [-certify=true]
  spvsnap info   FILE
  spvsnap verify FILE [-proofs 64] [-seed 1]
  spvsnap audit  FILE [-verifier KEY.pem]`)
}

func runMake(args []string) error {
	fs := flag.NewFlagSet("make", flag.ExitOnError)
	out := fs.String("out", "world.spv", "output snapshot file")
	dataset := fs.String("dataset", "DE", "dataset name (DE, ARG, IND, NA)")
	scale := fs.Float64("scale", 0.05, "dataset scale factor")
	nodes := fs.Int("nodes", 0, "synthesize this many nodes instead of a named dataset")
	edges := fs.Int("edges", 0, "edge count for -nodes (default: nodes + nodes/20)")
	seed := fs.Int64("seed", 1, "synthesis seed")
	methods := fs.String("methods", "DIJ,LDM,HYP", "comma-separated methods (FULL is quadratic)")
	certify := fs.Bool("certify", true, "embed an owner-signed snapshot certificate (spvsnap audit checks it)")
	fs.Parse(args)

	g, err := spv.BuildNetwork(*dataset, *scale, *nodes, *edges, *seed)
	if err != nil {
		return err
	}
	owner, err := spv.NewOwner(g, spv.DefaultConfig())
	if err != nil {
		return err
	}
	ms, err := parseMethods(*methods)
	if err != nil {
		return err
	}
	dep, err := spv.NewDeployment(owner, spv.ServeOptions{}, ms...)
	if err != nil {
		return err
	}
	if *certify {
		if _, err := dep.Certify(); err != nil {
			return err
		}
	}
	n, err := spv.SaveSnapshot(*out, dep)
	if err != nil {
		return err
	}
	certNote := ""
	if *certify {
		certNote = ", certified"
	}
	fmt.Printf("wrote %s: %d bytes, %d nodes, %d edges, methods %v%s\n",
		*out, n, g.NumNodes(), g.NumEdges(), ms, certNote)
	return nil
}

func runInfo(args []string, out io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("info needs a snapshot file")
	}
	f, err := openVerified(args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	table := f.Sections()
	fmt.Fprintf(out, "%s: %d bytes, format v%d (indexed), epoch %d, %d sections (all CRCs OK)\n",
		args[0], f.Size(), snapshot.Version, f.Epoch(), len(table))
	for _, s := range table {
		fmt.Fprintf(out, "  %-10s kind=%d  offset=%10d  %10d bytes  crc=%08x\n",
			core.SnapshotSectionName(s.Kind), s.Kind, s.Offset, s.Length, s.CRC)
	}
	return nil
}

// openVerified opens a snapshot as strictly as the eager load does — the
// section table must come from a usable index — and streams every section
// through its CRC.
func openVerified(path string) (*snapshot.File, error) {
	f, err := snapshot.Open(path)
	if err != nil {
		return nil, err
	}
	if err := f.Verify(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// auditIndex cross-checks the two ways of finding sections in a
// container: the trailing index (what lazy opens trust after bounds
// checks) and a walk over the section frames, then re-computes every CRC.
// Any disagreement — count, kind, offset, length or CRC — means the index
// would send a lazy replica to the wrong bytes.
func auditIndex(path string, out io.Writer) error {
	f, err := openVerified(path)
	if err != nil {
		return err
	}
	defer f.Close()
	walked, err := f.Walk()
	if err != nil {
		return err
	}
	table := f.Sections()
	if len(table) != len(walked) {
		return fmt.Errorf("index lists %d sections, frame walk found %d", len(table), len(walked))
	}
	for i, e := range table {
		if s := walked[i]; e != s {
			return fmt.Errorf("section %d (%s): index says kind=%d offset=%d len=%d crc=%08x, frames say kind=%d offset=%d len=%d crc=%08x",
				i, core.SnapshotSectionName(s.Kind), e.Kind, e.Offset, e.Length, e.CRC, s.Kind, s.Offset, s.Length, s.CRC)
		}
	}
	fmt.Fprintf(out, "  index agrees with frame walk: %d sections, all CRCs OK\n", len(table))
	return nil
}

func runVerify(args []string, out io.Writer) error {
	if len(args) < 1 || strings.HasPrefix(args[0], "-") {
		return fmt.Errorf("verify needs a snapshot file first")
	}
	path := args[0]
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	proofs := fs.Int("proofs", 64, "sample queries to run and client-verify per method")
	seed := fs.Int64("seed", 1, "workload seed")
	fs.Parse(args[1:])

	if err := auditIndex(path, out); err != nil {
		return fmt.Errorf("index audit: %w", err)
	}
	set, err := core.OpenProviderSet(path)
	if err != nil {
		return err
	}
	g := set.Graph
	fmt.Fprintf(out, "%s: loaded epoch %d, %d nodes, %d edges, methods %v\n",
		path, set.Epoch, g.NumNodes(), g.NumEdges(), set.Methods())
	if *proofs <= 0 {
		return nil
	}
	qs, err := workload.Generate(g, *proofs, 2000, *seed)
	if err != nil {
		return err
	}
	for _, m := range set.Methods() {
		for i, q := range qs {
			if err := queryAndVerify(set, m, q.S, q.T); err != nil {
				return fmt.Errorf("%s query %d (%d,%d): %w", m, i, q.S, q.T, err)
			}
		}
		fmt.Fprintf(out, "  %-4s %d/%d proofs built, decoded and client-verified\n", m, len(qs), len(qs))
	}
	return nil
}

// queryAndVerify runs one query through the loaded provider, round-trips
// the proof through its wire encoding, and client-verifies it against the
// snapshot's embedded public key — the full trust chain a replica serves.
// Dispatch is entirely through the method registry: any method the
// snapshot carries is exercised without per-method wiring here.
func queryAndVerify(set *core.ProviderSet, m core.Method, vs, vt spv.NodeID) error {
	p := set.Provider(m)
	if p == nil {
		return fmt.Errorf("snapshot carries no %s provider", m)
	}
	pr, err := p.QueryProof(vs, vt)
	if err != nil {
		return err
	}
	rt, _, err := spv.DecodeProof(m, pr.AppendBinary(nil))
	if err != nil {
		return err
	}
	return spv.VerifyProof(set.Verifier, m, vs, vt, rt)
}

// Audit exit codes — distinguishable so cron jobs and CI can tell "this
// snapshot is tampered" (page someone) from "this file is unreadable"
// (probably an operational problem).
const (
	auditExitOK       = 0
	auditExitError    = 1 // unreadable file, missing certificate, bad flags value
	auditExitUsage    = 2
	auditExitRejected = 3 // certificate audit rejected the snapshot
)

// runAudit implements `spvsnap audit FILE [-verifier KEY.pem]`: open the
// snapshot lazily, audit every certificate-covered method in one linear
// pass, and report. Only sections the audit touches are read — a
// certificate covering one method of a many-method file leaves the rest
// on disk. Returns the process exit code; the error (if any) carries the
// operator-facing reason.
func runAudit(args []string, out io.Writer) (int, error) {
	if len(args) < 1 || strings.HasPrefix(args[0], "-") {
		return auditExitUsage, fmt.Errorf("audit needs a snapshot file first")
	}
	path := args[0]
	fs := flag.NewFlagSet("audit", flag.ContinueOnError)
	verifierPEM := fs.String("verifier", "", "out-of-band owner public key PEM (default: the snapshot's embedded key)")
	if err := fs.Parse(args[1:]); err != nil {
		return auditExitUsage, nil // flag package already printed the problem
	}

	set, err := spv.LoadProviderSetLazy(path)
	if err != nil {
		return auditExitError, err
	}
	defer set.Close()
	c, err := set.Certificate()
	if err != nil {
		return auditExitError, fmt.Errorf("reading certificate: %w", err)
	}
	if c == nil {
		return auditExitError, fmt.Errorf("%s carries no certificate (write one with `spvsnap make -certify`)", path)
	}
	v := set.Verifier
	if *verifierPEM != "" {
		pem, err := os.ReadFile(*verifierPEM)
		if err != nil {
			return auditExitError, err
		}
		if v, err = spv.ParseVerifierPEM(pem); err != nil {
			return auditExitError, fmt.Errorf("parsing -verifier key: %w", err)
		}
	}

	rep := cert.Audit(set, c, v)
	fmt.Fprintf(out, "%s: certificate epoch %d, %d method(s) covered\n", path, c.Epoch(), len(c.Methods))
	for _, mr := range rep.Methods {
		verdict := "OK"
		if mr.Err != nil {
			verdict = "FAIL: " + mr.Err.Error()
		}
		fmt.Fprintf(out, "  %-4s %s\n", mr.Method, verdict)
	}
	for _, m := range rep.Uncovered {
		fmt.Fprintf(out, "  %-4s UNCOVERED (snapshot serves it, certificate says nothing)\n", m)
	}
	if err := rep.Err(); err != nil {
		return auditExitRejected, fmt.Errorf("audit rejected %s: %w", path, err)
	}
	fmt.Fprintf(out, "audit clean: every covered row passed the linear-pass checks\n")
	return auditExitOK, nil
}

func parseMethods(list string) ([]spv.Method, error) {
	var ms []spv.Method
	for _, name := range strings.Split(list, ",") {
		m := spv.Method(strings.ToUpper(strings.TrimSpace(name)))
		if _, ok := core.LookupMethod(m); !ok {
			return nil, fmt.Errorf("unknown method %q (want one of %v)", name, spv.Methods())
		}
		ms = append(ms, m)
	}
	return ms, nil
}
