// Command spvquery runs the three-party workflow across separate process
// invocations, with the network, keys and proofs as files — the shape of a
// real deployment where owner, provider and client do not share memory.
//
//	# Data owner: generate a network and a key pair, publish the pubkey.
//	netgen -dataset DE -scale 0.1 -o de.spvg
//	spvquery keygen -key owner.pem -pub owner.pub
//
//	# Service provider: answer a query with a serialized proof.
//	spvquery prove -network de.spvg -key owner.pem -method LDM \
//	    -from 17 -to 1860 -out proof.bin
//
//	# Client: verify with the public key only (no network needed).
//	spvquery verify -pub owner.pub -method LDM -from 17 -to 1860 proof.bin
//
// The provider rebuilds the authenticated structures deterministically from
// the network file, the configuration flags, and the owner key, so `prove`
// is self-contained; in a long-running service the structures would be
// built once and kept resident (see examples/mapservice).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	spv "github.com/authhints/spv"
	"github.com/authhints/spv/internal/graph"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "keygen":
		err = keygen(os.Args[2:])
	case "prove":
		err = prove(os.Args[2:])
	case "verify":
		err = verify(os.Args[2:])
	case "prove-batch":
		err = proveBatch(os.Args[2:])
	case "verify-batch":
		err = verifyBatch(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "spvquery %s: %v\n", os.Args[1], err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: spvquery {keygen|prove|verify|prove-batch|verify-batch} [flags]")
	os.Exit(2)
}

func keygen(args []string) error {
	fs := flag.NewFlagSet("keygen", flag.ExitOnError)
	keyPath := fs.String("key", "owner.pem", "private key output")
	pubPath := fs.String("pub", "owner.pub", "public key output")
	bits := fs.Int("bits", 1024, "RSA modulus bits")
	fs.Parse(args)

	signer, err := spv.GenerateOwnerKey(*bits)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*keyPath, signer.MarshalPEM(), 0o600); err != nil {
		return err
	}
	pub, err := signer.Verifier().MarshalPEM()
	if err != nil {
		return err
	}
	if err := os.WriteFile(*pubPath, pub, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (private) and %s (public)\n", *keyPath, *pubPath)
	return nil
}

// configFlags registers the owner-configuration flags shared by prove.
func configFlags(fs *flag.FlagSet) *spv.Config {
	cfg := spv.DefaultConfig()
	fs.IntVar(&cfg.Fanout, "fanout", cfg.Fanout, "Merkle tree fanout")
	fs.IntVar(&cfg.Landmarks, "landmarks", cfg.Landmarks, "LDM landmark count")
	fs.IntVar(&cfg.QuantBits, "bits", cfg.QuantBits, "LDM quantization bits")
	fs.Float64Var(&cfg.Xi, "xi", cfg.Xi, "LDM compression threshold")
	fs.IntVar(&cfg.Cells, "cells", cfg.Cells, "HYP grid cell count")
	fs.Func("ordering", "node ordering (bfs dfs hbt kd rand)", func(v string) error {
		cfg.Ordering = spv.OrderMethod(v)
		if !cfg.Ordering.Valid() {
			return fmt.Errorf("unknown ordering %q", v)
		}
		return nil
	})
	return &cfg
}

func prove(args []string) error {
	fs := flag.NewFlagSet("prove", flag.ExitOnError)
	netPath := fs.String("network", "", "network file (SPVG)")
	keyPath := fs.String("key", "owner.pem", "owner private key")
	method := fs.String("method", "LDM", "verification method (DIJ FULL LDM HYP)")
	from := fs.Int("from", -1, "source node ID")
	to := fs.Int("to", -1, "target node ID")
	out := fs.String("out", "proof.bin", "proof output file")
	cfg := configFlags(fs)
	fs.Parse(args)

	if *netPath == "" || *from < 0 || *to < 0 {
		return fmt.Errorf("need -network, -from and -to")
	}
	f, err := os.Open(*netPath)
	if err != nil {
		return err
	}
	defer f.Close()
	g, err := graph.Read(f)
	if err != nil {
		return err
	}
	keyPEM, err := os.ReadFile(*keyPath)
	if err != nil {
		return err
	}
	signer, err := spv.ParseSignerPEM(keyPEM)
	if err != nil {
		return err
	}
	owner, err := spv.NewOwnerWithSigner(g, *cfg, signer)
	if err != nil {
		return err
	}

	// The provider side, dispatched through the method registry: any
	// registered method proves the same way.
	vs, vt := spv.NodeID(*from), spv.NodeID(*to)
	p, err := owner.Outsource(spv.Method(*method))
	if err != nil {
		return err
	}
	proof, err := p.QueryProof(vs, vt)
	if err != nil {
		return err
	}
	wire, stats := proof.AppendBinary(nil), proof.Stats()
	if err := os.WriteFile(*out, wire, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s: %.1f KB (ΓS %.1f KB, ΓT %.1f KB, %d items)\n",
		*out, stats.KBytes(), float64(stats.SBytes)/1024, float64(stats.TBytes)/1024,
		stats.TotalItems())
	return nil
}

// parsePairs parses "17:1860,5:99" into endpoint pairs.
func parsePairs(s string) ([][2]spv.NodeID, error) {
	var out [][2]spv.NodeID
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var from, to int
		if _, err := fmt.Sscanf(part, "%d:%d", &from, &to); err != nil || from < 0 || to < 0 {
			return nil, fmt.Errorf("bad pair %q (want from:to)", part)
		}
		out = append(out, [2]spv.NodeID{spv.NodeID(from), spv.NodeID(to)})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no query pairs")
	}
	return out, nil
}

// proveBatch answers many queries of one method and writes them as a single
// batch file: the proofs framed together, a repeated pair stored once.
func proveBatch(args []string) error {
	fs := flag.NewFlagSet("prove-batch", flag.ExitOnError)
	netPath := fs.String("network", "", "network file (SPVG)")
	keyPath := fs.String("key", "owner.pem", "owner private key")
	method := fs.String("method", "LDM", "verification method (DIJ FULL LDM HYP)")
	pairs := fs.String("pairs", "", "comma-separated from:to query pairs, e.g. 17:1860,5:99")
	out := fs.String("out", "batch.bin", "batch output file")
	cfg := configFlags(fs)
	fs.Parse(args)

	if *netPath == "" || *pairs == "" {
		return fmt.Errorf("need -network and -pairs")
	}
	qs, err := parsePairs(*pairs)
	if err != nil {
		return err
	}
	f, err := os.Open(*netPath)
	if err != nil {
		return err
	}
	defer f.Close()
	g, err := graph.Read(f)
	if err != nil {
		return err
	}
	keyPEM, err := os.ReadFile(*keyPath)
	if err != nil {
		return err
	}
	signer, err := spv.ParseSignerPEM(keyPEM)
	if err != nil {
		return err
	}
	owner, err := spv.NewOwnerWithSigner(g, *cfg, signer)
	if err != nil {
		return err
	}
	p, err := owner.Outsource(spv.Method(*method))
	if err != nil {
		return err
	}
	items := make([]spv.BatchItem, 0, len(qs))
	var standalone int
	for _, q := range qs {
		proof, err := p.QueryProof(q[0], q[1])
		if err != nil {
			return fmt.Errorf("%d→%d: %w", q[0], q[1], err)
		}
		standalone += len(proof.AppendBinary(nil))
		items = append(items, spv.BatchItem{VS: q[0], VT: q[1], Proof: proof})
	}
	wire, err := spv.AppendProofBatch(nil, spv.Method(*method), items)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, wire, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s: %d proofs, %.1f KB batch (%.1f KB standalone)\n",
		*out, len(items), float64(len(wire))/1024, float64(standalone)/1024)
	return nil
}

// verifyBatch client-verifies a batch file: the method and
// endpoint pairs travel inside the batch, so only the public key is needed.
func verifyBatch(args []string) error {
	fs := flag.NewFlagSet("verify-batch", flag.ExitOnError)
	pubPath := fs.String("pub", "owner.pub", "owner public key")
	fs.Parse(args)

	if fs.NArg() != 1 {
		return fmt.Errorf("need exactly one batch file")
	}
	pubPEM, err := os.ReadFile(*pubPath)
	if err != nil {
		return err
	}
	verifier, err := spv.ParseVerifierPEM(pubPEM)
	if err != nil {
		return err
	}
	wire, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	pb, n, err := spv.DecodeProofBatch(wire)
	if err != nil {
		return err
	}
	if n != len(wire) {
		return fmt.Errorf("batch file has %d trailing bytes", len(wire)-n)
	}
	items := pb.Items()
	rejected := 0
	for i, err := range spv.VerifyBatch(verifier, pb.Method, items) {
		it := items[i]
		if err != nil {
			rejected++
			fmt.Printf("REJECTED: %s %d→%d — %v\n", pb.Method, it.VS, it.VT, err)
			continue
		}
		path, dist := it.Proof.Result()
		fmt.Printf("VERIFIED: %d→%d is shortest — distance %.2f, %d hops\n",
			it.VS, it.VT, dist, path.Hops())
	}
	if rejected > 0 {
		return fmt.Errorf("%d of %d proofs rejected", rejected, len(items))
	}
	fmt.Fprintf(os.Stderr, "all %d %s proofs verified\n", len(items), pb.Method)
	return nil
}

func verify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	pubPath := fs.String("pub", "owner.pub", "owner public key")
	method := fs.String("method", "LDM", "verification method (DIJ FULL LDM HYP)")
	from := fs.Int("from", -1, "source node ID")
	to := fs.Int("to", -1, "target node ID")
	fs.Parse(args)

	if fs.NArg() != 1 || *from < 0 || *to < 0 {
		return fmt.Errorf("need -from, -to and exactly one proof file")
	}
	pubPEM, err := os.ReadFile(*pubPath)
	if err != nil {
		return err
	}
	verifier, err := spv.ParseVerifierPEM(pubPEM)
	if err != nil {
		return err
	}
	wire, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}

	// The client side, dispatched through the method registry.
	vs, vt := spv.NodeID(*from), spv.NodeID(*to)
	proof, _, err := spv.DecodeProof(spv.Method(*method), wire)
	if err != nil {
		return err
	}
	if err := spv.VerifyProof(verifier, spv.Method(*method), vs, vt, proof); err != nil {
		return err
	}
	path, dist := proof.Result()
	fmt.Printf("VERIFIED: %d→%d is shortest — distance %.2f, %d hops\n", vs, vt, dist, path.Hops())
	return nil
}
