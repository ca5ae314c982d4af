// Command netgen synthesizes the road-network datasets used throughout the
// experiments (DCW-shaped DE/ARG/IND/NA — DESIGN.md §3) and writes them to
// disk in the binary SPVG format or as a text edge list.
//
// Usage:
//
//	netgen -dataset DE -scale 0.1 -o de.spvg
//	netgen -nodes 5000 -edges 5270 -seed 7 -format edgelist -o custom.txt
//
//	# Large worlds for snapshot/lazy-load stress (O(n+m) generation):
//	netgen -topology grid -nodes 1000000 -o grid1m.spvg
//	netgen -topology scalefree -nodes 200000 -degree 2 -o sf200k.spvg
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/netgen"
)

func main() {
	var (
		dataset = flag.String("dataset", "DE", "dataset name (DE, ARG, IND, NA) — ignored when -nodes is set")
		scale   = flag.Float64("scale", 0.1, "dataset scale factor")
		nodes   = flag.Int("nodes", 0, "explicit node count (overrides -dataset)")
		edges   = flag.Int("edges", 0, "explicit edge count (with -nodes)")
		seed    = flag.Int64("seed", 0, "generation seed (0 = per-dataset default)")
		format  = flag.String("format", "spvg", "output format: spvg or edgelist")
		topo    = flag.String("topology", "road", "generator: road (DCW-shaped), grid, or scalefree (needs -nodes)")
		degree  = flag.Int("degree", 2, "scalefree attachment degree")
		out     = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()

	var g *graph.Graph
	var err error
	switch {
	case *topo == "grid":
		g, err = netgen.Grid(*nodes, *seed)
	case *topo == "scalefree":
		g, err = netgen.ScaleFree(*nodes, *degree, *seed)
	case *topo != "road":
		err = fmt.Errorf("unknown topology %q", *topo)
	case *nodes > 0:
		m := *edges
		if m == 0 {
			m = *nodes + *nodes/20
		}
		g, err = netgen.Synthesize(*nodes, m, *seed)
	default:
		g, err = netgen.Generate(netgen.Dataset(*dataset), netgen.Config{Scale: *scale, Seed: *seed})
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "netgen: %v\n", err)
		os.Exit(1)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "netgen: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "spvg":
		_, err = g.Freeze().WriteTo(w)
	case "edgelist":
		err = g.WriteEdgeList(w)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "netgen: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "netgen: %d nodes, %d edges written\n", g.NumNodes(), g.NumEdges())
}
