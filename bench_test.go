// Benchmarks regenerating the paper's evaluation (ICDE 2010, §VI): one
// testing.B benchmark per figure/table, plus BenchmarkClientVerify, the
// profiling entry point for client verification.
//
// The figure benchmarks run the full harness once per iteration and report
// the headline series as custom metrics, so `go test -bench=. -benchmem`
// regenerates the entire evaluation. Absolute times are hardware-bound; the
// shapes (who wins, growth trends) are the reproduction targets — see
// EXPERIMENTS.md for the paper-vs-measured record.
//
// Figure benchmarks use a reduced default (scale 0.05, 30 queries) to keep
// a full `go test -bench=.` run in minutes on one core; run cmd/spvbench
// for the full-scale tables.
package spv_test

import (
	"testing"

	spv "github.com/authhints/spv"
	"github.com/authhints/spv/internal/bench"
)

// figSetup is the benchmark-sized experiment setting.
func figSetup() bench.Setup {
	s := bench.DefaultSetup()
	s.Scale = 0.05
	s.Queries = 30
	return s
}

// runFigure executes one harness figure per iteration and reports its first
// row's headline value as a metric.
func runFigure(b *testing.B, id string, metric string, col int) {
	b.Helper()
	s := figSetup()
	for i := 0; i < b.N; i++ {
		table, err := bench.Run(id, s)
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) > 0 && col < len(table.Rows[0].Values) {
			b.ReportMetric(table.Rows[0].Values[col], metric)
		}
	}
}

// --- one benchmark per paper figure/table ---

func BenchmarkTable2Parameters(b *testing.B)   { runFigure(b, "table2", "scale", 0) }
func BenchmarkFig08aCommOverhead(b *testing.B) { runFigure(b, "fig8a", "DIJ-total-KB", 2) }
func BenchmarkFig08bProofItems(b *testing.B)   { runFigure(b, "fig8b", "DIJ-items", 2) }
func BenchmarkFig08cConstruction(b *testing.B) { runFigure(b, "fig8c", "FULL-sec", 0) }
func BenchmarkFig09aDatasets(b *testing.B)     { runFigure(b, "fig9a", "DE-DIJ-KB", 0) }
func BenchmarkFig09bDatasetBuild(b *testing.B) { runFigure(b, "fig9b", "DE-FULL-sec", 0) }
func BenchmarkFig10Orderings(b *testing.B)     { runFigure(b, "fig10", "bfs-DIJ-KB", 0) }
func BenchmarkFig11aFanout(b *testing.B)       { runFigure(b, "fig11a", "f2-DIJ-KB", 0) }
func BenchmarkFig11bQueryRange(b *testing.B)   { runFigure(b, "fig11b", "r250-DIJ-KB", 0) }
func BenchmarkFig12aLandmarksComm(b *testing.B) {
	runFigure(b, "fig12a", "c50-total-KB", 2)
}
func BenchmarkFig12bLandmarksBuild(b *testing.B) {
	runFigure(b, "fig12b", "c50-sec", 0)
}
func BenchmarkFig13aCellsComm(b *testing.B)  { runFigure(b, "fig13a", "p25-total-KB", 2) }
func BenchmarkFig13bCellsBuild(b *testing.B) { runFigure(b, "fig13b", "p25-sec", 0) }
func BenchmarkVerifyLatency(b *testing.B)    { runFigure(b, "verify", "DIJ-client-ms", 1) }
func BenchmarkExtAQuantBits(b *testing.B)    { runFigure(b, "extA", "b4-total-KB", 1) }
func BenchmarkExtBCompression(b *testing.B)  { runFigure(b, "extB", "xi0-total-KB", 1) }

// --- client verification: the -cpuprofile entry point ---

// BenchmarkClientVerify verifies one proof per method over and over on a
// DE 0.05 world: `go test -run '^$' -bench ClientVerify -cpuprofile` is
// where ROADMAP item 1 and PR 21 sized the client's hashing floor. Every
// other hot-path number — proving, serving, batch verification, outsourcing
// — comes from `go run ./benchmark -trace 1`.
func BenchmarkClientVerify(b *testing.B) {
	g, err := spv.GenerateNetwork(spv.DE, spv.NetworkConfig{Scale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	owner, err := spv.NewOwner(g, spv.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	qs, err := spv.GenerateWorkload(g, 16, 4000, 9)
	if err != nil {
		b.Fatal(err)
	}
	q, v := qs[0], owner.Verifier()
	for _, m := range spv.Methods() {
		p, err := owner.Outsource(m)
		if err != nil {
			b.Fatal(err)
		}
		pr, err := p.QueryProof(q.S, q.T)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := spv.VerifyProof(v, m, q.S, q.T, pr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
