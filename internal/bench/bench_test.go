package bench

import (
	"strings"
	"testing"

	"github.com/authhints/spv/internal/core"
)

// smallSetup keeps harness tests fast: tiny network, few queries.
func smallSetup() Setup {
	s := DefaultSetup()
	s.Scale = 0.012 // ≈350 nodes for DE
	s.Queries = 4
	s.QueryRange = 3000
	s.Config.Landmarks = 8
	s.Config.Cells = 16
	return s
}

func TestRunUnknownFigure(t *testing.T) {
	if _, err := Run("fig99", smallSetup()); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestAllFiguresSmoke(t *testing.T) {
	// Every figure must run end to end on a miniature setting and produce a
	// non-empty, well-formed table. Sweeps exercise their full parameter
	// lists, so this also covers fanout/ordering/cells/landmark plumbing.
	if testing.Short() {
		t.Skip("harness smoke test is slow")
	}
	for _, id := range Figures {
		id := id
		t.Run(id, func(t *testing.T) {
			table, err := Run(id, smallSetup())
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if table.ID != id {
				t.Errorf("table ID %q, want %q", table.ID, id)
			}
			if len(table.Rows) == 0 {
				t.Fatalf("%s: empty table", id)
			}
			for _, r := range table.Rows {
				if id == "table2" {
					continue // parameter dump has free-form rows
				}
				if len(r.Values) != len(table.Columns) {
					t.Errorf("%s row %q has %d values for %d columns",
						id, r.Label, len(r.Values), len(table.Columns))
				}
			}
			text := table.Format()
			if !strings.Contains(text, id) || len(strings.Split(text, "\n")) < 3 {
				t.Errorf("%s: malformed format output", id)
			}
		})
	}
}

func TestFig8aShape(t *testing.T) {
	// The headline result must hold even on the miniature setting: FULL's
	// ΓS is tiny (a single authenticated distance) and DIJ's ΓS dominates
	// everything else's.
	table, err := Fig8a(smallSetup())
	if err != nil {
		t.Fatal(err)
	}
	byMethod := map[string]Row{}
	for _, r := range table.Rows {
		byMethod[r.Label] = r
	}
	dijS := byMethod[string(core.DIJ)].Values[0]
	fullS := byMethod[string(core.FULL)].Values[0]
	if fullS >= dijS {
		t.Errorf("FULL S-prf %.2fKB not below DIJ %.2fKB", fullS, dijS)
	}
	for _, m := range []string{"FULL", "LDM", "HYP"} {
		if byMethod[m].Values[2] <= 0 {
			t.Errorf("%s total is zero", m)
		}
	}
}

func TestWorldRunRejectsMissingProvider(t *testing.T) {
	s := smallSetup()
	w, err := buildWorld(s, core.DIJ)
	if err != nil {
		t.Fatal(err)
	}
	if w.provider(core.FULL) != nil || w.provider(core.LDM) != nil || w.provider(core.HYP) != nil {
		t.Error("unrequested providers were built")
	}
	if _, err := w.run(core.DIJ); err != nil {
		t.Errorf("DIJ run: %v", err)
	}
}

// Benchmarks regenerating the paper's evaluation (ICDE 2010, §VI): one
// testing.B benchmark per figure/table. Each runs the full harness once
// per iteration and reports the headline series as a custom metric, so
// `go test -bench=. ./internal/bench` regenerates the entire evaluation.
// Absolute times are hardware-bound; the shapes (who wins, growth trends)
// are the reproduction targets. They use a reduced setting (scale 0.05, 30
// queries) to keep a full run in minutes on one core; cmd/spvbench runs
// the full-scale tables.

// figSetup is the benchmark-sized experiment setting.
func figSetup() Setup {
	s := DefaultSetup()
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
		table, err := Run(id, s)
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) > 0 && col < len(table.Rows[0].Values) {
			b.ReportMetric(table.Rows[0].Values[col], metric)
		}
	}
}

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
