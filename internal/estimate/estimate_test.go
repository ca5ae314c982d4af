package estimate

import (
	"testing"

	"github.com/authhints/spv/internal/core"
	"github.com/authhints/spv/internal/netgen"
	"github.com/authhints/spv/internal/workload"
)

func calibrated(t *testing.T) (Calibration, *worldT) {
	t.Helper()
	g, err := netgen.Generate(netgen.DE, netgen.Config{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	cal, err := Calibrate(g, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Landmarks = 16
	cfg.Cells = 49
	owner, err := core.NewOwner(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cal, &worldT{g: g, owner: owner, cfg: cfg}
}

type worldT struct {
	g     interface{ NumNodes() int }
	owner *core.Owner
	cfg   core.Config
}

func TestCalibrationSanity(t *testing.T) {
	cal, _ := calibrated(t)
	if cal.Nodes < 1000 {
		t.Errorf("nodes = %d", cal.Nodes)
	}
	if cal.Detour < 1.0 || cal.Detour > 5 {
		t.Errorf("detour factor %v outside plausible road-network range", cal.Detour)
	}
	if cal.MeanDegree < 1.5 || cal.MeanDegree > 4 {
		t.Errorf("mean degree %v implausible", cal.MeanDegree)
	}
	if cal.MeanEdge <= 0 || cal.Density <= 0 {
		t.Errorf("non-positive constants: %+v", cal)
	}
	if cal.TupleBytes < 24 {
		t.Errorf("tuple bytes %v below header size", cal.TupleBytes)
	}
}

func TestCalibrateRejectsDegenerate(t *testing.T) {
	g, _ := netgen.Synthesize(2, 1, 1)
	if _, err := Calibrate(g, 4, 1); err != nil {
		t.Fatalf("tiny but valid graph rejected: %v", err)
	}
}

func TestBallMonotoneInRange(t *testing.T) {
	cal, _ := calibrated(t)
	prev := 0.0
	for _, r := range []float64{500, 1000, 2000, 4000, 8000} {
		b := cal.ballNodes(r)
		if b < prev {
			t.Errorf("ball(%v) = %v decreased", r, b)
		}
		prev = b
	}
	if cal.ballNodes(1e12) > float64(cal.Nodes) {
		t.Error("ball exceeds node count")
	}
}

func TestPredictUnknownMethod(t *testing.T) {
	cal, w := calibrated(t)
	if _, err := Predict(cal, core.Method("XXX"), 1000, w.cfg); err == nil {
		t.Error("unknown method accepted")
	}
}

// TestPredictionWithinFactor3 is the model's accuracy contract: for every
// method, the predicted communication overhead is within ×3 of the measured
// workload average.
func TestPredictionWithinFactor3(t *testing.T) {
	if testing.Short() {
		t.Skip("outsources all four methods on a mid-size network; full lane only")
	}
	cal, w := calibrated(t)
	const queryRange = 3000
	g, err := netgen.Generate(netgen.DE, netgen.Config{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := workload.Generate(g, 12, queryRange, 5)
	if err != nil {
		t.Fatal(err)
	}

	measure := func(m core.Method) float64 {
		p, err := w.owner.Outsource(m)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, q := range queries {
			pr, err := p.QueryProof(q.S, q.T)
			if err != nil {
				t.Fatal(err)
			}
			total += pr.Stats().TotalBytes()
		}
		return float64(total) / float64(len(queries))
	}

	for _, m := range core.Methods() {
		est, err := Predict(cal, m, queryRange, w.cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := measure(m)
		ratio := est.Total() / got
		t.Logf("%s: predicted %.1f KB, measured %.1f KB (ratio %.2f)",
			m, est.KBytes(), got/1024, ratio)
		if ratio < 1.0/3 || ratio > 3 {
			t.Errorf("%s: prediction off by more than ×3 (ratio %.2f)", m, ratio)
		}
	}
}

// TestPredictionRanksMethods: even if absolute numbers drift, the model
// must rank DIJ above LDM and FULL below everything at a generous range —
// that is what it is for.
func TestPredictionRanksMethods(t *testing.T) {
	cal, w := calibrated(t)
	const r = 4000
	est := map[core.Method]float64{}
	for _, m := range core.Methods() {
		e, err := Predict(cal, m, r, w.cfg)
		if err != nil {
			t.Fatal(err)
		}
		est[m] = e.Total()
	}
	if est[core.DIJ] <= est[core.LDM] {
		t.Errorf("model ranks DIJ (%v) below LDM (%v)", est[core.DIJ], est[core.LDM])
	}
	if est[core.FULL] >= est[core.DIJ] {
		t.Errorf("model ranks FULL (%v) above DIJ (%v)", est[core.FULL], est[core.DIJ])
	}
}

func TestPredictionGrowsWithRange(t *testing.T) {
	cal, w := calibrated(t)
	for _, m := range []core.Method{core.DIJ, core.LDM} {
		prev := 0.0
		for _, r := range []float64{500, 1000, 2000, 4000} {
			e, err := Predict(cal, m, r, w.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if e.Total() <= prev {
				t.Errorf("%s: estimate at range %v (%v) did not grow", m, r, e.Total())
			}
			prev = e.Total()
		}
	}
}
