package core

import (
	"bytes"
	cryptorand "crypto/rand"
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"github.com/authhints/spv/internal/netgen"
	"github.com/authhints/spv/internal/sig"
)

// TestParallelOutsourceByteIdentical pins the tentpole guarantee of the
// parallel owner pipeline: outsourcing under GOMAXPROCS=1 and under a wide
// worker fan-out must produce identical roots and signatures for every
// method — workers write disjoint slots, so scheduling can never leak into
// the bytes.
func TestParallelOutsourceByteIdentical(t *testing.T) {
	g, err := netgen.Generate(netgen.DE, netgen.Config{Scale: 0.01, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Landmarks = 6
	cfg.Cells = 9
	signer, err := sig.GenerateKey(cryptorand.Reader, cfg.RSABits)
	if err != nil {
		t.Fatal(err)
	}

	type roots struct {
		dijRoot, dijSig   []byte
		fullNet, fullDist []byte
		ldmRoot, ldmSig   []byte
		hypNet, hypDist   []byte
	}
	build := func() roots {
		owner, err := NewOwnerWithSigner(g.Clone(), cfg, signer)
		if err != nil {
			t.Fatal(err)
		}
		dij := outsource[*DIJProvider](t, owner, DIJ)
		full := outsource[*FULLProvider](t, owner, FULL)
		ldm := outsource[*LDMProvider](t, owner, LDM)
		hyp := outsource[*HYPProvider](t, owner, HYP)
		r := roots{
			dijRoot: dij.ads.Root(), dijSig: dij.rootSig,
			fullNet: full.ads.Root(), fullDist: full.forest.Root(),
			ldmRoot: ldm.ads.Root(), ldmSig: ldm.rootSig,
			hypNet: hyp.ads.Root(),
		}
		if hyp.distMBT != nil {
			r.hypDist = hyp.distMBT.Root()
		}
		return r
	}

	prev := runtime.GOMAXPROCS(1)
	serial := build()
	runtime.GOMAXPROCS(8)
	parallel := build()
	runtime.GOMAXPROCS(prev)

	for _, pair := range []struct {
		what string
		a, b []byte
	}{
		{"DIJ root", serial.dijRoot, parallel.dijRoot},
		{"DIJ sig", serial.dijSig, parallel.dijSig},
		{"FULL network root", serial.fullNet, parallel.fullNet},
		{"FULL forest root", serial.fullDist, parallel.fullDist},
		{"LDM root", serial.ldmRoot, parallel.ldmRoot},
		{"LDM sig", serial.ldmSig, parallel.ldmSig},
		{"HYP network root", serial.hypNet, parallel.hypNet},
		{"HYP distance root", serial.hypDist, parallel.hypDist},
	} {
		if !bytes.Equal(pair.a, pair.b) {
			t.Errorf("%s differs between GOMAXPROCS=1 and GOMAXPROCS=8", pair.what)
		}
	}
}

// TestCertifyDeterministicAcrossProcs pins the same guarantee for the
// certificate: every row is searched, encoded and digested by whichever
// worker claims it, into a slot fixed before any worker starts, so the
// wire at GOMAXPROCS 1, 2 and 8 is the golden world's pre-update
// certificate, byte for byte. The race lane runs this test too.
func TestCertifyDeterministicAcrossProcs(t *testing.T) {
	owner, _, _ := goldenWorld(t)
	var provs []Provider
	for _, m := range RegisteredMethods() {
		p, err := owner.Outsource(m)
		if err != nil {
			t.Fatalf("outsource %s: %v", m, err)
		}
		provs = append(provs, p)
	}
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		c, err := owner.Certify(provs...)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if got := sha(c.Bytes()); got != golden["pre/cert"] {
			t.Errorf("GOMAXPROCS=%d: certificate digest %s, want golden %s", procs, got, golden["pre/cert"])
		}
	}
}
