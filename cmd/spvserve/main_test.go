package main

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/authhints/spv"
	"github.com/authhints/spv/internal/cert"
	"github.com/authhints/spv/internal/core"
	"github.com/authhints/spv/internal/netgen"
	"github.com/authhints/spv/internal/snapshot"
)

// TestAuditOnLoadRefusals boots the -audit-on-load policy over snapshot
// files whose certificate streams in broken: a row count that lies in the
// last method slice (found only after the earlier slices have passed), a
// truncated signature frame, and a byte flipped in the section (found only
// by its CRC, once the last byte has passed). Each must refuse the boot
// outright, the way reading the certificate whole refused it; the clean
// file boots with every method kept.
func TestAuditOnLoadRefusals(t *testing.T) {
	g, err := netgen.Synthesize(180, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Landmarks = 4
	cfg.Cells = 9
	owner, err := core.NewOwner(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var provs []core.Provider
	for _, m := range []core.Method{core.DIJ, core.LDM, core.HYP} {
		p, err := owner.Outsource(m)
		if err != nil {
			t.Fatal(err)
		}
		provs = append(provs, p)
	}
	c, err := owner.Certify(provs...)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, edit func(w []byte)) string {
		t.Helper()
		bad, err := cert.DecodeCertificate(bytes.Clone(c.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		edit(bad.Bytes()) // after decoding: the written section keeps a valid CRC
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := owner.WriteSnapshotCert(f, bad, provs...); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	boot := func(path string) error {
		t.Helper()
		set, err := spv.LoadProviderSetLazy(path)
		if err != nil {
			t.Fatal(err)
		}
		defer set.Close()
		return auditReplicaSet(set, path)
	}

	if err := boot(write("clean.spv", func([]byte) {})); err != nil {
		t.Fatalf("clean snapshot refused: %v", err)
	}
	// The last slice's row count sits just before its rows, which end where
	// the signature frame begins.
	last := c.Methods[len(c.Methods)-1]
	r := last.Row(0)
	slot := 8 + 12*r.N() + 4 + len(r.Digest())
	countAt := len(c.Bytes()) - 4 - len(c.Sig()) - last.NumRows()*slot - 4

	for name, edit := range map[string]func(w []byte){
		"lying-row-count": func(w []byte) { binary.BigEndian.PutUint32(w[countAt:], 0xFFFFFFFF) },
		"short-signature": func(w []byte) {
			at := len(w) - 4 - len(c.Sig())
			binary.BigEndian.PutUint32(w[at:], uint32(len(c.Sig())+1))
		},
	} {
		if err := boot(write(name+".spv", edit)); err == nil || !strings.Contains(err.Error(), "reading certificate") {
			t.Fatalf("%s: boot error %v, want a refusal reading the certificate", name, err)
		}
	}

	// A flipped byte in the middle of the section.
	path := write("crc.spv", func([]byte) {})
	sf, err := snapshot.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var info snapshot.SectionInfo
	for _, e := range sf.Sections() {
		if core.SnapshotSectionName(e.Kind) == "cert" {
			info = e
		}
	}
	sf.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[info.Offset+12+int64(info.Length)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := boot(path); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("CRC-flipped certificate: boot error %v, want a CRC refusal", err)
	}
}
