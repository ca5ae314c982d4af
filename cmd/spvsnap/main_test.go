package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/authhints/spv/internal/cert"
	"github.com/authhints/spv/internal/core"
	"github.com/authhints/spv/internal/netgen"
	"github.com/authhints/spv/internal/snapshot"
)

// auditWorld builds a small two-method world once per test binary; the
// exit-code subtests each write their own snapshot variant from it.
func auditWorld(t *testing.T) (*core.Owner, []core.Provider) {
	t.Helper()
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
	for _, m := range []core.Method{core.DIJ, core.LDM} {
		p, err := owner.Outsource(m)
		if err != nil {
			t.Fatal(err)
		}
		provs = append(provs, p)
	}
	return owner, provs
}

// TestRunAuditExitCodes mirrors the tamper matrix through the CLI's exit
// codes: 0 clean, 3 a certificate the audit rejects, 1 operational
// problems (no certificate, corrupted container), 2 usage errors. Cron
// jobs key paging decisions off this distinction, so it is pinned here.
func TestRunAuditExitCodes(t *testing.T) {
	owner, provs := auditWorld(t)
	dir := t.TempDir()
	write := func(name string, c *cert.Certificate) string {
		t.Helper()
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := owner.WriteSnapshotCert(f, c, provs...); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	c, err := owner.Certify(provs...)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("clean", func(t *testing.T) {
		path := write("clean.spv", c)
		code, err := runAudit([]string{path}, io.Discard)
		if code != auditExitOK || err != nil {
			t.Fatalf("clean snapshot: exit %d, err %v; want %d, nil", code, err, auditExitOK)
		}
	})

	t.Run("rejected", func(t *testing.T) {
		// A certificate whose rows lie about a distance: the container is
		// intact (CRCs pass), so only the audit itself can catch it.
		bad, err := cert.DecodeCertificate(bytes.Clone(c.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		row := bad.Methods[0].Row(0)
		row.SetDist(row.N()-1, 2*row.Dist(row.N()-1))
		path := write("tampered.spv", bad)
		code, err := runAudit([]string{path}, io.Discard)
		if code != auditExitRejected || err == nil {
			t.Fatalf("tampered snapshot: exit %d, err %v; want %d, non-nil", code, err, auditExitRejected)
		}
	})

	t.Run("no-certificate", func(t *testing.T) {
		path := write("plain.spv", nil)
		code, err := runAudit([]string{path}, io.Discard)
		if code != auditExitError || err == nil {
			t.Fatalf("cert-less snapshot: exit %d, err %v; want %d, non-nil", code, err, auditExitError)
		}
	})

	t.Run("corrupt-container", func(t *testing.T) {
		path := write("crc.spv", c)
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
		raw[info.Offset+int64(info.Length)/2] ^= 0x01
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		code, err := runAudit([]string{path}, io.Discard)
		if code != auditExitError || err == nil {
			t.Fatalf("CRC-corrupted snapshot: exit %d, err %v; want %d, non-nil", code, err, auditExitError)
		}
	})

	t.Run("usage", func(t *testing.T) {
		if code, _ := runAudit(nil, io.Discard); code != auditExitUsage {
			t.Fatalf("no file argument: exit %d, want %d", code, auditExitUsage)
		}
		if code, _ := runAudit([]string{"-verifier", "x.pem"}, io.Discard); code != auditExitUsage {
			t.Fatalf("flag before file: exit %d, want %d", code, auditExitUsage)
		}
	})

	t.Run("unreadable", func(t *testing.T) {
		code, err := runAudit([]string{filepath.Join(dir, "missing.spv")}, io.Discard)
		if code != auditExitError || err == nil {
			t.Fatalf("missing file: exit %d, err %v; want %d, non-nil", code, err, auditExitError)
		}
	})

	t.Run("verdict-text", func(t *testing.T) {
		path := write("text.spv", c)
		var sb strings.Builder
		if code, _ := runAudit([]string{path}, &sb); code != auditExitOK {
			t.Fatalf("exit %d", code)
		}
		out := sb.String()
		for _, want := range []string{"DIJ", "LDM", "audit clean"} {
			if !strings.Contains(out, want) {
				t.Fatalf("audit output missing %q:\n%s", want, out)
			}
		}
	})
}

// TestInfoAndVerify runs info and verify over a saved world and three
// damaged copies of it. On the good file info prints the section table as
// the frames themselves give it (kind, offset, bytes, CRC recomputed from
// the payload here); a flipped payload byte, a corrupt index and a
// truncated tail each make both commands fail.
func TestInfoAndVerify(t *testing.T) {
	owner, provs := auditWorld(t)
	var buf bytes.Buffer
	if _, err := owner.WriteSnapshot(&buf, provs...); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := write("good.spv", data)

	var want strings.Builder
	var rows []string
	var payloadAt, indexAt int
	for off := 24; ; {
		kind, n := binary.BigEndian.Uint32(data[off:]), int(binary.BigEndian.Uint64(data[off+4:]))
		if kind == snapshot.EndKind {
			break
		}
		if kind == snapshot.IndexKind {
			indexAt = off + 12
		} else {
			payloadAt = off + 12 + n/2
			rows = append(rows, fmt.Sprintf("  %-10s kind=%d  offset=%10d  %10d bytes  crc=%08x\n",
				core.SnapshotSectionName(kind), kind, off, n, crc32.ChecksumIEEE(data[off:off+12+n])))
		}
		off += 12 + n + 4
	}
	fmt.Fprintf(&want, "%s: %d bytes, format v%d (indexed), epoch 0, %d sections (all CRCs OK)\n", good, len(data), snapshot.Version, len(rows))
	want.WriteString(strings.Join(rows, ""))
	var got strings.Builder
	if err := runInfo([]string{good}, &got); err != nil || got.String() != want.String() {
		t.Fatalf("info: %v\n%s\nwant\n%s", err, got.String(), want.String())
	}
	if err := runVerify([]string{good, "-proofs", "4"}, io.Discard); err != nil {
		t.Fatalf("verify: %v", err)
	}

	flip := func(at int) []byte {
		bad := bytes.Clone(data)
		bad[at] ^= 0x01
		return bad
	}
	for name, bad := range map[string][]byte{
		"payload": flip(payloadAt),
		"index":   flip(indexAt + 2),
		"tail":    data[:len(data)-1],
	} {
		path := write(name+".spv", bad)
		if err := runInfo([]string{path}, io.Discard); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("info, damaged %s: %v", name, err)
		}
		if err := runVerify([]string{path, "-proofs", "4"}, io.Discard); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("verify, damaged %s: %v", name, err)
		}
	}
}
