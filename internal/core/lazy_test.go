package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/authhints/spv/internal/snapshot"
	"github.com/authhints/spv/internal/workload"
)

// writeSnapshotFile serializes the world to a temp file and returns its
// path plus the raw bytes (for corruption tests).
func writeSnapshotFile(t *testing.T, owner *Owner, provs ...Provider) (string, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := owner.WriteSnapshot(&buf, provs...); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "world.spv")
	if err := os.WriteFile(path, buf.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}
	return path, buf.Bytes()
}

// TestLazyRoundTrip is the lazy loader's acceptance pin: a lazily opened
// set serves proofs byte-identical to the in-process originals for every
// method, and those proofs verify against the embedded public key. This
// is the same contract TestSnapshotRoundTrip pins for an eager load —
// laziness must be invisible to clients.
func TestLazyRoundTrip(t *testing.T) {
	owner, dij, full, ldm, hyp := snapshotWorld(t, 220, 300)
	path, _ := writeSnapshotFile(t, owner, dij, full, ldm, hyp)

	set, err := OpenProviderSetLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if got := set.Methods(); len(got) != 4 {
		t.Fatalf("lazy methods %v, want all four", got)
	}
	if !set.Verifier.Equal(owner.Verifier()) {
		t.Fatal("lazy verifier differs from the owner's")
	}

	orig := &ProviderSet{}
	for _, p := range []Provider{dij, full, ldm, hyp} {
		orig.SetProvider(p)
	}
	qs, err := workload.Generate(owner.Graph(), 16, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Methods() {
		for _, q := range qs {
			want := setProofBytes(t, m, orig, q.S, q.T)
			got := setProofBytes(t, m, set, q.S, q.T)
			if !bytes.Equal(want, got) {
				t.Fatalf("%s proof (%d,%d): lazy encoding differs (%d vs %d bytes)",
					m, q.S, q.T, len(got), len(want))
			}
		}
	}
	q := qs[0]
	for _, m := range set.Methods() {
		pr, err := set.Provider(m).QueryProof(q.S, q.T)
		if err != nil || VerifyProof(set.Verifier, m, q.S, q.T, pr) != nil {
			t.Fatalf("lazy %s proof does not verify: %v", m, err)
		}
	}
}

// TestLazyRewriteIdentical pins that re-serializing a lazily opened set
// reproduces the original file byte for byte — WriteTo transparently
// hydrates through the lazy shells, and the streaming section writers
// emit exactly what the buffered ones did.
func TestLazyRewriteIdentical(t *testing.T) {
	owner, dij, full, ldm, hyp := snapshotWorld(t, 160, 220)
	path, orig := writeSnapshotFile(t, owner, dij, full, ldm, hyp)

	set, err := OpenProviderSetLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	var out bytes.Buffer
	if _, err := set.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, out.Bytes()) {
		t.Fatalf("rewrite of a lazy set diverged: %d vs %d bytes", out.Len(), len(orig))
	}
}

// corruptSection flips one payload byte of the section with the given
// kind and returns the path of the corrupted copy. The index still
// matches (it records the original CRC), so the damage is invisible
// until the section is read and CRC-checked.
func corruptSection(t *testing.T, data []byte, kind uint32) string {
	t.Helper()
	f, err := snapshot.NewFile(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(data)
	found := false
	for _, e := range f.Sections() {
		if e.Kind == kind {
			bad[e.Offset+12] ^= 0x01 // first payload byte, past the 12-byte head
			found = true
		}
	}
	if !found {
		t.Fatalf("no section of kind %d", kind)
	}
	path := filepath.Join(t.TempDir(), "corrupt.spv")
	if err := os.WriteFile(path, bad, 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLazyCorruptSectionFailsOnTouch pins the deferred-integrity
// contract: a flipped byte in a method section leaves the open and every
// other method untouched, and the damaged method's first query returns a
// clean ErrCorrupt — no panic, no garbage proof.
func TestLazyCorruptSectionFailsOnTouch(t *testing.T) {
	owner, dij, full, ldm, hyp := snapshotWorld(t, 160, 220)
	_, data := writeSnapshotFile(t, owner, dij, full, ldm, hyp)
	path := corruptSection(t, data, snapKindLDM)

	set, err := OpenProviderSetLazy(path)
	if err != nil {
		t.Fatalf("open should not touch method payloads: %v", err)
	}
	defer set.Close()

	qs, err := workload.Generate(owner.Graph(), 4, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]
	if _, err := set.Provider(DIJ).QueryProof(q.S, q.T); err != nil {
		t.Fatalf("intact DIJ section should serve: %v", err)
	}
	_, err = set.Provider(LDM).QueryProof(q.S, q.T)
	if !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("corrupt LDM section: got %v, want ErrCorrupt", err)
	}
	// The failure is sticky — retries see the same clean error.
	if _, err2 := set.Provider(LDM).QueryProof(q.S, q.T); !errors.Is(err2, snapshot.ErrCorrupt) {
		t.Fatalf("second touch: got %v, want ErrCorrupt", err2)
	}
}

// TestLazyCorruptIndexFallsBack pins that a damaged index degrades to the
// sequential frame walk, not to failure: the lazy open still succeeds and
// every method still serves (the walk re-derives the same section table).
func TestLazyCorruptIndexFallsBack(t *testing.T) {
	owner, dij, full, ldm, hyp := snapshotWorld(t, 160, 220)
	_, data := writeSnapshotFile(t, owner, dij, full, ldm, hyp)

	// The end marker's last 24 bytes are kind|count|indexOff|crc; pull
	// indexOff and flip a byte inside the index payload.
	indexOff := int64(binary.BigEndian.Uint64(data[len(data)-12 : len(data)-4]))
	bad := bytes.Clone(data)
	bad[indexOff+12] ^= 0x01
	path := filepath.Join(t.TempDir(), "badindex.spv")
	if err := os.WriteFile(path, bad, 0o600); err != nil {
		t.Fatal(err)
	}

	// An eager load is strict about the container, as a sequential read
	// would be: recovery is for the replica that must come up regardless.
	if _, err := OpenProviderSet(path); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("eager load of a corrupt index: %v", err)
	}
	set, err := OpenProviderSetLazy(path)
	if err != nil {
		t.Fatalf("corrupt index should fall back to the frame walk: %v", err)
	}
	defer set.Close()
	qs, err := workload.Generate(owner.Graph(), 4, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]
	for _, m := range set.Methods() {
		if _, err := set.Provider(m).QueryProof(q.S, q.T); err != nil {
			t.Fatalf("%s via walked table: %v", m, err)
		}
	}
}

// TestLazyConcurrentFirstTouch hammers a cold set from many goroutines at
// once — every method, every goroutine, no warmup — so the race detector
// can see the sync.Once hydration and the chunked tuple fills. All proofs
// must come back byte-identical to the eager originals.
func TestLazyConcurrentFirstTouch(t *testing.T) {
	owner, dij, full, ldm, hyp := snapshotWorld(t, 220, 300)
	path, _ := writeSnapshotFile(t, owner, dij, full, ldm, hyp)

	orig := &ProviderSet{}
	for _, p := range []Provider{dij, full, ldm, hyp} {
		orig.SetProvider(p)
	}
	qs, err := workload.Generate(owner.Graph(), 24, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := map[Method][][]byte{}
	for _, m := range Methods() {
		for _, q := range qs {
			want[m] = append(want[m], setProofBytes(t, m, orig, q.S, q.T))
		}
	}

	set, err := OpenProviderSetLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		for _, m := range Methods() {
			wg.Add(1)
			go func(g int, m Method) {
				defer wg.Done()
				for i, q := range qs {
					pr, err := set.Provider(m).QueryProof(q.S, q.T)
					if err != nil {
						errs <- err
						return
					}
					if got := pr.AppendBinary(nil); !bytes.Equal(got, want[m][i]) {
						errs <- errors.New(string(m) + ": concurrent lazy proof diverged")
						return
					}
				}
			}(g, m)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestLazyCloseSemantics pins the Close contract: methods hydrated before
// Close keep serving from memory; a still-cold method errors cleanly.
func TestLazyCloseSemantics(t *testing.T) {
	owner, dij, full, ldm, hyp := snapshotWorld(t, 160, 220)
	path, _ := writeSnapshotFile(t, owner, dij, full, ldm, hyp)

	set, err := OpenProviderSetLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := workload.Generate(owner.Graph(), 4, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]
	if _, err := set.Provider(DIJ).QueryProof(q.S, q.T); err != nil {
		t.Fatal(err)
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := set.Provider(DIJ).QueryProof(q.S, q.T); err != nil {
		t.Fatalf("hydrated DIJ should survive Close: %v", err)
	}
	if _, err := set.Provider(FULL).QueryProof(q.S, q.T); err == nil {
		t.Fatal("cold FULL should fail to hydrate after Close")
	}
}
