package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/authhints/spv/internal/netgen"
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

// sectionOf finds the table entry of the section with the given kind.
func sectionOf(t *testing.T, data []byte, kind uint32) snapshot.SectionInfo {
	t.Helper()
	f, err := snapshot.NewFile(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range f.Sections() {
		if e.Kind == kind {
			return e
		}
	}
	t.Fatalf("no section of kind %d", kind)
	return snapshot.SectionInfo{}
}

// flipByte writes a copy of data with one bit pattern flipped at off to a
// temp file. The index still records the original CRCs, so the damage is
// invisible until the section is read.
func flipByte(t *testing.T, data []byte, off int64, mask byte) string {
	t.Helper()
	bad := bytes.Clone(data)
	bad[off] ^= mask
	path := filepath.Join(t.TempDir(), "corrupt.spv")
	if err := os.WriteFile(path, bad, 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// corruptSection flips the first payload byte (past the 12-byte head) of
// the section with the given kind and returns the corrupted copy's path.
func corruptSection(t *testing.T, data []byte, kind uint32) string {
	t.Helper()
	return flipByte(t, data, sectionOf(t, data, kind).Offset+12, 0x01)
}

// TestLazyCorruptSectionFailsOnTouch pins the deferred-integrity contract
// everywhere in a section: a flipped byte leaves the open and every other
// method untouched, and the damaged method's first touch — and every
// retry, and the eager load — returns a clean snapshot.ErrCorrupt: no
// panic, no provider, no garbage proof. The decoder runs ahead of the
// checksum, so the flips include ones it trips over long before the CRC is
// known (a count field made huge): corruption must still outrank whatever
// the decoder made of the bytes.
func TestLazyCorruptSectionFailsOnTouch(t *testing.T) {
	owner, dij, full, ldm, hyp := snapshotWorld(t, 160, 220)
	_, data := writeSnapshotFile(t, owner, dij, full, ldm, hyp)
	qs, err := workload.Generate(owner.Graph(), 4, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]
	u32 := func(off int64) int64 { return int64(binary.BigEndian.Uint32(data[off:])) }

	for _, tc := range []struct {
		m    Method
		kind uint32
		// count and row locate a count field and the first hint-row byte,
		// as payload offsets (row < 0: the method stores no rows).
		count, row func(p int64) int64
	}{
		// rootSig | alg u8 | fanout u16 | levels u32 | …
		{DIJ, snapKindDIJ, func(p int64) int64 { return 4 + u32(p) + 3 }, nil},
		// rootSig | bits u32 | lambda f64 | c u32 | c × u32 | rows …
		{LDM, snapKindLDM, func(p int64) int64 { return 4 + u32(p) + 12 },
			func(p int64) int64 { s := 4 + u32(p); return s + 16 + 4*u32(p+s+12) }},
		// netSig | distSig | full u8 | rows u32 | rowLen u32 | rows …
		{HYP, snapKindHYP, func(p int64) int64 { s := 4 + u32(p); return s + 4 + u32(p+s) + 1 },
			func(p int64) int64 { s := 4 + u32(p); return s + 4 + u32(p+s) + 9 }},
	} {
		e := sectionOf(t, data, tc.kind)
		p, end := e.Offset+12, e.Offset+12+int64(e.Length)
		flips := []struct {
			name string
			off  int64
			mask byte
		}{
			{"first payload byte", p, 0x01},
			{"count field", p + tc.count(p), 0x40}, // its high byte: the decoder fails first
			{"Merkle-level byte", end - 1, 0x80},   // the network tree's root digest
			{"CRC tail", end + 2, 0x10},
			{"section head kind", e.Offset + 3, 0x02},
			{"section head length", e.Offset + 11, 0x04},
		}
		if tc.row != nil {
			flips = append(flips, struct {
				name string
				off  int64
				mask byte
			}{"row byte", p + tc.row(p) + 3, 0x08})
		}
		for _, fl := range flips {
			t.Run(string(tc.m)+"/"+fl.name, func(t *testing.T) {
				path := flipByte(t, data, fl.off, fl.mask)
				if set, err := OpenProviderSet(path); !errors.Is(err, snapshot.ErrCorrupt) || set != nil {
					t.Errorf("eager load: set %v, err %v, want ErrCorrupt", set != nil, err)
				}
				set, err := OpenProviderSetLazy(path)
				if err != nil {
					t.Fatalf("open should not touch method payloads: %v", err)
				}
				defer set.Close()
				other := DIJ
				if tc.m == DIJ {
					other = LDM
				}
				if _, err := set.Provider(other).QueryProof(q.S, q.T); err != nil {
					t.Fatalf("intact %s section should serve: %v", other, err)
				}
				// The failure is sticky — retries see the same clean error.
				for touch := 1; touch <= 2; touch++ {
					pr, err := set.Provider(tc.m).QueryProof(q.S, q.T)
					if !errors.Is(err, snapshot.ErrCorrupt) || pr != nil {
						t.Fatalf("touch %d: proof %v, err %v, want ErrCorrupt", touch, pr != nil, err)
					}
				}
				if up, err := unwrapProvider(set.Provider(tc.m)); !errors.Is(err, snapshot.ErrCorrupt) || up != nil {
					t.Fatalf("a provider was published from a corrupt section: %v, %v", up, err)
				}
			})
		}
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

// openLazy is the lazy open over any positioned reader, which must stay
// readable while a method is still cold.
func openLazy(t testing.TB, ra io.ReaderAt, size int64) *ProviderSet {
	t.Helper()
	f, err := snapshot.NewFile(ra, size)
	if err != nil {
		t.Fatal(err)
	}
	set, err := lazySetFromFile(f)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// countingReaderAt records every positioned read, and can be told to fail
// the way io.ReaderAt allows a reader to come back short — fewer bytes than
// asked, with an error — for any read that reaches failAt.
type countingReaderAt struct {
	ra     io.ReaderAt
	failAt int64 // 0: never
	mu     sync.Mutex
	reads  [][2]int64 // offset, length actually returned
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	var short error
	if c.failAt > 0 && off+int64(len(p)) > c.failAt {
		p, short = p[:max(0, c.failAt-off)], io.ErrUnexpectedEOF
	}
	n, err := c.ra.ReadAt(p, off)
	c.mu.Lock()
	c.reads = append(c.reads, [2]int64{off, int64(n)})
	c.mu.Unlock()
	return n, cmp.Or(err, short)
}

// bytesReadIn sums the bytes the recorded reads returned from [lo, hi).
func (c *countingReaderAt) bytesReadIn(lo, hi int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total int64
	for _, r := range c.reads {
		total += max(0, min(r[0]+r[1], hi)-max(r[0], lo))
	}
	return total
}

// TestWarmRacesFirstQueries runs the background walk against first
// queries, for the race detector: eight goroutines query every method
// while Warm hydrates the same sections. Every proof must be byte-identical
// to the saved providers', every section — payload, head and CRC tail —
// must have been read from the file exactly once however the race went, and
// OnHydrate must have heard of each method once.
func TestWarmRacesFirstQueries(t *testing.T) {
	owner, dij, full, ldm, hyp := snapshotWorld(t, 220, 300)
	path, data := writeSnapshotFile(t, owner, dij, full, ldm, hyp)
	orig := &ProviderSet{}
	for _, p := range []Provider{dij, full, ldm, hyp} {
		orig.SetProvider(p)
	}
	qs, err := workload.Generate(owner.Graph(), 12, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := map[Method][][]byte{}
	for _, m := range Methods() {
		for _, q := range qs {
			want[m] = append(want[m], setProofBytes(t, m, orig, q.S, q.T))
		}
	}
	// hammer queries every method from eight goroutines while Warm runs,
	// after before() (if any) has run on the warming goroutine's side.
	hammer := func(t *testing.T, set *ProviderSet, check func(m Method, i int, pr Proof, err error) error) {
		var wg sync.WaitGroup
		errs := make(chan error, 8*len(Methods())+1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			set.Warm()
		}()
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := range Methods() {
					m := Methods()[(g+k)%len(Methods())]
					for i, q := range qs {
						pr, err := set.Provider(m).QueryProof(q.S, q.T)
						if err := check(m, i, pr, err); err != nil {
							errs <- err
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
	identical := func(m Method, i int, pr Proof, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", m, err)
		}
		if !bytes.Equal(pr.AppendBinary(nil), want[m][i]) {
			return fmt.Errorf("%s: proof %d diverged while warming", m, i)
		}
		return nil
	}

	t.Run("read once", func(t *testing.T) {
		cra := &countingReaderAt{ra: bytes.NewReader(data)}
		set := openLazy(t, cra, int64(len(data)))
		var mu sync.Mutex
		heard := map[Method]string{}
		set.OnHydrate = func(m Method, n int64, _ time.Duration, trigger string, err error) {
			mu.Lock()
			defer mu.Unlock()
			if _, dup := heard[m]; dup || err != nil || (trigger != "warm" && trigger != "query") {
				t.Errorf("OnHydrate(%s, %d bytes, %s, %v), already heard: %v", m, n, trigger, err, dup)
			}
			heard[m] = trigger
		}
		hammer(t, set, identical)
		if len(heard) != len(Methods()) {
			t.Errorf("OnHydrate heard of %v, want every method", heard)
		}
		for _, e := range set.file.Sections() {
			if _, method := defaultRegistry.lookupKind(e.Kind); !method {
				continue
			}
			whole := 12 + int64(e.Length) + 4
			if got := cra.bytesReadIn(e.Offset, e.Offset+whole); got != whole {
				t.Errorf("section kind %d: %d bytes read from a %d-byte section", e.Kind, got, whole)
			}
		}
	})

	// Close during the walk: whatever hydrated keeps serving identical
	// proofs, whatever had not fails cleanly and stays failed
	// (TestLazyCloseSemantics' contract), and the failures reach OnHydrate
	// instead of stopping the walk or the process.
	t.Run("close mid-walk", func(t *testing.T) {
		set, err := OpenProviderSetLazy(path)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		failed := map[Method]bool{}
		set.OnHydrate = func(m Method, _ int64, _ time.Duration, _ string, err error) {
			mu.Lock()
			failed[m] = err != nil
			mu.Unlock()
		}
		if _, err := set.Provider(DIJ).QueryProof(qs[0].S, qs[0].T); err != nil {
			t.Fatal(err)
		}
		closed := make(chan struct{})
		go func() {
			defer close(closed)
			if err := set.Close(); err != nil {
				t.Error(err)
			}
		}()
		hammer(t, set, func(m Method, i int, pr Proof, err error) error {
			if err != nil {
				if pr != nil || m == DIJ {
					return fmt.Errorf("%s (hydrated before Close: %v): proof %v with %w", m, m == DIJ, pr != nil, err)
				}
				return nil
			}
			return identical(m, i, pr, nil)
		})
		<-closed
		for _, m := range Methods() {
			_, err := set.Provider(m).QueryProof(qs[0].S, qs[0].T)
			if (err != nil) != failed[m] {
				t.Errorf("%s after Close: query error %v, OnHydrate heard failure=%v", m, err, failed[m])
			}
		}
	})
}

// TestHydrateAllocatesSectionOnce pins "one copy": hydrating a section
// allocates its bytes once — each Merkle level read straight into the slab
// the tree keeps, the hint rows decoded into one float slab — not a
// whole-section buffer first and the same bytes again. Across one HYP and
// one LDM hydration that is 1.18× the two sections' length here (HYP 1.08×;
// LDM 2.02×, of which 1.0× is the state LDM derives from its rows at load —
// quantized units, compression, tuple-table headers — and 0.2× the 64 KiB
// staging window on a 300 KB section); the parent commit read 2.17× (HYP
// 2.09×, LDM 2.81×).
func TestHydrateAllocatesSectionOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are counted too")
	}
	g, err := netgen.Synthesize(1500, 1650, 5)
	if err != nil {
		t.Fatal(err)
	}
	owner, err := NewOwner(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ldm := outsource[*LDMProvider](t, owner, LDM)
	hyp := outsource[*HYPProvider](t, owner, HYP)
	path, data := writeSnapshotFile(t, owner, ldm, hyp)
	set, err := OpenProviderSetLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	var allocated, stored uint64
	for m, kind := range map[Method]uint32{HYP: snapKindHYP, LDM: snapKindLDM} {
		length := sectionOf(t, data, kind).Length
		got := totalAlloc(func() {
			if _, err := unwrapProvider(set.Provider(m)); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d-byte section, %d bytes allocated hydrating it (%.2f×)", m, length, got, float64(got)/float64(length))
		allocated, stored = allocated+got, stored+length
	}
	if ratio := float64(allocated) / float64(stored); ratio > 1.25 {
		t.Errorf("hydrating HYP and LDM allocates %.2f× their sections' %d bytes, want ≤ 1.25×", ratio, stored)
	}
}

// TestReadProviderSetShortReads cuts the file off under the loader: from
// some byte inside a method section on, every read comes back short with an
// error, as io.ReaderAt lets a failing reader do. The streaming reader must
// turn that into a sticky snapshot.ErrCorrupt for that section — the decoder
// has run ahead on zeros by then — never a panic, never a provider; an eager
// load refuses the file, a lazy set keeps serving the sections before the cut.
func TestReadProviderSetShortReads(t *testing.T) {
	owner, dij, full, ldm, hyp := snapshotWorld(t, 220, 300)
	_, data := writeSnapshotFile(t, owner, dij, full, ldm, hyp)
	qs, err := workload.Generate(owner.Graph(), 1, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]
	for _, impl := range defaultRegistry.Impls() {
		e := sectionOf(t, data, impl.SnapshotKind())
		for _, at := range []int64{e.Offset + 12 + 1, e.Offset + 12 + int64(e.Length)/2, e.Offset + 12 + int64(e.Length) + 2} {
			if _, err := ReadProviderSet(&countingReaderAt{ra: bytes.NewReader(data), failAt: at}, int64(len(data))); !errors.Is(err, snapshot.ErrCorrupt) {
				t.Errorf("%s cut at %d: eager load: %v", impl.Method(), at, err)
			}
			// The trailing index is read at open, so the lazy open gets the
			// whole file and the cut arrives afterwards.
			cra := &countingReaderAt{ra: bytes.NewReader(data)}
			set := openLazy(t, cra, int64(len(data)))
			cra.failAt = at
			for _, other := range defaultRegistry.Impls() {
				m, cut := other.Method(), sectionOf(t, data, other.SnapshotKind()).Offset >= e.Offset
				for try := 0; try < 2; try++ {
					pr, err := set.Provider(m).QueryProof(q.S, q.T)
					if cut && (pr != nil || !errors.Is(err, snapshot.ErrCorrupt)) {
						t.Errorf("%s cut at %d: %s try %d: proof %v, err %v", impl.Method(), at, m, try, pr != nil, err)
					} else if !cut && err != nil {
						t.Errorf("%s cut at %d: %s lies before the cut and fails: %v", impl.Method(), at, m, err)
					}
				}
			}
		}
	}
}
