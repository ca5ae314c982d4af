package mht

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"github.com/authhints/spv/internal/digest"
)

func randomLeaves(rng *rand.Rand, n int) []byte {
	slab := make([]byte, n*digest.SHA1.Size())
	rng.Read(slab)
	return slab
}

// TestUpdateLeavesMatchesRebuild pins the patch contract across shapes:
// UpdateLeaves must produce exactly the tree Build produces over the
// patched leaf slab — every level, every byte — while not one byte of the
// receiver changes. Readers keep proving against the receiver while it is
// patched, so the -race lane holds the copy-on-write to "never writes the
// old slabs", not merely "restores them".
func TestUpdateLeavesMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	size := digest.SHA1.Size()
	for _, fanout := range []int{2, 3, 8} {
		for _, n := range []int{1, 2, 5, 33, 100} {
			leaves := randomLeaves(rng, n)
			tr, err := Build(digest.SHA1, fanout, bytes.Clone(leaves))
			if err != nil {
				t.Fatal(err)
			}
			before := make([][]byte, len(tr.levels))
			for l, lvl := range tr.levels {
				before[l] = bytes.Clone(lvl)
			}
			want0, err := tr.Prove([]int{0, n - 1})
			if err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var readers sync.WaitGroup
			for r := 0; r < 2; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						got, err := tr.Prove([]int{0, n - 1})
						if err != nil || !bytes.Equal(got.AppendBinary(nil), want0.AppendBinary(nil)) {
							t.Errorf("fanout=%d n=%d: a reader's proof against the old tree changed (%v)", fanout, n, err)
							return
						}
					}
				}()
			}
			for _, k := range []int{1, 2, n} {
				if k > n {
					continue
				}
				dirty := make(map[int][]byte, k)
				patched := bytes.Clone(leaves)
				for len(dirty) < k {
					i := rng.Intn(n)
					d := make([]byte, size)
					rng.Read(d)
					dirty[i] = d
					copy(patched[i*size:], d)
				}
				nt, err := tr.UpdateLeaves(dirty)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Build(digest.SHA1, fanout, patched)
				if err != nil {
					t.Fatal(err)
				}
				if len(nt.levels) != len(want.levels) {
					t.Fatalf("fanout=%d n=%d k=%d: height %d, want %d", fanout, n, k, len(nt.levels), len(want.levels))
				}
				for l := range want.levels {
					if !bytes.Equal(nt.levels[l], want.levels[l]) {
						t.Fatalf("fanout=%d n=%d k=%d: level %d differs from rebuild", fanout, n, k, l)
					}
				}
			}
			close(stop)
			readers.Wait()
			for l, lvl := range tr.levels {
				if !bytes.Equal(lvl, before[l]) {
					t.Fatalf("fanout=%d n=%d: receiver level %d mutated by UpdateLeaves", fanout, n, l)
				}
			}
		}
	}
}

// TestUpdateLeavesRejectsBadInput pins the validation surface.
func TestUpdateLeavesRejectsBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr, err := Build(digest.SHA1, 2, randomLeaves(rng, 8))
	if err != nil {
		t.Fatal(err)
	}
	good := make([]byte, digest.SHA1.Size())
	if _, err := tr.UpdateLeaves(map[int][]byte{8: good}); err == nil {
		t.Error("out-of-range leaf accepted")
	}
	if _, err := tr.UpdateLeaves(map[int][]byte{-1: good}); err == nil {
		t.Error("negative leaf accepted")
	}
	if _, err := tr.UpdateLeaves(map[int][]byte{0: good[:4]}); err == nil {
		t.Error("short digest accepted")
	}
	if nt, err := tr.UpdateLeaves(nil); err != nil || nt != tr {
		t.Error("empty patch should return the receiver unchanged")
	}
}
