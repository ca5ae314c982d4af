package digest

import (
	"bytes"
	"crypto/sha1"
	"fmt"
	"math/rand"
	"testing"
)

// needKernel skips where AppendSum has only crypto/sha1 to dispatch to.
func needKernel(tb testing.TB) {
	if !useSHANI {
		tb.Skip("no SHA-NI kernel here (CPU without SHA/SSSE3/SSE4.1, non-amd64 or -tags purego): crypto/sha1 is the only path")
	}
}

// withKernel runs f with the dispatch flag set to on, then restores it.
func withKernel(on bool, f func()) {
	defer func(was bool) { useSHANI = was }(useSHANI)
	useSHANI = on
	f()
}

// certRowLen is one certificate row of the repository benchmark's world.
const certRowLen = 86636

// TestSHA1KernelMatchesStdlib holds the kernel to its contract —
// bit-identical to crypto/sha1 at any length and any alignment — on every
// length to 4,096 and one certificate row, at source offsets 0-15 inside a
// larger buffer (the kernel's loads are unaligned by design).
func TestSHA1KernelMatchesStdlib(t *testing.T) {
	needKernel(t)
	rnd := make([]byte, certRowLen+16)
	rand.New(rand.NewSource(21)).Read(rnd)
	ones := bytes.Repeat([]byte{0xFF}, len(rnd))
	check := func(t *testing.T, n int) {
		t.Helper()
		for _, buf := range [][]byte{rnd, ones} {
			for off := 0; off < 16; off++ {
				msg := buf[off : off+n]
				want := sha1.Sum(msg)
				if got := SHA1.AppendSum(nil, msg); !bytes.Equal(got, want[:]) {
					t.Fatalf("len %d at offset %d: kernel %x, crypto/sha1 %x", n, off, got, want)
				}
			}
		}
	}
	// Where the padding changes shape: the length field's last fit in one
	// block (55), its first spill (56), a full block and one over, and the
	// same edges one block on.
	for _, n := range []int{55, 56, 63, 64, 119, 120} {
		t.Run(fmt.Sprintf("pad%d", n), func(t *testing.T) { check(t, n) })
	}
	t.Run("every length to 4096", func(t *testing.T) {
		for n := 0; n <= 4096; n++ {
			check(t, n)
		}
	})
	t.Run("certificate row", func(t *testing.T) { check(t, certRowLen) })
}

// TestAppendSumAllocs: zero allocations for both algorithms on both SHA-1
// paths, appending into capacity; without capacity the one allocation is
// append's.
func TestAppendSumAllocs(t *testing.T) {
	msg := make([]byte, 58)
	paths := []bool{false}
	if useSHANI {
		paths = append(paths, true)
	} else {
		t.Log("no SHA-NI kernel here: only the crypto/sha1 path runs")
	}
	for _, kernel := range paths {
		withKernel(kernel, func() {
			for _, a := range []Alg{SHA1, SHA256} {
				buf := make([]byte, 0, 64)
				if n := testing.AllocsPerRun(100, func() { buf = a.AppendSum(buf[:0], msg) }); n != 0 {
					t.Errorf("%v (kernel %v) into capacity: %v allocs, want 0", a, kernel, n)
				}
				var out []byte
				if n := testing.AllocsPerRun(100, func() { out = a.AppendSum(nil, msg) }); n != 1 {
					t.Errorf("%v (kernel %v) into nil: %v allocs, want 1 (the result)", a, kernel, n)
				}
				if !bytes.Equal(out, buf) {
					t.Errorf("%v (kernel %v): digests differ with and without capacity", a, kernel)
				}
			}
		})
	}
}

// FuzzSHA1Kernel: kernel ≡ crypto/sha1, the input shifted off alignment by
// its own first byte.
func FuzzSHA1Kernel(f *testing.F) {
	needKernel(f)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 56))
	f.Add(bytes.Repeat([]byte("abcdefgh"), 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		msg := data
		if len(data) > 0 {
			msg = data[int(data[0])%16%len(data):]
		}
		want := sha1.Sum(msg)
		if got := SHA1.AppendSum(nil, msg); !bytes.Equal(got, want[:]) {
			t.Fatalf("len %d: kernel %x, crypto/sha1 %x", len(msg), got, want)
		}
	})
}

var sink []byte

// BenchmarkAppendSum prices H(·) at the sizes the structures hash: 40 B (an
// internal node of a fanout-2 SHA-1 tree), 58 B (a leaf message, two
// blocks), 1 KiB and one certificate row.
func BenchmarkAppendSum(b *testing.B) {
	for _, a := range []Alg{SHA1, SHA256} {
		for _, n := range []int{40, 58, 1024, certRowLen} {
			b.Run(fmt.Sprintf("%v/%d", a, n), func(b *testing.B) {
				msg := make([]byte, n)
				buf := make([]byte, 0, 32)
				b.SetBytes(int64(n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf = a.AppendSum(buf[:0], msg)
				}
				sink = buf
			})
		}
	}
}
