package b64

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"math/rand"
	"testing"
)

// needKernel skips where Append has only encoding/base64 to dispatch to.
func needKernel(tb testing.TB) {
	if !useAVX2 {
		tb.Skip("no AVX2 kernel here (CPU or OS without AVX2, non-amd64 or -tags purego): encoding/base64 is the only path")
	}
}

// withKernel runs f with the dispatch flag set to on, then restores it.
func withKernel(on bool, f func()) {
	defer func(was bool) { useAVX2 = was }(useAVX2)
	useAVX2 = on
	f()
}

// proofLen is about one average proof of the repository benchmark's world.
const proofLen = 27 << 10

// TestAppendMatchesStdlib holds Append to its contract — bit-identical to
// base64.StdEncoding.AppendEncode, the prefix untouched — at every length
// to 1,024 and one proof, at source offsets 0-31 inside a larger buffer,
// on random bytes and on the bytes that reach each end of the alphabet.
func TestAppendMatchesStdlib(t *testing.T) {
	rnd := make([]byte, proofLen+32)
	rand.New(rand.NewSource(29)).Read(rnd)
	bufs := [][]byte{rnd, bytes.Repeat([]byte{0xFF}, len(rnd)), make([]byte, len(rnd))}
	prefix := []byte("prefix:")
	check := func(t *testing.T, n int) {
		t.Helper()
		for _, buf := range bufs {
			for off := 0; off < 32; off++ {
				src := buf[off : off+n]
				want := base64.StdEncoding.AppendEncode(bytes.Clone(prefix), src)
				if got := Append(bytes.Clone(prefix), src); !bytes.Equal(got, want) {
					t.Fatalf("len %d at offset %d: got %q, want %q", n, off, got, want)
				}
			}
		}
	}
	t.Run("every length to 1024", func(t *testing.T) {
		for n := 0; n <= 1024; n++ {
			check(t, n)
		}
	})
	t.Run("proof", func(t *testing.T) { check(t, proofLen) })
}

// TestAppendAllocs: appending into capacity — the server's pooled body —
// allocates nothing.
func TestAppendAllocs(t *testing.T) {
	src := make([]byte, 1000)
	buf := make([]byte, 0, base64.StdEncoding.EncodedLen(len(src)))
	if n := testing.AllocsPerRun(100, func() { buf = Append(buf[:0], src) }); n != 0 {
		t.Errorf("into capacity: %v allocs, want 0", n)
	}
}

// FuzzAppendBase64: kernel ≡ encoding/base64 on a seeded random source of
// any length to 64 KiB, shifted off alignment by up to 31 bytes.
func FuzzAppendBase64(f *testing.F) {
	needKernel(f)
	f.Add(int64(1), uint16(0), uint8(0))
	f.Add(int64(2), uint16(27), uint8(1))
	f.Add(int64(3), uint16(28), uint8(31))
	f.Add(int64(4), uint16(proofLen), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, off uint8) {
		buf := make([]byte, int(n)+32)
		rand.New(rand.NewSource(seed)).Read(buf)
		src := buf[off%32 : int(off%32)+int(n)]
		want := base64.StdEncoding.EncodeToString(src)
		if got := Append(nil, src); string(got) != want {
			t.Fatalf("len %d at offset %d: kernel and encoding/base64 differ", n, off%32)
		}
	})
}

var sink []byte

// BenchmarkAppendBase64 prices one proof's encoding on the kernel and on
// encoding/base64.
func BenchmarkAppendBase64(b *testing.B) {
	src := make([]byte, proofLen)
	rand.New(rand.NewSource(1)).Read(src)
	paths := []bool{false}
	if useAVX2 {
		paths = append(paths, true)
	}
	for _, kernel := range paths {
		b.Run(fmt.Sprintf("kernel=%v/%d", kernel, proofLen), func(b *testing.B) {
			withKernel(kernel, func() {
				buf := make([]byte, 0, base64.StdEncoding.EncodedLen(len(src)))
				b.SetBytes(int64(len(src)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf = Append(buf[:0], src)
				}
				sink = buf
			})
		})
	}
}
