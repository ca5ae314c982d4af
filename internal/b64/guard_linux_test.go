package b64

import (
	"encoding/base64"
	"os"
	"syscall"
	"testing"
)

// TestAppendReadsOnlySrc puts each source flush against an inaccessible
// page, so a kernel load past src's last byte faults instead of reading a
// neighbour's bytes that the output never shows.
func TestAppendReadsOnlySrc(t *testing.T) {
	page := os.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	for i := range mem[:page] {
		mem[i] = byte(i * 7)
	}
	for n := 0; n <= page; n++ {
		src := mem[page-n : page]
		if got, want := Append(nil, src), base64.StdEncoding.EncodeToString(src); string(got) != want {
			t.Fatalf("len %d: kernel and encoding/base64 differ", n)
		}
	}
}
