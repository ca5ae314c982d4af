//go:build unix && !race

package serve

import "syscall"

// mapPages maps n bytes of anonymous, private memory, which the kernel backs
// only as pages are first written; nil (the arena then allocates on the
// heap) if n is 0 or the mapping fails.
func mapPages(n int) []byte {
	if n == 0 {
		return nil
	}
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil
	}
	return b
}

func unmapPages(b []byte) { syscall.Munmap(b) }
