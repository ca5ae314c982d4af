//go:build !unix || race

package serve

// mapPages never maps: the arena allocates its chunks on the heap. Under the
// race detector this is deliberate — it does not see accesses to memory
// outside the Go heap, and the page store's must stay visible to it.
func mapPages(int) []byte { return nil }

func unmapPages([]byte) {}
