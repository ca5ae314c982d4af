//go:build race

package serve

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// quarter of what is Put into it, so pooled paths allocate at random.
const raceEnabled = true
