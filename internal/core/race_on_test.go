//go:build race

package core

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// quarter of what is Put into it, so steady-state allocation counts of
// pooled paths are not steady.
const raceEnabled = true
