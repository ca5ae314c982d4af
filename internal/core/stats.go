package core

import (
	"encoding/binary"
	"math"
)

// ProofStats is the communication breakdown of a query proof, matching the
// paper's reporting: SBytes/SItems for the shortest path proof ΓS (tuples,
// distance entries), TBytes/TItems for the integrity proof ΓT (Merkle
// digests, signatures), and Base for the result itself (the path and its
// distance), which the paper does not count as proof.
type ProofStats struct {
	SBytes int
	TBytes int
	SItems int
	TItems int
	Base   int
}

// TotalBytes returns the full communication overhead in bytes (ΓS + ΓT).
func (s ProofStats) TotalBytes() int { return s.SBytes + s.TBytes }

// KBytes returns the communication overhead in KBytes, the paper's unit.
func (s ProofStats) KBytes() float64 { return float64(s.TotalBytes()) / 1024 }

// TotalItems returns the number of items in ΓS and ΓT combined.
func (s ProofStats) TotalItems() int { return s.SItems + s.TItems }

// appendFloat writes a float64 big-endian.
func appendFloat(buf []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(buf, math.Float64bits(f))
}
