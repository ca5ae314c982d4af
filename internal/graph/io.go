package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary graph format:
//
//	magic "SPVG" | version uint32 | n uint32 | m uint32 |
//	n × (x float64, y float64) |
//	m × (u uint32, v uint32, w float64)
//
// Each undirected edge appears once with u < v.
const (
	magic      = "SPVG"
	fmtVersion = 1
)

// WriteTo serializes the network in the binary SPVG format. A builder
// writes itself through Freeze().WriteTo: one encoder for every SPVG byte.
func (c *CSR) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	rec := make([]byte, 0, 16)
	put := func() error {
		k, err := bw.Write(rec)
		n += int64(k)
		rec = rec[:0]
		return err
	}
	rec = append(rec, magic...)
	rec = binary.BigEndian.AppendUint32(rec, fmtVersion)
	rec = binary.BigEndian.AppendUint32(rec, uint32(c.NumNodes()))
	rec = binary.BigEndian.AppendUint32(rec, uint32(c.NumEdges()))
	if err := put(); err != nil {
		return n, err
	}
	for i := range c.xs {
		rec = binary.BigEndian.AppendUint64(rec, math.Float64bits(c.xs[i]))
		rec = binary.BigEndian.AppendUint64(rec, math.Float64bits(c.ys[i]))
		if err := put(); err != nil {
			return n, err
		}
	}
	for u := 0; u < c.NumNodes(); u++ {
		for _, e := range c.Neighbors(NodeID(u)) {
			if e.To <= NodeID(u) {
				continue
			}
			rec = binary.BigEndian.AppendUint32(rec, uint32(u))
			rec = binary.BigEndian.AppendUint32(rec, uint32(e.To))
			rec = binary.BigEndian.AppendUint64(rec, math.Float64bits(e.W))
			if err := put(); err != nil {
				return n, err
			}
		}
	}
	return n, bw.Flush()
}

// BinarySize returns the exact byte size WriteTo produces — the length a
// streaming snapshot writer must declare before piping the network to disk.
func (c *CSR) BinarySize() int64 {
	return int64(len(magic)) + 12 + 16*int64(c.NumNodes()) + 16*int64(c.NumEdges())
}

// Read deserializes a graph written by WriteTo.
func Read(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	return ReadBytes(data)
}

// ReadBytes deserializes a graph from an in-memory SPVG image. This is
// the hot deserialization path — snapshot opens decode the graph before
// the first proof can be served — so it parses fields manually instead of
// through encoding/binary's reflective Read.
func ReadBytes(data []byte) (*Graph, error) {
	const headSize = len(magic) + 12
	if len(data) < headSize {
		return nil, fmt.Errorf("graph: %d-byte input is shorter than the header", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("graph: bad magic %q", data[:len(magic)])
	}
	version := binary.BigEndian.Uint32(data[len(magic):])
	n := binary.BigEndian.Uint32(data[len(magic)+4:])
	m := binary.BigEndian.Uint32(data[len(magic)+8:])
	if version != fmtVersion {
		return nil, fmt.Errorf("graph: unsupported version %d", version)
	}
	need := uint64(headSize) + 16*uint64(n) + 16*uint64(m)
	if uint64(len(data)) < need {
		return nil, fmt.Errorf("graph: truncated (%d bytes, need %d for %d nodes and %d edges)", len(data), need, n, m)
	}
	g := New(int(n))
	off := headSize
	for i := uint32(0); i < n; i++ {
		x := math.Float64frombits(binary.BigEndian.Uint64(data[off:]))
		y := math.Float64frombits(binary.BigEndian.Uint64(data[off+8:]))
		g.AddNode(x, y)
		off += 16
	}
	for i := uint32(0); i < m; i++ {
		u := binary.BigEndian.Uint32(data[off:])
		v := binary.BigEndian.Uint32(data[off+4:])
		w := math.Float64frombits(binary.BigEndian.Uint64(data[off+8:]))
		if err := g.AddEdge(NodeID(u), NodeID(v), w); err != nil {
			return nil, fmt.Errorf("graph: edge %d: %w", i, err)
		}
		off += 16
	}
	return g, nil
}

// WriteEdgeList emits a human-readable text form: one header line
// "n m", then n lines "x y", then m lines "u v w".
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.NumNodes(), g.NumEdges()); err != nil {
		return err
	}
	for i := 0; i < g.NumNodes(); i++ {
		if _, err := fmt.Fprintf(bw, "%g %g\n", g.xs[i], g.ys[i]); err != nil {
			return err
		}
	}
	for u := 0; u < g.NumNodes(); u++ {
		for _, e := range g.adj[u] {
			if e.To > NodeID(u) {
				if _, err := fmt.Fprintf(bw, "%d %d %g\n", u, e.To, e.W); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the text form written by WriteEdgeList.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var n, m int
	if _, err := fmt.Fscan(br, &n, &m); err != nil {
		return nil, fmt.Errorf("graph: reading edge-list header: %w", err)
	}
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("graph: negative sizes %d %d", n, m)
	}
	g := New(n)
	for i := 0; i < n; i++ {
		var x, y float64
		if _, err := fmt.Fscan(br, &x, &y); err != nil {
			return nil, fmt.Errorf("graph: reading node %d: %w", i, err)
		}
		g.AddNode(x, y)
	}
	for i := 0; i < m; i++ {
		var u, v int
		var w float64
		if _, err := fmt.Fscan(br, &u, &v, &w); err != nil {
			return nil, fmt.Errorf("graph: reading edge %d: %w", i, err)
		}
		if err := g.AddEdge(NodeID(u), NodeID(v), w); err != nil {
			return nil, fmt.Errorf("graph: edge %d: %w", i, err)
		}
	}
	return g, nil
}
