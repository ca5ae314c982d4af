package snapshot

import (
	"bytes"
	"io"
	"testing"
)

// FuzzReader drives the sequential view of a file: arbitrary bytes must
// either open and walk frame by frame, streaming every walked payload
// through a CRC-checking SectionReader, or return an error — never panic,
// and never allocate proportionally to a lying length field (the run
// completing under the fuzzer's memory limits is the allocation
// assertion).
func FuzzReader(f *testing.F) {
	valid := buildSnapshot(f, 3, sec{1, []byte("config-payload")}, sec{2, bytes.Repeat([]byte{0x5A}, 600)})
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add(valid[:headerSize+3])
	f.Add(withVersion(valid, 1))
	f.Add([]byte("SPVSNAP1"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		sf, err := NewFile(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		table, err := sf.Walk()
		if err != nil {
			return
		}
		var total int64
		for _, e := range table {
			r, err := sf.open(e)
			if err != nil {
				return
			}
			n, err := io.Copy(io.Discard, r)
			if err != nil {
				return
			}
			total += n
			if total > int64(len(data)) {
				t.Fatalf("streamed %d payload bytes from a %d-byte input", total, len(data))
			}
		}
	})
}

// FuzzScan mirrors FuzzReader through the inspection path spvsnap info
// takes: open, then the whole-file CRC pass over the table.
func FuzzScan(f *testing.F) {
	one := buildSnapshot(f, 0, sec{4, []byte{1, 2, 3}})
	f.Add(one)
	f.Add(withVersion(one, 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		sf, err := NewFile(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		if err := sf.Verify(); err != nil {
			return
		}
		if sf.Size() <= 0 || sf.Size() > int64(len(data)) {
			t.Fatalf("File reports %d bytes of a %d-byte input", sf.Size(), len(data))
		}
	})
}

// FuzzFile drives the random-access path: arbitrary bytes must open via
// the index or the fallback walk (or error) — never panic — and every
// section read must be backed by real file bytes, so a lying index or
// length field cannot over-allocate. Seeds include a valid file, its
// index-corrupted mutant (exercising the fallback walk), one with a
// version-1 header (refused at the version gate) and a truncation.
func FuzzFile(f *testing.F) {
	valid := buildSnapshot(f, 11, sec{1, []byte("config")}, sec{5, bytes.Repeat([]byte{0x3C}, 900)})
	f.Add(valid)
	mutant := bytes.Clone(valid)
	mutant[len(mutant)-30] ^= 0xFF // lands in the index or end marker
	f.Add(mutant)
	f.Add(withVersion(valid, 1))
	f.Add(valid[:headerSize+5])

	f.Fuzz(func(t *testing.T, data []byte) {
		sf, err := NewFile(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		total := 0
		for _, e := range sf.Sections() {
			payload, err := sf.Section(e.Kind)
			if err != nil {
				continue
			}
			total += len(payload)
			if total > len(data) {
				t.Fatalf("read %d payload bytes from a %d-byte input", total, len(data))
			}
		}
	})
}
