package snapshot

import (
	"bytes"
	"io"
	"testing"
)

// FuzzReader feeds arbitrary bytes through the container reader: any input
// must either parse fully or return an error — never panic, and never
// allocate proportionally to a lying length field (the run completing
// under the fuzzer's memory limits is the allocation assertion).
func FuzzReader(f *testing.F) {
	// Seed with a valid snapshot and a few structured mutants.
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 3)
	if err != nil {
		f.Fatal(err)
	}
	_ = w.Section(1, []byte("config-payload"))
	_ = w.Section(2, bytes.Repeat([]byte{0x5A}, 600))
	_ = w.Close()
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add(valid[:headerSize+3])
	f.Add(withVersion(valid, 1))
	f.Add([]byte("SPVSNAP1"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		total := 0
		for {
			s, err := r.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				return
			}
			total += len(s.Payload)
			if total > len(data) {
				t.Fatalf("decoded %d payload bytes from a %d-byte input", total, len(data))
			}
		}
	})
}

// FuzzScan mirrors FuzzReader through the inspection path.
func FuzzScan(f *testing.F) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 0)
	if err != nil {
		f.Fatal(err)
	}
	_ = w.Section(4, []byte{1, 2, 3})
	_ = w.Close()
	f.Add(buf.Bytes())
	f.Add(withVersion(buf.Bytes(), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		info, err := Scan(bytes.NewReader(data))
		if err != nil {
			return
		}
		if info.Bytes <= 0 || info.Bytes > int64(len(data)) {
			t.Fatalf("Scan reports %d bytes of a %d-byte input", info.Bytes, len(data))
		}
	})
}

// FuzzFile drives the random-access path: arbitrary bytes must open via
// the index or the fallback walk (or error) — never panic — and every
// section read must be backed by real file bytes, so a lying index or
// length field cannot over-allocate. Seeds include a valid file, its
// index-corrupted mutant (exercising the fallback walk), and one with a
// version-1 header (refused at the version gate).
func FuzzFile(f *testing.F) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 11)
	if err != nil {
		f.Fatal(err)
	}
	_ = w.Section(1, []byte("config"))
	_ = w.Section(5, bytes.Repeat([]byte{0x3C}, 900))
	_ = w.Close()
	valid := buf.Bytes()
	f.Add(valid)
	mutant := append([]byte(nil), valid...)
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
