package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"github.com/authhints/spv/internal/b64"
)

// The /query and /batch JSON bodies are written by hand, and the bytes are
// a contract: exactly what json.NewEncoder with SetEscapeHTML(false) writes
// for a wireAnswer or a batchReply — field order, omitempty, encoding/json's
// number and string formats, the trailing newline
// (TestJSONBodiesMatchEncodingJSON). Each proof is base64-encoded once,
// by internal/b64, straight from its cache pages (whole pages are a
// multiple of 3 bytes, so page by page is the one-shot encoding) into a
// pooled body that leaves in one Content-Length write rather than as a
// chunked stream.

// bodyPool recycles response bodies. One over maxPooledBody (a large
// /batch) is left to the collector rather than held for the next request.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 1 << 20

// sendJSON answers with the body appendBody builds, plus the newline
// json.Encoder ends a value with, in one write with a Content-Length. An
// appender error is answered as writeJSON answers an encoding error.
func sendJSON(w http.ResponseWriter, appendBody func([]byte) ([]byte, error)) {
	bp := bodyPool.Get().(*[]byte)
	b, err := appendBody((*bp)[:0])
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	} else {
		b = append(b, '\n')
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", strconv.Itoa(len(b)))
		w.Write(b)
	}
	if cap(b) <= maxPooledBody {
		*bp = b
		bodyPool.Put(bp)
	}
}

// appendAnswer appends a as encoding/json encodes a wireAnswer.
func appendAnswer(b []byte, a wireAnswer) ([]byte, error) {
	b = appendString(append(b, `{"method":`...), string(a.Method))
	b = strconv.AppendInt(append(b, `,"vs":`...), int64(a.VS), 10)
	b = strconv.AppendInt(append(b, `,"vt":`...), int64(a.VT), 10)
	if a.Dist != 0 {
		var err error
		if b, err = appendFloat(append(b, `,"dist":`...), a.Dist); err != nil {
			return b, err
		}
	}
	if a.Hops != 0 {
		b = strconv.AppendInt(append(b, `,"hops":`...), int64(a.Hops), 10)
	}
	b = strconv.AppendBool(append(b, `,"cached":`...), a.Cached)
	b = strconv.AppendInt(append(b, `,"proof_bytes":`...), int64(a.Bytes), 10)
	if a.pinned.ent != nil {
		b = append(b, `,"proof":"`...)
		a.pinned.each(func(p []byte) { b = b64.Append(b, p) })
		b = append(b, '"')
	} else if len(a.Proof) > 0 {
		b = appendBytes(append(b, `,"proof":`...), a.Proof)
	}
	if a.Error != "" {
		b = appendString(append(b, `,"error":`...), a.Error)
	}
	return append(b, '}'), nil
}

// appendBatchReply appends r as encoding/json encodes a batchReply whose
// slices are the ones handleBatch makes: Answers, and every batch's Items
// and Batch, non-nil.
func appendBatchReply(b []byte, r batchReply) ([]byte, error) {
	b = append(b, `{"answers":[`...)
	for i, a := range r.Answers {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendAnswer(b, a); err != nil {
			return b, err
		}
	}
	b = append(b, ']')
	if len(r.Batches) > 0 {
		b = append(b, `,"proof_batches":[`...)
		for i, pb := range r.Batches {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(append(b, `{"method":`...), string(pb.Method))
			b = append(b, `,"items":[`...)
			for j, it := range pb.Items {
				if j > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendInt(b, int64(it), 10)
			}
			b = strconv.AppendInt(append(b, `],"batch_bytes":`...), int64(pb.Bytes), 10)
			b = append(appendBytes(append(b, `,"batch":`...), pb.Batch), '}')
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// appendBytes appends p as encoding/json encodes a non-nil []byte.
func appendBytes(b, p []byte) []byte {
	return append(b64.Append(append(b, '"'), p), '"')
}

// appendFloat appends f in encoding/json's float64 format: shortest
// round-trip digits, exponent form below 1e-6 and from 1e21 with no
// leading zero in a negative exponent. A non-finite f is refused with
// encoding/json's own error.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		_, err := json.Marshal(f)
		return b, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// appendString appends s as encoding/json quotes it with HTML escaping
// off. Printable ASCII other than '"' and '\\' — every registered method
// name — is copied between quotes; a string with anything else (control
// bytes, invalid UTF-8, U+2028 …) goes through encoding/json itself.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= utf8.RuneSelf {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(false)
			enc.Encode(s) // a string always encodes
			return append(b, bytes.TrimSuffix(buf.Bytes(), []byte{'\n'})...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
