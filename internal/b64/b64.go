// Package b64 appends standard base64 — padded RFC 4648 §4, what
// encoding/base64.StdEncoding writes and what encoding/json writes for a
// []byte — on an AVX2 kernel where the CPU has one (Muła and Lemire,
// "Faster Base64 Encoding and Decoding using AVX2 Instructions", 2018) and
// with encoding/base64 everywhere else. The server's JSON answers carry
// every proof through it.
package b64

import (
	"encoding/base64"
	"slices"
)

// Append appends the standard base64 encoding of src to dst and returns
// the extended buffer: bit for bit base64.StdEncoding.AppendEncode(dst,
// src), with dst grown at most once.
func Append(dst, src []byte) []byte {
	n := base64.StdEncoding.EncodedLen(len(src))
	dst = slices.Grow(dst, n)
	encode(dst[len(dst):len(dst)+n], src)
	return dst[:len(dst)+n]
}
