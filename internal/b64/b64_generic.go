//go:build !amd64 || purego

package b64

import "encoding/base64"

// useAVX2 is false where the assembly kernel is not built.
var useAVX2 = false

func encode(dst, src []byte) { base64.StdEncoding.Encode(dst, src) }
