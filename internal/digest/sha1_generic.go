//go:build !amd64 || purego

package digest

import "crypto/sha1"

// useSHANI is false where the assembly kernel is not built.
var useSHANI = false

func sumSHA1(msg []byte) [sha1.Size]byte { return sha1.Sum(msg) }
