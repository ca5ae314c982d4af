package digest

import (
	"bytes"
	"testing"
)

func TestAlgProperties(t *testing.T) {
	for _, a := range []Alg{SHA1, SHA256} {
		if !a.Valid() {
			t.Errorf("%v reported invalid", a)
		}
		d := a.Sum([]byte("hello"), []byte("world"))
		if len(d) != a.Size() {
			t.Errorf("%v digest has %d bytes, want %d", a, len(d), a.Size())
		}
		// Concatenation semantics: Sum(a, b) == Sum(ab).
		if !bytes.Equal(d, a.Sum([]byte("helloworld"))) {
			t.Errorf("%v Sum not concatenation-consistent", a)
		}
		// AppendSum is the same function, appended in place
		// (TestAppendSumAllocs: without a heap allocation).
		prefix := []byte("prefix")
		if got := a.AppendSum(prefix, []byte("helloworld")); !bytes.Equal(got[:6], prefix) || !bytes.Equal(got[6:], d) {
			t.Errorf("%v AppendSum disagrees with Sum", a)
		}
		if bytes.Equal(d, a.Sum([]byte("helloworlD"))) {
			t.Errorf("%v collision on near-identical input", a)
		}
	}
	if SHA1.Size() != 20 || SHA256.Size() != 32 {
		t.Error("unexpected digest sizes")
	}
	if SHA1.String() != "sha1" || SHA256.String() != "sha256" {
		t.Error("unexpected names")
	}
}

func TestInvalidAlg(t *testing.T) {
	bad := Alg(77)
	if bad.Valid() {
		t.Error("alg 77 reported valid")
	}
	defer func() {
		if recover() == nil {
			t.Error("Size() on invalid alg did not panic")
		}
	}()
	_ = bad.Size()
}
