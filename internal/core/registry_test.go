package core

import (
	"errors"
	"slices"
	"testing"

	"github.com/authhints/spv/internal/graph"
)

// TestRegistryCanonicalOrder pins that Methods/Impls iterate in
// registration order and that the default registry follows the paper's
// presentation order.
func TestRegistryCanonicalOrder(t *testing.T) {
	want := []Method{DIJ, FULL, LDM, HYP}
	if got := RegisteredMethods(); !slices.Equal(got, want) {
		t.Fatalf("RegisteredMethods() = %v, want %v", got, want)
	}
	if got := Methods(); !slices.Equal(got, want) {
		t.Fatalf("Methods() = %v, want %v", got, want)
	}
	impls := defaultRegistry.Impls()
	for i, impl := range impls {
		if impl.Method() != want[i] {
			t.Fatalf("impl %d is %s, want %s", i, impl.Method(), want[i])
		}
	}
}

// TestRegistryRejectsCollisions pins construction-time validation:
// duplicate methods, duplicate snapshot kinds, and kinds colliding with
// the reserved core sections are all refused.
func TestRegistryRejectsCollisions(t *testing.T) {
	if _, err := newRegistry(dijImpl{}, dijImpl{}); err == nil {
		t.Fatal("duplicate method accepted")
	}
	if _, err := newRegistry(dijImpl{}, kindImpl{dijImpl{}, snapKindDIJ}); err == nil {
		t.Fatal("duplicate snapshot kind accepted")
	}
	if _, err := newRegistry(kindImpl{dijImpl{}, snapKindOrdering}); err == nil {
		t.Fatal("reserved core section kind accepted")
	}
}

// kindImpl overrides an impl's snapshot kind (and method name, to dodge
// the duplicate-method check) for collision tests.
type kindImpl struct {
	MethodImpl
	kind uint32
}

func (k kindImpl) Method() Method       { return Method("X" + string(k.MethodImpl.Method())) }
func (k kindImpl) SnapshotKind() uint32 { return k.kind }

// TestRegistryUnknownMethod pins the erased entry points' error class.
func TestRegistryUnknownMethod(t *testing.T) {
	if _, err := (&Owner{}).Outsource("NOPE"); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("Outsource = %v, want ErrUnknownMethod", err)
	}
	if _, _, err := DecodeProof("NOPE", nil); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("DecodeProof = %v, want ErrUnknownMethod", err)
	}
	if err := VerifyProof(nil, "NOPE", 0, 1, nil); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("VerifyProof = %v, want ErrUnknownMethod", err)
	}
	if _, _, err := (&UpdateBatch{}).Patch(badProvider{}); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("Patch = %v, want ErrUnknownMethod", err)
	}
}

// badProvider claims a method the registry does not know.
type badProvider struct{}

func (badProvider) Method() Method                                { return "NOPE" }
func (badProvider) QueryProof(vs, vt graph.NodeID) (Proof, error) { return nil, nil }
func (badProvider) adsRef() *networkADS                           { return nil }
func (badProvider) viewRef() *graph.CSR                           { return nil }
