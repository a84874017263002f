package repair

import (
	"testing"
	"unsafe"
)

// TestStateSize: TGD-free states carry no Definition 4 history (it sits
// behind a pointer), so a State, a DeferredChild's conflict key included,
// stays within the 112-byte allocation size class — the DAG sweep makes
// one per distinct database, and a walk under TGDs one per step.
func TestStateSize(t *testing.T) {
	if n := unsafe.Sizeof(State{}); n > 112 {
		t.Fatalf("State is %d bytes, want at most 112", n)
	}
}
