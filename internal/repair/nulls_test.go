package repair

import (
	"testing"

	"repro/internal/constraint"
	"repro/internal/logic"
	"repro/internal/ops"
	"repro/internal/relation"
)

// inclusionInstance builds R(x,y) → ∃z S(y,z) over two dangling R facts.
func inclusionInstance(t *testing.T, opts Options) *Instance {
	t.Helper()
	d := relation.FromFacts(
		f("R", "x1", "y1"),
		f("R", "x2", "y2"),
	)
	tgd := constraint.MustTGD(
		[]logic.Atom{at("R", v("x"), v("y"))},
		[]logic.Atom{at("S", v("y"), v("z"))},
	)
	inst, err := NewInstanceOpts(d, constraint.NewSet(tgd), opts)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestNullModeSingleInsertionPerViolation: grounded mode offers
// |dom|^1 = 4 insertions per violation; null mode offers exactly one.
func TestNullModeSingleInsertionPerViolation(t *testing.T) {
	grounded := inclusionInstance(t, Options{})
	groundedExts := grounded.Root().Extensions()
	groundedInserts := 0
	for _, op := range groundedExts {
		if op.IsInsert() {
			groundedInserts++
		}
	}
	// 2 violations × 4 base constants.
	if groundedInserts != 8 {
		t.Errorf("grounded insertions = %d, want 8", groundedInserts)
	}

	nulled := inclusionInstance(t, Options{NullInsertions: true})
	nulledExts := nulled.Root().Extensions()
	nulledInserts := 0
	for _, op := range nulledExts {
		if op.IsInsert() {
			nulledInserts++
			for _, fact := range op.Facts() {
				if !ops.HasNulls(fact) {
					t.Errorf("null-mode insertion %s has no null", op)
				}
			}
		}
	}
	if nulledInserts != 2 {
		t.Errorf("null-mode insertions = %d, want 2 (one per violation)", nulledInserts)
	}
	// Deletions are unaffected by the mode.
	if len(nulledExts)-nulledInserts != 2 {
		t.Errorf("null-mode deletions = %d, want 2", len(nulledExts)-nulledInserts)
	}
}

// TestNullModeRepairsConsistent: every complete sequence in null mode
// yields a consistent database, and sequences validate.
func TestNullModeRepairsConsistent(t *testing.T) {
	inst := inclusionInstance(t, Options{NullInsertions: true})
	leaves := 0
	Walk(inst, func(s *State) bool {
		if err := Validate(inst, s.Ops()); err != nil {
			t.Errorf("sequence %q fails validation: %v", s, err)
			return false
		}
		if s.IsComplete() {
			leaves++
			if !s.IsSuccessful() {
				t.Errorf("complete sequence %q is failing", s)
			}
		}
		return true
	})
	// Each violation independently: delete R or insert S(y, null): 2 × 2
	// outcomes in either order = 8 ordered leaves.
	if leaves != 8 {
		t.Errorf("leaves = %d, want 8", leaves)
	}
}

// TestNullModeDeterministicNullNames: the same violation always yields the
// same null constant, keeping chains reproducible.
func TestNullModeDeterministicNullNames(t *testing.T) {
	a := inclusionInstance(t, Options{NullInsertions: true})
	b := inclusionInstance(t, Options{NullInsertions: true})
	opsA := a.Root().Extensions()
	opsB := b.Root().Extensions()
	if len(opsA) != len(opsB) {
		t.Fatalf("extension counts differ: %d vs %d", len(opsA), len(opsB))
	}
	for i := range opsA {
		if !opsA[i].Equal(opsB[i]) {
			t.Errorf("extension %d differs: %s vs %s", i, opsA[i], opsB[i])
		}
	}
}

// TestNullModeNullNamesPinned: null names hash the violation's stable key
// (constraint id and binding), which is built lazily on first use; the
// names must stay exactly what earlier builds produced, or replayed op logs
// and recorded chains would name different nulls.
func TestNullModeNullNamesPinned(t *testing.T) {
	inst := inclusionInstance(t, Options{NullInsertions: true})
	var got []string
	for _, o := range inst.Root().Extensions() {
		got = append(got, o.String())
	}
	want := []string{"+S(y1, null_a117d65a_z)", "+S(y2, null_13d8e398_z)", "-R(x1, y1)", "-R(x2, y2)"}
	if len(got) != len(want) {
		t.Fatalf("extensions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("extension %d = %s, want %s", i, got[i], want[i])
		}
	}
}

// TestNullModeChaseDepth: inserted null facts can themselves trigger
// further TGD violations (a chase); the process still terminates here and
// remains validated.
func TestNullModeChaseDepth(t *testing.T) {
	// R(x) → ∃z S(x,z); S(x,z) → T(z). A null inserted for S cascades into
	// a ground T fact over the null.
	d := relation.FromFacts(f("R", "a"))
	tgd1 := constraint.MustTGD(
		[]logic.Atom{at("R", v("x"))},
		[]logic.Atom{at("S", v("x"), v("z"))},
	)
	tgd2 := constraint.MustTGD(
		[]logic.Atom{at("S", v("x"), v("z"))},
		[]logic.Atom{at("T", v("z"))},
	)
	inst, err := NewInstanceOpts(d, constraint.NewSet(tgd1, tgd2), Options{NullInsertions: true})
	if err != nil {
		t.Fatal(err)
	}
	st := Survey(inst)
	if st.Successful == 0 {
		t.Error("expected at least one successful sequence")
	}
	// Check one successful path explicitly: +S(a, null), +T(null).
	s := inst.Root()
	var insertS ops.Op
	for _, op := range s.Extensions() {
		if op.IsInsert() {
			insertS = op
		}
	}
	s = s.Child(insertS)
	if s.Consistent() {
		t.Fatal("T violation should remain after inserting S")
	}
	var insertT ops.Op
	found := false
	for _, op := range s.Extensions() {
		if op.IsInsert() {
			insertT = op
			found = true
		}
	}
	if !found {
		t.Fatal("expected a follow-up insertion for the T violation")
	}
	s = s.Child(insertT)
	if !s.IsSuccessful() {
		t.Errorf("chase path did not terminate consistently: %q", s)
	}
	if err := Validate(inst, s.Ops()); err != nil {
		t.Errorf("chase path fails validation: %v", err)
	}
}

// TestGroundedModeRejectsNullFacts: without the option, operations with
// nulls are outside B(D,Σ) and rejected by the validator.
func TestGroundedModeRejectsNullFacts(t *testing.T) {
	inst := inclusionInstance(t, Options{})
	bad := []ops.Op{ops.Insert(f("S", "y1", ops.NullPrefix+"zz"))}
	if err := Validate(inst, bad); err == nil {
		t.Error("grounded mode must reject null facts")
	}
}
