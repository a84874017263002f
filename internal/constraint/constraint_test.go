package constraint

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/logic"
	"repro/internal/relation"
)

func v(n string) logic.Term                    { return logic.Var(n) }
func c(n string) logic.Term                    { return logic.Const(n) }
func at(p string, ts ...logic.Term) logic.Atom { return logic.NewAtom(p, ts...) }

// example1 builds D = {R(a,b), R(a,c), T(a,b)} and Σ = {σ, η} with
// σ = R(x,y) → ∃z S(x,y,z) and η = R(x,y), R(x,z) → y = z (Example 1).
func example1() (*relation.Database, *Set, *Constraint, *Constraint) {
	d := relation.FromFacts(
		relation.NewFact("R", "a", "b"),
		relation.NewFact("R", "a", "c"),
		relation.NewFact("T", "a", "b"),
	)
	sigma := MustTGD(
		[]logic.Atom{at("R", v("x"), v("y"))},
		[]logic.Atom{at("S", v("x"), v("y"), v("z"))},
	)
	eta := MustEGD(
		[]logic.Atom{at("R", v("x"), v("y")), at("R", v("x"), v("z"))},
		v("y"), v("z"),
	)
	set := NewSet(sigma, eta)
	return d, set, sigma, eta
}

func TestConstraintValidation(t *testing.T) {
	if _, err := NewTGD(nil, []logic.Atom{at("S", v("x"))}); err == nil {
		t.Error("empty TGD body must fail")
	}
	if _, err := NewTGD([]logic.Atom{at("R", v("x"))}, nil); err == nil {
		t.Error("empty TGD head must fail")
	}
	if _, err := NewEGD([]logic.Atom{at("R", v("x"), v("y"))}, v("x"), c("a")); err == nil {
		t.Error("EGD with a constant side must fail")
	}
	if _, err := NewEGD([]logic.Atom{at("R", v("x"), v("y"))}, v("x"), v("w")); err == nil {
		t.Error("EGD with a variable outside the body must fail")
	}
	if _, err := NewEGD([]logic.Atom{at("R", v("x"), v("y"))}, v("x"), v("x")); err == nil {
		t.Error("trivial EGD x = x must fail")
	}
	if _, err := NewDC(nil); err == nil {
		t.Error("empty DC body must fail")
	}
}

func TestKindsAndAccessors(t *testing.T) {
	_, _, sigma, eta := example1()
	if sigma.Kind() != TGD || eta.Kind() != EGD {
		t.Error("kinds wrong")
	}
	dc := MustDC([]logic.Atom{at("R", v("x"), v("x"))})
	if dc.Kind() != DC {
		t.Error("DC kind wrong")
	}
	if got := sigma.ExistentialVars(); len(got) != 1 || got[0].Name() != "z" {
		t.Errorf("ExistentialVars = %v, want [z]", got)
	}
	if got := eta.ExistentialVars(); got != nil {
		t.Errorf("EGD must have no existential vars, got %v", got)
	}
	l, r := eta.Equality()
	if l.Name() != "y" || r.Name() != "z" {
		t.Errorf("Equality = %v, %v", l, r)
	}
	if got := TGD.String(); got != "TGD" {
		t.Errorf("Kind.String = %q", got)
	}
}

func TestSatisfiedTGD(t *testing.T) {
	_, _, sigma, _ := example1()
	d := relation.FromFacts(relation.NewFact("R", "a", "b"))
	if sigma.Satisfied(d) {
		t.Error("R(a,b) without S must violate σ")
	}
	d.Insert(relation.NewFact("S", "a", "b", "q"))
	if !sigma.Satisfied(d) {
		t.Error("head witness present, σ must hold")
	}
}

func TestSatisfiedEGD(t *testing.T) {
	_, _, _, eta := example1()
	d := relation.FromFacts(relation.NewFact("R", "a", "b"))
	if !eta.Satisfied(d) {
		t.Error("single fact cannot violate the key")
	}
	d.Insert(relation.NewFact("R", "a", "c"))
	if eta.Satisfied(d) {
		t.Error("two values for key a must violate η")
	}
	d2 := relation.FromFacts(relation.NewFact("R", "a", "b"), relation.NewFact("b", "x", "y"))
	_ = d2
}

func TestSatisfiedDC(t *testing.T) {
	dc := MustDC([]logic.Atom{at("Pref", v("x"), v("y")), at("Pref", v("y"), v("x"))})
	d := relation.FromFacts(relation.NewFact("Pref", "a", "b"))
	if !dc.Satisfied(d) {
		t.Error("no symmetric pair yet")
	}
	d.Insert(relation.NewFact("Pref", "b", "a"))
	if dc.Satisfied(d) {
		t.Error("symmetric pair must violate the DC")
	}
}

func TestFindViolationsExample1(t *testing.T) {
	d, set, sigma, eta := example1()
	vs := FindViolations(d, set)
	// σ is violated by h1 = {x→a,y→b} and {x→a,y→c};
	// η by h2 = {x→a,y→b,z→c} and h3 = {x→a,y→c,z→b}.
	if vs.Len() != 4 {
		t.Fatalf("found %d violations, want 4: %v", vs.Len(), vs.Keys())
	}
	bySigma, byEta := 0, 0
	for _, viol := range vs.All() {
		switch viol.Constraint {
		case sigma:
			bySigma++
		case eta:
			byEta++
			body := viol.BodyFacts()
			if len(body) != 2 {
				t.Errorf("EGD violation body has %d facts, want 2", len(body))
			}
		}
	}
	if bySigma != 2 || byEta != 2 {
		t.Errorf("violations: %d for σ, %d for η; want 2 and 2", bySigma, byEta)
	}
}

func TestViolationsEmptyOnConsistent(t *testing.T) {
	_, set, _, _ := example1()
	d := relation.FromFacts(
		relation.NewFact("R", "a", "b"),
		relation.NewFact("S", "a", "b", "z"),
		relation.NewFact("T", "a", "b"),
	)
	vs := FindViolations(d, set)
	if !vs.Empty() {
		t.Errorf("consistent database has violations: %v", vs.Keys())
	}
	if !set.Satisfied(d) {
		t.Error("Satisfied must agree with empty violations")
	}
}

func TestViolationsMinus(t *testing.T) {
	d, set, _, _ := example1()
	before := FindViolations(d, set)
	d2 := d.Clone()
	d2.Delete(relation.NewFact("R", "a", "c"))
	after := FindViolations(d2, set)
	gone := before.Minus(after)
	// Deleting R(a,c) removes both EGD violations and σ's {x→a,y→c}.
	if len(gone) != 3 {
		t.Errorf("eliminated %d violations, want 3", len(gone))
	}
	if len(after.Minus(before)) != 0 {
		t.Error("no new violations expected")
	}
}

func TestInvolvedFacts(t *testing.T) {
	d, set, _, _ := example1()
	vs := FindViolations(d, set)
	inv := vs.InvolvedFacts()
	// R(a,b), R(a,c) are involved; T(a,b) is not.
	if len(inv) != 2 {
		t.Fatalf("involved facts = %v, want 2", inv)
	}
	for _, f := range inv {
		if f.PredName() != "R" {
			t.Errorf("unexpected involved fact %s", f)
		}
	}
}

// TestForEachInvolvedFact: the visitor sees every fact of InvolvedFacts
// exactly once — below the scan limit (overlapping key groups, where one
// fact sits in several bodies) and past it (the hash-set path) — stops
// when visit returns false, and allocates nothing on small sets.
func TestForEachInvolvedFact(t *testing.T) {
	key := MustEGD([]logic.Atom{at("R", v("x"), v("y")), at("R", v("x"), v("z"))}, v("y"), v("z"))
	set := NewSet(key)
	for _, groups := range []int{1, 3, 20} {
		d := relation.NewDatabase()
		for g := 0; g < groups; g++ {
			for m := 0; m < 3; m++ {
				d.Insert(relation.NewFact("R", "k"+strings.Repeat("g", g), strings.Repeat("m", m+1)))
			}
		}
		d.Insert(relation.NewFact("R", "clean", "x"))
		vs := FindViolations(d, set)
		if small := vs.Len() <= involvedScanMax; small != (groups < 20) {
			t.Fatalf("groups=%d: %d violations, scan path = %v", groups, vs.Len(), small)
		}
		want := map[relation.Fact]bool{}
		for _, f := range vs.InvolvedFacts() {
			want[f] = true
		}
		got := map[relation.Fact]int{}
		vs.ForEachInvolvedFact(func(f relation.Fact) bool {
			got[f]++
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("groups=%d: visited %d facts, want %d", groups, len(got), len(want))
		}
		for f, n := range got {
			if !want[f] || n != 1 {
				t.Fatalf("groups=%d: fact %s visited %d times (involved: %v)", groups, f, n, want[f])
			}
		}
		calls := 0
		vs.ForEachInvolvedFact(func(relation.Fact) bool {
			calls++
			return calls < 2
		})
		if calls != 2 {
			t.Errorf("groups=%d: visit returned false on the second fact, got %d calls", groups, calls)
		}
		if groups < 20 {
			n := 0
			if allocs := testing.AllocsPerRun(20, func() {
				vs.ForEachInvolvedFact(func(relation.Fact) bool { n++; return true })
			}); allocs != 0 {
				t.Errorf("groups=%d: %v allocs per call, want 0", groups, allocs)
			}
		}
	}
}

func TestViolationKeyStable(t *testing.T) {
	d, set, _, _ := example1()
	vs1 := FindViolations(d, set)
	vs2 := FindViolations(d.Clone(), set)
	k1 := strings.Join(vs1.Keys(), ";")
	k2 := strings.Join(vs2.Keys(), ";")
	if k1 != k2 {
		t.Errorf("violation keys unstable:\n%s\n%s", k1, k2)
	}
}

func TestSetBase(t *testing.T) {
	d, set, _, _ := example1()
	base, err := set.Base(d)
	if err != nil {
		t.Fatalf("Base: %v", err)
	}
	dom := base.Dom()
	if strings.Join(dom, ",") != "a,b,c" {
		t.Errorf("base dom = %v", dom)
	}
	// S/3 comes from the TGD head even though D has no S facts.
	if _, ok := base.Schema().Arity("S"); !ok {
		t.Error("schema must include S from the constraint head")
	}
	if !base.Contains(relation.NewFact("S", "a", "b", "c")) {
		t.Error("S(a,b,c) must be in the base")
	}
}

func TestSetBaseWithConstraintConstants(t *testing.T) {
	d := relation.FromFacts(relation.NewFact("R", "a", "b"))
	tgd := MustTGD(
		[]logic.Atom{at("R", v("x"), v("y"))},
		[]logic.Atom{at("S", v("x"), c("special"))},
	)
	set := NewSet(tgd)
	base, err := set.Base(d)
	if err != nil {
		t.Fatal(err)
	}
	if !base.HasConst("special") {
		t.Error("constraint constants must be in the base domain")
	}
}

func TestConstraintString(t *testing.T) {
	_, _, sigma, eta := example1()
	if got := sigma.String(); got != "R(x, y) -> exists z: S(x, y, z)" {
		t.Errorf("TGD String = %q", got)
	}
	if got := eta.String(); got != "R(x, y), R(x, z) -> y = z" {
		t.Errorf("EGD String = %q", got)
	}
	dc := MustDC([]logic.Atom{at("R", v("x"), v("x"))})
	if got := dc.String(); got != "R(x, x) -> false" {
		t.Errorf("DC String = %q", got)
	}
}

func TestSetIDsAndLookup(t *testing.T) {
	_, set, sigma, eta := example1()
	if sigma.ID() == "" || eta.ID() == "" || sigma.ID() == eta.ID() {
		t.Error("set must assign distinct ids")
	}
	got, ok := set.ByID(eta.ID())
	if !ok || got != eta {
		t.Error("ByID lookup failed")
	}
	if set.Len() != 2 {
		t.Errorf("Len = %d", set.Len())
	}
}

func TestTGDMultiAtomHead(t *testing.T) {
	// Multi-head TGD requires both head atoms (Proposition 1 remark).
	tgd := MustTGD(
		[]logic.Atom{at("R", v("x"))},
		[]logic.Atom{at("S", v("x"), v("z")), at("U", v("z"))},
	)
	d := relation.FromFacts(relation.NewFact("R", "a"), relation.NewFact("S", "a", "q"))
	if tgd.Satisfied(d) {
		t.Error("S(a,q) alone does not satisfy the two-atom head (no U(q))")
	}
	d.Insert(relation.NewFact("U", "q"))
	if !tgd.Satisfied(d) {
		t.Error("both head atoms present; TGD must hold")
	}
}

// TestViolationKeyRefreshedOnSetAdd: a violation interned before its
// constraint joins a Set must still render with the final constraint id —
// Set.Add refreshes the cached canonical keys.
func TestViolationKeyRefreshedOnSetAdd(t *testing.T) {
	x, y := logic.Var("x"), logic.Var("y")
	dc := MustDC([]logic.Atom{logic.NewAtom("Early", x, y)})
	h := logic.NewSubst()
	h[x.Sym()] = logic.Const("a").Sym()
	h[y.Sym()] = logic.Const("b").Sym()
	early := NewViolation(dc, h)
	if got := early.Key(); got[0] != '|' {
		t.Fatalf("pre-set key = %q, want empty constraint id", got)
	}
	NewSet(dc)
	if got := NewViolation(dc, h).Key(); got != dc.ID()+"|"+early.H.Key() {
		t.Errorf("post-add key = %q, want %q", got, dc.ID()+"|"+early.H.Key())
	}
	if got := early.Key(); got != dc.ID()+"|"+early.H.Key() {
		t.Errorf("previously interned violation key = %q, want refreshed %q", got, dc.ID()+"|"+early.H.Key())
	}
}

// TestViolationKeyConcurrent: the canonical key is built on first use and
// cached on the interned violation; concurrent first calls (run under
// -race) must all see the same rendering.
func TestViolationKeyConcurrent(t *testing.T) {
	d, set, _, _ := example1()
	vs := FindViolations(d, set).ByID() // ByID renders no key
	want := make([]string, len(vs))
	for i, vio := range vs {
		want[i] = vio.Constraint.ID() + "|" + vio.H.Key()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, vio := range vs {
				if got := vio.Key(); got != want[i] {
					t.Errorf("Key() = %q, want %q", got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
