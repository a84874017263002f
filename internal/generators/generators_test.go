package generators

import (
	"math/big"
	"testing"

	"repro/internal/constraint"
	"repro/internal/logic"
	"repro/internal/markov"
	"repro/internal/ops"
	"repro/internal/prob"
	"repro/internal/relation"
	"repro/internal/repair"
)

func v(n string) logic.Term                    { return logic.Var(n) }
func at(p string, ts ...logic.Term) logic.Atom { return logic.NewAtom(p, ts...) }
func f(p string, args ...string) relation.Fact { return relation.NewFact(p, args...) }

func keyInstance(t *testing.T) *repair.Instance {
	t.Helper()
	d := relation.FromFacts(f("R", "a", "b"), f("R", "a", "c"))
	eta := constraint.MustEGD(
		[]logic.Atom{at("R", v("x"), v("y")), at("R", v("x"), v("z"))},
		v("y"), v("z"),
	)
	return repair.MustInstance(d, constraint.NewSet(eta))
}

func TestUniformTransitions(t *testing.T) {
	inst := keyInstance(t)
	root := inst.Root()
	exts := root.Extensions()
	ps, err := Uniform{}.Transitions(root, exts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != len(exts) {
		t.Fatalf("got %d probabilities for %d extensions", len(ps), len(exts))
	}
	want := big.NewRat(1, int64(len(exts)))
	for i, p := range ps {
		if p.Cmp(want) != 0 {
			t.Errorf("p[%d] = %s, want %s", i, p.RatString(), want.RatString())
		}
	}
	if !prob.SumsToOne(ps) {
		t.Error("uniform probabilities must sum to 1")
	}
}

// TestTrustIntroExample reproduces the introduction's data-integration
// numbers: R(a,b) and R(a,c) violate the key, both sources 50% reliable →
// remove both with probability 0.25, remove either single fact with
// probability 0.375.
func TestTrustIntroExample(t *testing.T) {
	inst := keyInstance(t)
	gen := NewTrust(big.NewRat(1, 2))

	root := inst.Root()
	exts := root.Extensions()
	ps, err := gen.Transitions(root, exts)
	if err != nil {
		t.Fatal(err)
	}
	if !prob.SumsToOne(ps) {
		t.Errorf("trust probabilities sum to %s", prob.Sum(ps).RatString())
	}
	want := map[string]*big.Rat{
		ops.Delete(f("R", "a", "b")).Key():                   big.NewRat(3, 8),
		ops.Delete(f("R", "a", "c")).Key():                   big.NewRat(3, 8),
		ops.Delete(f("R", "a", "b"), f("R", "a", "c")).Key(): big.NewRat(1, 4),
	}
	for i, op := range exts {
		w, ok := want[op.Key()]
		if !ok {
			t.Fatalf("unexpected extension %s", op)
		}
		if ps[i].Cmp(w) != 0 {
			t.Errorf("P(%s) = %s, want %s", op, ps[i].RatString(), w.RatString())
		}
	}
}

// TestTrustAsymmetric: a more trusted fact is kept with higher probability.
func TestTrustAsymmetric(t *testing.T) {
	inst := keyInstance(t)
	gen := NewTrust(big.NewRat(1, 2))
	if err := gen.Set(f("R", "a", "b"), big.NewRat(9, 10)); err != nil {
		t.Fatal(err)
	}
	if err := gen.Set(f("R", "a", "c"), big.NewRat(1, 10)); err != nil {
		t.Fatal(err)
	}

	root := inst.Root()
	exts := root.Extensions()
	ps, err := gen.Transitions(root, exts)
	if err != nil {
		t.Fatal(err)
	}
	var pDelB, pDelC *big.Rat
	for i, op := range exts {
		switch op.Key() {
		case ops.Delete(f("R", "a", "b")).Key():
			pDelB = ps[i]
		case ops.Delete(f("R", "a", "c")).Key():
			pDelC = ps[i]
		}
	}
	// tr_{b|c} = 9/10 → deleting the trusted R(a,b) must be less likely.
	if pDelB.Cmp(pDelC) >= 0 {
		t.Errorf("P(-R(a,b)) = %s must be < P(-R(a,c)) = %s", pDelB.RatString(), pDelC.RatString())
	}
	if !prob.SumsToOne(ps) {
		t.Error("probabilities must sum to 1")
	}
}

// TestTrustSemanticsSumToOne: full-chain exploration of a two-pair conflict
// instance yields a hitting distribution summing to 1.
func TestTrustSemanticsSumToOne(t *testing.T) {
	d := relation.FromFacts(
		f("R", "a", "b"), f("R", "a", "c"),
		f("R", "q", "r"), f("R", "q", "s"),
	)
	eta := constraint.MustEGD(
		[]logic.Atom{at("R", v("x"), v("y")), at("R", v("x"), v("z"))},
		v("y"), v("z"),
	)
	inst := repair.MustInstance(d, constraint.NewSet(eta))
	gen := NewTrust(big.NewRat(2, 3))
	dist, err := markov.Explore(inst, gen, markov.ExploreOptions{MaxStates: 100000})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if len(dist.Leaves) == 0 {
		t.Fatal("no absorbing states")
	}
}

func TestTrustRejectsBadLevels(t *testing.T) {
	gen := NewTrust(big.NewRat(1, 2))
	if err := gen.Set(f("R", "a", "b"), big.NewRat(3, 2)); err == nil {
		t.Error("trust level above 1 must be rejected")
	}
	if err := gen.Set(f("R", "a", "b"), big.NewRat(-1, 2)); err == nil {
		t.Error("negative trust level must be rejected")
	}
}

func TestTrustZeroPair(t *testing.T) {
	inst := keyInstance(t)
	gen := NewTrust(prob.Zero()) // both facts trust 0 → relative trust undefined
	root := inst.Root()
	if _, err := gen.Transitions(root, root.Extensions()); err == nil {
		t.Error("zero/zero trust pair must be an error")
	}
}

// TestTrustRequiresPairwiseConflicts: a three-atom DC body is out of scope.
func TestTrustRequiresPairwiseConflicts(t *testing.T) {
	d := relation.FromFacts(f("P", "a"), f("P", "b"), f("P", "c"))
	dc := constraint.MustDC([]logic.Atom{at("P", v("x")), at("P", v("y")), at("P", v("z"))})
	inst := repair.MustInstance(d, constraint.NewSet(dc))
	gen := NewTrust(big.NewRat(1, 2))
	root := inst.Root()
	if _, err := gen.Transitions(root, root.Extensions()); err == nil {
		t.Error("non-pairwise violations must be rejected")
	}
}

func TestUniformDeletionsZeroesInsertions(t *testing.T) {
	// Mixed instance: TGD gives insertion extensions; they must get 0.
	d := relation.FromFacts(f("R", "a"))
	tgd := constraint.MustTGD([]logic.Atom{at("R", v("x"))}, []logic.Atom{at("T", v("x"))})
	inst := repair.MustInstance(d, constraint.NewSet(tgd))
	root := inst.Root()
	exts := root.Extensions()
	hasInsert := false
	for _, op := range exts {
		if op.IsInsert() {
			hasInsert = true
		}
	}
	if !hasInsert {
		t.Fatal("expected an insertion extension from the TGD")
	}
	ps, err := UniformDeletions{}.Transitions(root, exts)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range exts {
		if op.IsInsert() && ps[i].Sign() != 0 {
			t.Errorf("insertion %s got probability %s", op, ps[i].RatString())
		}
		if op.IsDelete() && ps[i].Sign() == 0 {
			t.Errorf("deletion %s got probability 0", op)
		}
	}
	if !prob.SumsToOne(ps) {
		t.Error("probabilities must sum to 1")
	}
}

func TestWeightFuncGenerator(t *testing.T) {
	inst := keyInstance(t)
	// Prefer small deletions: weight 1/|F|.
	gen := WeightFunc{
		Label: "small-first",
		Fn: func(_ *repair.State, op ops.Op) *big.Rat {
			return big.NewRat(1, int64(op.Size()))
		},
	}
	if gen.Name() != "small-first" {
		t.Errorf("Name = %q", gen.Name())
	}
	root := inst.Root()
	exts := root.Extensions()
	ps, err := gen.Transitions(root, exts)
	if err != nil {
		t.Fatal(err)
	}
	if !prob.SumsToOne(ps) {
		t.Error("probabilities must sum to 1")
	}
	// Weights 1, 1, 1/2 over the three deletions → 2/5, 2/5, 1/5.
	for i, op := range exts {
		want := big.NewRat(2, 5)
		if op.Size() == 2 {
			want = big.NewRat(1, 5)
		}
		if ps[i].Cmp(want) != 0 {
			t.Errorf("P(%s) = %s, want %s", op, ps[i].RatString(), want.RatString())
		}
	}
}

func TestWeightFuncAllZeroFails(t *testing.T) {
	inst := keyInstance(t)
	gen := WeightFunc{Fn: func(*repair.State, ops.Op) *big.Rat { return prob.Zero() }}
	root := inst.Root()
	if _, err := gen.Transitions(root, root.Extensions()); err == nil {
		t.Error("all-zero weights must be rejected")
	}
}

// TestMarkovStepValidation: a generator returning a wrong-length or
// non-stochastic vector is caught by markov.Step.
func TestMarkovStepValidation(t *testing.T) {
	inst := keyInstance(t)
	root := inst.Root()

	short := WeightFunc{Fn: func(*repair.State, ops.Op) *big.Rat { return prob.One() }}
	if _, err := markov.Step(badLength{short}, root); err == nil {
		t.Error("wrong-length probability vector must be rejected")
	}

	nonStochastic := fixedGen{p: big.NewRat(1, 2)} // sums to 3/2 over 3 exts
	if _, err := markov.Step(nonStochastic, root); err == nil {
		t.Error("non-stochastic probabilities must be rejected")
	}

	negative := fixedGen{p: big.NewRat(-1, 3)}
	if _, err := markov.Step(negative, root); err == nil {
		t.Error("negative probabilities must be rejected")
	}
}

type badLength struct{ inner markov.Generator }

func (b badLength) Name() string { return "bad-length" }
func (b badLength) Transitions(s *repair.State, exts []ops.Op) ([]*big.Rat, error) {
	ps, err := b.inner.Transitions(s, exts)
	if err != nil {
		return nil, err
	}
	return ps[:len(ps)-1], nil
}

type fixedGen struct{ p *big.Rat }

func (g fixedGen) Name() string { return "fixed" }
func (g fixedGen) Transitions(_ *repair.State, exts []ops.Op) ([]*big.Rat, error) {
	out := make([]*big.Rat, len(exts))
	for i := range out {
		out[i] = g.p
	}
	return out, nil
}

// TestExploreBudget: the state budget aborts runaway explorations.
func TestExploreBudget(t *testing.T) {
	d := relation.NewDatabase()
	for i := 0; i < 6; i++ {
		d.Insert(f("R", "k", string(rune('a'+i))))
	}
	eta := constraint.MustEGD(
		[]logic.Atom{at("R", v("x"), v("y")), at("R", v("x"), v("z"))},
		v("y"), v("z"),
	)
	inst := repair.MustInstance(d, constraint.NewSet(eta))
	_, err := markov.Explore(inst, Uniform{}, markov.ExploreOptions{MaxStates: 10})
	if err == nil {
		t.Error("expected the state budget to trigger")
	}
}

// TestHittingDistributionUniform: leaf probabilities over the uniform chain
// of the key instance are 1/3 each and sum to 1 (Proposition 3).
func TestHittingDistributionUniform(t *testing.T) {
	inst := keyInstance(t)
	dist, err := markov.Explore(inst, Uniform{}, markov.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(dist.Leaves) != 3 {
		t.Fatalf("got %d absorbing states, want 3", len(dist.Leaves))
	}
	for _, leaf := range dist.Leaves {
		if leaf.Pi.Cmp(big.NewRat(1, 3)) != 0 {
			t.Errorf("π(%s) = %s, want 1/3", leaf.Key, leaf.Pi.RatString())
		}
	}
}

// TestTreeRender: the rendered tree mentions every operation and is stable.
func TestTreeRender(t *testing.T) {
	inst := keyInstance(t)
	tree, err := markov.BuildTree(inst, Uniform{}, markov.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.CountStates() != 4 {
		t.Errorf("CountStates = %d, want 4", tree.CountStates())
	}
	leaves := 0
	for _, c := range tree.Children {
		if c.Node.IsLeaf() {
			leaves++
		}
	}
	if leaves != 3 {
		t.Errorf("leaves = %d, want 3", leaves)
	}
	r := tree.Render()
	for _, want := range []string{"ε", "-R(a, b)", "-R(a, c)", "[absorbing]", "1/3"} {
		if !contains(r, want) {
			t.Errorf("render missing %q:\n%s", want, r)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestPreferenceTransitionsDirect reproduces the root probabilities of the
// paper's figure directly through the generator API.
func TestPreferenceTransitionsDirect(t *testing.T) {
	d := relation.FromFacts(
		f("Pref", "a", "b"), f("Pref", "a", "c"), f("Pref", "a", "d"),
		f("Pref", "b", "a"), f("Pref", "b", "d"), f("Pref", "c", "a"),
	)
	dc := constraint.MustDC([]logic.Atom{at("Pref", v("x"), v("y")), at("Pref", v("y"), v("x"))})
	inst := repair.MustInstance(d, constraint.NewSet(dc))
	gen := Preference{}
	if gen.Name() != "preference" {
		t.Errorf("Name = %q", gen.Name())
	}
	root := inst.Root()
	exts := root.Extensions()
	ps, err := gen.Transitions(root, exts)
	if err != nil {
		t.Fatal(err)
	}
	if !prob.SumsToOne(ps) {
		t.Errorf("sum = %s", prob.Sum(ps).RatString())
	}
	want := map[string]*big.Rat{
		ops.Delete(f("Pref", "a", "b")).Key(): big.NewRat(2, 9),
		ops.Delete(f("Pref", "b", "a")).Key(): big.NewRat(3, 9),
		ops.Delete(f("Pref", "a", "c")).Key(): big.NewRat(1, 9),
		ops.Delete(f("Pref", "c", "a")).Key(): big.NewRat(3, 9),
	}
	for i, op := range exts {
		if w, ok := want[op.Key()]; ok {
			if ps[i].Cmp(w) != 0 {
				t.Errorf("P(%s) = %s, want %s", op, ps[i].RatString(), w.RatString())
			}
		} else if ps[i].Sign() != 0 {
			t.Errorf("pair deletion %s has probability %s, want 0", op, ps[i].RatString())
		}
	}
}

// TestPreferenceCustomPredicate: the predicate name is configurable.
func TestPreferenceCustomPredicate(t *testing.T) {
	d := relation.FromFacts(f("Likes", "a", "b"), f("Likes", "b", "a"))
	dc := constraint.MustDC([]logic.Atom{at("Likes", v("x"), v("y")), at("Likes", v("y"), v("x"))})
	inst := repair.MustInstance(d, constraint.NewSet(dc))
	gen := Preference{Pred: "Likes"}
	root := inst.Root()
	ps, err := gen.Transitions(root, root.Extensions())
	if err != nil {
		t.Fatal(err)
	}
	if !prob.SumsToOne(ps) {
		t.Errorf("sum = %s", prob.Sum(ps).RatString())
	}
}

// TestPreferenceWrongSchemaFails: violation atoms outside Pref/2 error out.
func TestPreferenceWrongSchemaFails(t *testing.T) {
	d := relation.FromFacts(f("Q", "a"), f("Q", "b"))
	dc := constraint.MustDC([]logic.Atom{at("Q", v("x")), at("Q", v("y"))})
	inst := repair.MustInstance(d, constraint.NewSet(dc))
	root := inst.Root()
	if _, err := (Preference{}).Transitions(root, root.Extensions()); err == nil {
		t.Error("non-Pref violations must be rejected")
	}
}

// TestGeneratorNamesAndLocality smoke-covers the trivial accessors.
func TestGeneratorNamesAndLocality(t *testing.T) {
	if (Uniform{}).Name() != "uniform" || !(Uniform{}).LocalWeights() {
		t.Error("Uniform accessors")
	}
	if (UniformDeletions{}).Name() != "uniform-deletions" || !(UniformDeletions{}).LocalWeights() {
		t.Error("UniformDeletions accessors")
	}
	tr := NewTrust(big.NewRat(1, 2))
	if tr.Name() != "trust" || !tr.LocalWeights() {
		t.Error("Trust accessors")
	}
	if (WeightFunc{}).Name() != "weight-func" {
		t.Error("WeightFunc default name")
	}
}
