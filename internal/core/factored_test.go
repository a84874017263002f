package core_test

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/fo"
	"repro/internal/generators"
	"repro/internal/logic"
	"repro/internal/markov"
	"repro/internal/prob"
	"repro/internal/relation"
	"repro/internal/repair"
)

func keyEGD() *constraint.Set {
	x, y, z := v("x"), v("y"), v("z")
	return constraint.NewSet(constraint.MustEGD(
		[]logic.Atom{at("R", x, y), at("R", x, z)},
		y, z,
	))
}

// multiComponentInstance: three independent key conflicts plus clean facts.
func multiComponentInstance(t *testing.T) *repair.Instance {
	t.Helper()
	d := relation.FromFacts(
		f("R", "a", "1"), f("R", "a", "2"),
		f("R", "b", "1"), f("R", "b", "2"),
		f("R", "c", "1"), f("R", "c", "2"),
		f("R", "clean1", "x"), f("R", "clean2", "y"),
	)
	return repair.MustInstance(d, keyEGD())
}

// TestFactoredMatchesMonolithic: the factorized repair distribution equals
// the monolithic chain's, repair by repair, under the uniform generator.
func TestFactoredMatchesMonolithic(t *testing.T) {
	inst := multiComponentInstance(t)
	fac, err := core.ComputeFactored(inst, generators.Uniform{}, markov.ExploreOptions{})
	if err != nil {
		t.Fatalf("ComputeFactored: %v", err)
	}
	if len(fac.Components()) != 3 {
		t.Fatalf("components = %d, want 3", len(fac.Components()))
	}
	if fac.Untouched.Size() != 2 {
		t.Errorf("untouched = %d facts, want 2", fac.Untouched.Size())
	}
	if fac.NumRepairs().Int64() != 27 {
		t.Errorf("NumRepairs = %s, want 27 (3 per component)", fac.NumRepairs())
	}

	mono, err := core.Compute(inst, generators.Uniform{}, markov.ExploreOptions{MaxStates: 2_000_000})
	if err != nil {
		t.Fatalf("monolithic Compute: %v", err)
	}
	if len(mono.Repairs) != 27 {
		t.Fatalf("monolithic repairs = %d, want 27", len(mono.Repairs))
	}

	// Compare every repair probability through the factored CP of the
	// boolean query "this repair's facts" — simpler: per-fact marginals and
	// a full-tuple query.
	x, y := v("x"), v("y")
	q := fo.MustQuery("All", []logic.Term{x, y}, fo.Atom{A: at("R", x, y)})
	for _, fact := range inst.Initial().Facts() {
		got := fac.FactProbability(fact)
		want := mono.CP(q, fact.ArgNames()[:2])
		if got.Cmp(want) != 0 {
			t.Errorf("fact %s: factored %s vs monolithic %s", fact, got.RatString(), want.RatString())
		}
	}

	// And exact CP through enumeration of the product distribution.
	cp, err := fac.CP(q, []string{"a", "1"})
	if err != nil {
		t.Fatalf("factored CP: %v", err)
	}
	if want := mono.CP(q, []string{"a", "1"}); cp.Cmp(want) != 0 {
		t.Errorf("CP(a,1): factored %s vs monolithic %s", cp.RatString(), want.RatString())
	}
}

// TestFactoredTrustGenerator: factorization is exact for the (local) trust
// generator with asymmetric levels.
func TestFactoredTrustGenerator(t *testing.T) {
	d := relation.FromFacts(
		f("R", "a", "1"), f("R", "a", "2"),
		f("R", "b", "1"), f("R", "b", "2"),
	)
	inst := repair.MustInstance(d, keyEGD())
	gen := generators.NewTrust(big.NewRat(1, 2))
	if err := gen.Set(f("R", "a", "1"), big.NewRat(9, 10)); err != nil {
		t.Fatal(err)
	}
	if err := gen.Set(f("R", "a", "2"), big.NewRat(1, 10)); err != nil {
		t.Fatal(err)
	}

	fac, err := core.ComputeFactored(inst, gen, markov.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mono, err := core.Compute(inst, gen, markov.ExploreOptions{MaxStates: 100000})
	if err != nil {
		t.Fatal(err)
	}
	x, y := v("x"), v("y")
	q := fo.MustQuery("All", []logic.Term{x, y}, fo.Atom{A: at("R", x, y)})
	for _, fact := range inst.Initial().Facts() {
		got := fac.FactProbability(fact)
		want := mono.CP(q, fact.ArgNames()[:2])
		if got.Cmp(want) != 0 {
			t.Errorf("fact %s: factored %s vs monolithic %s", fact, got.RatString(), want.RatString())
		}
	}
}

// TestFactoredRejectsTGDs: factorization is only sound for deletion-only
// (EGD/DC) settings.
func TestFactoredRejectsTGDs(t *testing.T) {
	d := relation.FromFacts(f("R", "a"))
	tgd := constraint.MustTGD([]logic.Atom{at("R", v("x"))}, []logic.Atom{at("T", v("x"))})
	inst := repair.MustInstance(d, constraint.NewSet(tgd))
	if _, err := core.ComputeFactored(inst, generators.Uniform{}, markov.ExploreOptions{}); err == nil {
		t.Error("TGD instance must be rejected")
	}
}

// TestFactoredSampleRepair: sampled repairs are consistent supersets of the
// untouched core, and the empirical fact marginal converges to the exact
// one.
func TestFactoredSampleRepair(t *testing.T) {
	inst := multiComponentInstance(t)
	fac, err := core.ComputeFactored(inst, generators.Uniform{}, markov.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	target := f("R", "a", "1")
	exact := prob.Float(fac.FactProbability(target))
	hits, n := 0, 3000
	for i := 0; i < n; i++ {
		db := fac.SampleRepair(rng)
		if !inst.Sigma().Satisfied(db) {
			t.Fatal("sampled repair is inconsistent")
		}
		if !fac.Untouched.SubsetOf(db) {
			t.Fatal("sampled repair lost untouched facts")
		}
		if db.Contains(target) {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if diff := got - exact; diff > 0.03 || diff < -0.03 {
		t.Errorf("empirical marginal %.3f vs exact %.3f", got, exact)
	}
}

// TestFactoredEstimateCP: the factored sampler honors the additive bound on
// a larger instance (30 components — monolithic exact would need 3^30
// sequences).
func TestFactoredEstimateCP(t *testing.T) {
	d := relation.NewDatabase()
	for i := 0; i < 30; i++ {
		k := string(rune('a' + i%26))
		d.Insert(f("R", k+"x", "1"))
		d.Insert(f("R", k+"x", "2"))
	}
	inst := repair.MustInstance(d, keyEGD())
	fac, err := core.ComputeFactored(inst, generators.Uniform{}, markov.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fac.Components()) != 26 && len(fac.Components()) != 30 {
		// 26 letters: some keys repeat; just require >1 component.
		if len(fac.Components()) < 2 {
			t.Fatalf("components = %d", len(fac.Components()))
		}
	}
	x, y := v("x"), v("y")
	q := fo.MustQuery("All", []logic.Term{x, y}, fo.Atom{A: at("R", x, y)})
	target := fac.Components()[0].Facts[0]
	exact := prob.Float(fac.FactProbability(target))
	got, err := fac.EstimateCP(q, target.ArgNames()[:2], 0.1, 0.1, 77)
	if err != nil {
		t.Fatal(err)
	}
	if diff := got - exact; diff > 0.1 || diff < -0.1 {
		t.Errorf("estimate %.3f vs exact %.3f beyond ε", got, exact)
	}
}

// TestFactoredCPBudget: atomic queries route around the over-budget product
// enumeration (they reduce to fact marginals), conjunctive queries
// enumerate only the components their witnesses link, and a query whose
// witnesses link past the budget fails with ErrEnumerationBudget — and
// CPOrEstimate then falls back to sampling.
func TestFactoredCPBudget(t *testing.T) {
	d := relation.NewDatabase()
	for i := 0; i < 26; i++ {
		k := string(rune('a' + i))
		d.Insert(f("R", k, "1"))
		d.Insert(f("R", k, "2"))
	}
	inst := repair.MustInstance(d, keyEGD())
	fac, err := core.ComputeFactored(inst, generators.Uniform{}, markov.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// 3^26 > 2^20 repairs, but the query is atomic: CP must succeed exactly
	// and agree with the per-component marginal.
	x, y := v("x"), v("y")
	q := fo.MustQuery("All", []logic.Term{x, y}, fo.Atom{A: at("R", x, y)})
	cp, err := fac.CP(q, []string{"a", "1"})
	if err != nil {
		t.Fatalf("atomic CP over a huge repair space must not enumerate: %v", err)
	}
	pa := fac.FactProbability(f("R", "a", "1"))
	if cp.Cmp(pa) != 0 {
		t.Errorf("atomic CP = %s, FactProbability = %s", cp.RatString(), pa.RatString())
	}
	if !prob.InUnit(cp) || cp.Sign() == 0 {
		t.Errorf("CP = %s outside (0,1]", cp.RatString())
	}
	// An atomic query over a constant that was never interned is exactly 0.
	if p, err := fac.CP(q, []string{"no-such-constant", "1"}); err != nil || p.Sign() != 0 {
		t.Errorf("CP over unknown constant = %v, %v; want exact 0", p, err)
	}

	// A conjunction whose one witness spans two components enumerates
	// those two (9 repairs), not the 3^26 product: exact, and by
	// independence the product of the two marginals.
	x2, y2 := v("x2"), v("y2")
	conj := fo.MustQuery("Pair", []logic.Term{x, y, x2, y2}, fo.And{
		L: fo.Atom{A: at("R", x, y)},
		R: fo.Atom{A: at("R", x2, y2)},
	})
	cp, err = fac.CP(conj, []string{"a", "1", "b", "1"})
	if err != nil {
		t.Fatalf("two-component conjunction over a huge repair space: %v", err)
	}
	pb := fac.FactProbability(f("R", "b", "1"))
	if want := new(big.Rat).Mul(pa, pb); cp.Cmp(want) != 0 {
		t.Errorf("conjunction CP = %s, want %s", cp.RatString(), want.RatString())
	}

	// Some(y) := ∃x,x2 R(x, y) ∧ R(x2, y) at y = 1 has a witness
	// {R(k,1), R(k',1)} for every pair of components, which links them
	// all into one lineage group: the whole 3^26 product. The enumeration
	// must refuse with the sentinel error.
	some := fo.MustQuery("Some", []logic.Term{y}, fo.Exists{Vars: []logic.Term{x, x2}, F: fo.And{
		L: fo.Atom{A: at("R", x, y)},
		R: fo.Atom{A: at("R", x2, y)},
	}})
	if _, err := fac.CP(some, []string{"1"}); !errors.Is(err, core.ErrEnumerationBudget) {
		t.Errorf("over-budget lineage group: err = %v, want ErrEnumerationBudget", err)
	}

	// CPOrEstimate degrades to the (ε,δ) sampler on the same query.
	p, exact, err := fac.CPOrEstimate(some, []string{"1"}, 0.1, 0.1, 42)
	if err != nil {
		t.Fatalf("CPOrEstimate: %v", err)
	}
	if exact {
		t.Error("CPOrEstimate must report the sampled route for an over-budget lineage group")
	}
	// True value: x = x2 gives single-fact witnesses, so Some(1) holds iff
	// some R(k,1) survives; the components are independent and each keeps
	// R(k,1) with the same marginal, so CP = 1 − (1 − p_a)^26.
	want := 1 - math.Pow(1-prob.Float(pa), 26)
	if got := prob.Float(p); got-want > 0.1 || want-got > 0.1 {
		t.Errorf("sampled CP %.3f vs true %.3f beyond ε", got, want)
	}

	// Fact marginals remain exact and cheap throughout.
	if p := fac.FactProbability(f("R", "a", "1")); !prob.InUnit(p) || p.Sign() == 0 {
		t.Errorf("FactProbability = %s", p.RatString())
	}
}

// TestFactoredPreferenceNotLocal: the preference generator lacks the
// LocalWeights marker, and the type system enforces it — documented here by
// asserting the interface is not satisfied.
func TestFactoredPreferenceNotLocal(t *testing.T) {
	var g interface{} = generators.Preference{}
	if _, ok := g.(core.LocalGenerator); ok {
		t.Error("Preference must NOT satisfy LocalGenerator: its weights depend on the whole database")
	}
	var u interface{} = generators.Uniform{}
	if _, ok := u.(core.LocalGenerator); !ok {
		t.Error("Uniform must satisfy LocalGenerator")
	}
}
