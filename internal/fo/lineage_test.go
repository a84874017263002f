package fo_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/constraint"
	"repro/internal/fo"
	"repro/internal/intern"
	"repro/internal/logic"
	"repro/internal/relation"
	"repro/internal/workload"
)

// injectDB builds the multi-table key-conflict shape of the practical
// scheme's benchmarks: tables T1..T3(key, val), each key present in a
// table with probability 3/4, and a present key carrying 1 to 4 values
// (so some groups conflict and some do not), plus one key EGD per table.
func injectDB(seed int64) (*relation.Database, *constraint.Set) {
	rng := rand.New(rand.NewSource(seed))
	d := relation.NewDatabase()
	var keys []*constraint.Constraint
	x, y, z := logic.Var("X"), logic.Var("Y"), logic.Var("Z")
	for t := 1; t <= 3; t++ {
		pred := fmt.Sprintf("T%d", t)
		for k := 0; k < 6; k++ {
			if rng.Intn(4) == 0 {
				continue
			}
			for v := 1 + rng.Intn(4); v > 0; v-- {
				d.Insert(relation.NewFact(pred, fmt.Sprintf("k%d", k), fmt.Sprintf("v%d", rng.Intn(5))))
			}
		}
		keys = append(keys, constraint.MustEGD(
			[]logic.Atom{logic.NewAtom(pred, x, y), logic.NewAtom(pred, x, z)}, y, z))
	}
	return d, constraint.NewSet(keys...)
}

// randomCQ draws a conjunctive query of 1 to 3 atoms over the database's
// predicates: arguments are variables from a pool of four (so variables
// repeat within and across atoms) or, one time in five, a constant of
// the database; the output variables are a random subset of the body's
// (possibly empty: a Boolean query).
func randomCQ(rng *rand.Rand, d *relation.Database) *fo.Query {
	preds := d.Predicates()
	dom := d.Dom()
	pool := []string{"X", "Y", "Z", "W"}
	var atoms []fo.Formula
	inBody := map[string]bool{}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		pred := preds[rng.Intn(len(preds))]
		arity := d.FactsByPredName(pred)[0].Arity()
		args := make([]logic.Term, arity)
		for i := range args {
			if rng.Intn(5) == 0 {
				args[i] = logic.Const(dom[rng.Intn(len(dom))])
				continue
			}
			v := pool[rng.Intn(len(pool))]
			args[i] = logic.Var(v)
			inBody[v] = true
		}
		atoms = append(atoms, fo.Atom{A: logic.NewAtom(pred, args...)})
	}
	var out, hidden []logic.Term
	for _, v := range pool {
		if !inBody[v] {
			continue
		}
		if rng.Intn(2) == 0 {
			out = append(out, logic.Var(v))
		} else {
			hidden = append(hidden, logic.Var(v))
		}
	}
	body := fo.Conj(atoms...)
	if len(hidden) > 0 {
		body = fo.Exists{Vars: hidden, F: body}
	}
	return fo.MustQuery("Q", out, body)
}

func answerKeys(emit func(func([]intern.Sym))) map[string]int {
	got := map[string]int{}
	emit(func(tuple []intern.Sym) { got[string(intern.PackSyms(nil, tuple))]++ })
	return got
}

// TestLineageMatchesEvaluationOnSubsets is the lineage property: for
// random CQs over random subsets of D that keep every non-conflicted fact,
// ForEachAnswer names, once each, exactly the answers that evaluating the
// query on the subset gives.
func TestLineageMatchesEvaluationOnSubsets(t *testing.T) {
	type instance struct {
		name  string
		build func(seed int64) (*relation.Database, *constraint.Set)
	}
	instances := []instance{
		{"keyviolations", func(seed int64) (*relation.Database, *constraint.Set) {
			return workload.KeyViolations(workload.KeyConfig{Keys: 6, Violations: 3, Seed: seed})
		}},
		{"preferences", func(seed int64) (*relation.Database, *constraint.Set) {
			return workload.Preferences(workload.PreferenceConfig{Products: 5, Prefs: 8, ConflictRate: 0.5, Seed: seed})
		}},
		{"cliques", func(seed int64) (*relation.Database, *constraint.Set) {
			return workload.Cliques(workload.CliqueConfig{Groups: 3, GroupSize: 3, Core: 3, Seed: seed})
		}},
		{"inject", injectDB},
	}
	// informative counts checks where the subset lost some but not all
	// candidates, and joins counts queries with a witness of more than one
	// conflicted fact: the generator must not drift into trivial queries.
	informative, joins := 0, 0
	for _, inst := range instances {
		for seed := int64(1); seed <= 8; seed++ {
			d, sigma := inst.build(seed)
			d.Seal()
			conflicted := constraint.FindViolations(d, sigma).InvolvedFacts()
			rng := rand.New(rand.NewSource(seed))
			for qi := 0; qi < 12; qi++ {
				q := randomCQ(rng, d)
				lin, ok := q.Lineage(d, conflicted)
				if !ok {
					t.Fatalf("%s seed %d: %s refused", inst.name, seed, q)
				}
				for _, c := range lin.Candidates {
					if !c.Certain && len(c.Witnesses[0]) > 1 {
						joins++
						break
					}
				}
				for trial := 0; trial < 10; trial++ {
					dead := make([]bool, len(conflicted))
					sub := d.Clone()
					p := [...]float64{0, 0.3, 0.6, 1}[trial%4]
					for i, f := range conflicted {
						if rng.Float64() < p {
							dead[i] = true
							sub.Delete(f)
						}
					}
					want := answerKeys(func(emit func([]intern.Sym)) { q.ForEachAnswerSyms(sub, emit) })
					got := answerKeys(func(emit func([]intern.Sym)) {
						lin.ForEachAnswer(dead, func(c int) { emit(lin.Candidates[c].Tuple) })
					})
					for k, n := range got {
						if n != 1 {
							t.Fatalf("%s seed %d: %s emitted a candidate %d times", inst.name, seed, q, n)
						}
						if want[k] == 0 {
							t.Fatalf("%s seed %d: %s: lineage answers a tuple the subset does not (dead %v)", inst.name, seed, q, dead)
						}
					}
					if len(got) != len(want) {
						t.Fatalf("%s seed %d: %s: lineage gives %d answers, the subset %d (dead %v)", inst.name, seed, q, len(got), len(want), dead)
					}
					if len(want) > 0 && len(want) < len(lin.Candidates) {
						informative++
					}
				}
			}
		}
	}
	t.Logf("%d informative subset checks, %d queries with a multi-fact witness", informative, joins)
	if informative < 200 || joins < 20 {
		t.Errorf("generator too weak: %d informative checks, %d multi-fact witnesses", informative, joins)
	}
}

// TestLineageWitnessShape pins the recorded lineage on a hand-built
// instance: certain tuples carry no witnesses, the others their distinct
// sorted witness sets in discovery order.
func TestLineageWitnessShape(t *testing.T) {
	a1, a2 := relation.NewFact("A", "k", "1"), relation.NewFact("A", "k", "2")
	b1 := relation.NewFact("B", "k", "x")
	clean := relation.NewFact("A", "m", "3")
	d := relation.FromFacts(a1, a2, b1, clean, relation.NewFact("B", "m", "y"))
	d.Seal()
	conflicted := []relation.Fact{b1, a1, a2}
	x, y, z := logic.Var("X"), logic.Var("Y"), logic.Var("Z")
	// Q(X) := ∃Y,Z: A(X,Y) ∧ B(X,Z) ∧ A(X,Y): the repeated atom maps to
	// the same fact, which a witness lists once.
	q := fo.MustQuery("Q", []logic.Term{x}, fo.Exists{Vars: []logic.Term{y, z}, F: fo.Conj(
		fo.Atom{A: logic.NewAtom("A", x, y)}, fo.Atom{A: logic.NewAtom("B", x, z)}, fo.Atom{A: logic.NewAtom("A", x, y)})})
	lin, ok := q.Lineage(d, conflicted)
	if !ok {
		t.Fatal("CQ refused")
	}
	byName := map[string]fo.LineageCandidate{}
	for _, c := range lin.Candidates {
		byName[intern.Name(c.Tuple[0])] = c
	}
	if len(byName) != 2 {
		t.Fatalf("candidates = %+v, want k and m", lin.Candidates)
	}
	if m := byName["m"]; !m.Certain || m.Witnesses != nil {
		t.Errorf("m = %+v, want certain with no witnesses", m)
	}
	k := byName["k"]
	if k.Certain || len(k.Witnesses) != 2 {
		t.Fatalf("k = %+v, want two witnesses", k)
	}
	for _, w := range k.Witnesses {
		if len(w) != 2 || w[0] != 0 || !slices.IsSorted(w) {
			t.Errorf("k witness %v, want {0 (B(k,x)), 1 or 2 (an A fact)}", w)
		}
	}
	if k.Witnesses[0][1] == k.Witnesses[1][1] {
		t.Errorf("k witnesses %v repeat", k.Witnesses)
	}
}

// TestLineageRefusesNonCQs: only conjunctive queries whose output
// variables all occur in the body have a lineage.
func TestLineageRefusesNonCQs(t *testing.T) {
	d := relation.FromFacts(relation.NewFact("R", "a", "b"), relation.NewFact("R", "b", "c"))
	d.Seal()
	x, y := logic.Var("X"), logic.Var("Y")
	r := func(a, b logic.Term) fo.Formula { return fo.Atom{A: logic.NewAtom("R", a, b)} }
	refused := []*fo.Query{
		fo.MustQuery("Neg", []logic.Term{x, y}, fo.Not{F: r(x, y)}),
		fo.MustQuery("Or", []logic.Term{x, y}, fo.Or{L: r(x, y), R: r(y, x)}),
		fo.MustQuery("All", []logic.Term{x}, fo.ForAll{Vars: []logic.Term{y}, F: r(x, y)}),
		fo.MustQuery("Eq", []logic.Term{x, y}, fo.And{L: r(x, y), R: fo.Eq{L: x, R: y}}),
		fo.MustQuery("Nested", []logic.Term{x}, fo.And{L: r(x, x), R: fo.Exists{Vars: []logic.Term{y}, F: r(x, y)}}),
		// Y does not occur in the body: it ranges over the active domain.
		fo.MustQuery("Unconstrained", []logic.Term{x, y}, r(x, x)),
	}
	for _, q := range refused {
		if lin, ok := q.Lineage(d, d.Facts()); ok || lin != nil {
			t.Errorf("%s: Lineage accepted it", q)
		}
	}
	boolean := fo.MustQuery("B", nil, fo.Exists{Vars: []logic.Term{x, y}, F: r(x, y)})
	lin, ok := boolean.Lineage(d, d.Facts())
	if !ok || len(lin.Candidates) != 1 || len(lin.Candidates[0].Tuple) != 0 {
		t.Fatalf("Boolean CQ: lineage %+v ok=%v, want one empty candidate", lin, ok)
	}
	if w := lin.Candidates[0].Witnesses; len(w) != 2 {
		t.Errorf("Boolean CQ witnesses %v, want one per fact", w)
	}
}

// TestTupleLineageMatchesLineage: the lineage restricted to one tuple has
// exactly that tuple's candidate of the full lineage — same certainty,
// same witness sets — and no candidate for a tuple without a witness, of
// the wrong arity, or over a constant no database holds.
func TestTupleLineageMatchesLineage(t *testing.T) {
	witnessSet := func(c fo.LineageCandidate) map[string]bool {
		out := map[string]bool{}
		for _, w := range c.Witnesses {
			out[fmt.Sprint(w)] = true
		}
		return out
	}
	checked := 0
	for seed := int64(1); seed <= 6; seed++ {
		d, sigma := injectDB(seed)
		d.Seal()
		conflicted := constraint.FindViolations(d, sigma).InvolvedFacts()
		rng := rand.New(rand.NewSource(seed))
		for qi := 0; qi < 12; qi++ {
			q := randomCQ(rng, d)
			lin, _ := q.Lineage(d, conflicted)
			for _, c := range lin.Candidates {
				tl, ok := q.TupleLineage(d, conflicted, intern.Names(c.Tuple))
				if !ok || len(tl.Candidates) != 1 {
					t.Fatalf("%s%v: tuple lineage %+v ok=%v, want one candidate", q, c.Tuple, tl, ok)
				}
				got := tl.Candidates[0]
				if got.Certain != c.Certain || fmt.Sprint(witnessSet(got)) != fmt.Sprint(witnessSet(c)) {
					t.Fatalf("%s%v: tuple lineage %+v, full lineage %+v", q, c.Tuple, got, c)
				}
				checked++
			}
			absent := make([]string, len(q.Out))
			for i := range absent {
				absent[i] = "no-such-constant"
			}
			if tl, ok := q.TupleLineage(d, conflicted, absent); !ok || (len(absent) > 0 && len(tl.Candidates) != 0) {
				t.Fatalf("%s: absent tuple lineage %+v ok=%v", q, tl, ok)
			}
			if tl, ok := q.TupleLineage(d, conflicted, append(absent, "extra")); !ok || len(tl.Candidates) != 0 {
				t.Fatalf("%s: wrong-arity tuple lineage %+v ok=%v", q, tl, ok)
			}
		}
	}
	if checked < 50 {
		t.Errorf("only %d candidates checked", checked)
	}
	x := logic.Var("X")
	neg := fo.MustQuery("Neg", []logic.Term{x}, fo.Not{F: fo.Atom{A: logic.NewAtom("R", x, x)}})
	if _, ok := neg.TupleLineage(relation.NewDatabase(), nil, []string{"a"}); ok {
		t.Error("TupleLineage accepted a query with negation")
	}
}
