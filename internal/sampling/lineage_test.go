package sampling

import (
	"math/big"
	"reflect"
	"testing"

	"repro/internal/constraint"
	"repro/internal/fo"
	"repro/internal/generators"
	"repro/internal/logic"
	"repro/internal/markov"
	"repro/internal/ops"
	"repro/internal/relation"
	"repro/internal/repair"
	"repro/internal/workload"
)

// hiddenMemory is generators.Uniform without the memorylessness claim,
// which sends the uniform estimator to its importance-sampling fallback.
type hiddenMemory struct{}

func (hiddenMemory) Name() string { return "uniform-undeclared" }

func (hiddenMemory) Transitions(s *repair.State, exts []ops.Op) ([]*big.Rat, error) {
	return generators.Uniform{}.Transitions(s, exts)
}

// TestLineageWalksMatchFullEvaluation: for TGD-free Σ the estimator
// answers conjunctive queries from their witness lineage; every Run must
// equal, field for field, the one that evaluates the query on each walk's
// result — for the walk-induced estimator under the uniform and the
// preference generator, the count-guided uniform sampler and the SNIS
// fallback, at several seeds and worker counts.
func TestLineageWalksMatchFullEvaluation(t *testing.T) {
	x, y, z, u := v("X"), v("Y"), v("Z"), v("U")
	atom := func(p string, ts ...logic.Term) fo.Formula { return fo.Atom{A: at(p, ts...)} }
	keysDB, keysSigma := workload.KeyViolations(workload.KeyConfig{Keys: 8, Violations: 4, Seed: 3})
	prefDB, prefSigma := workload.Preferences(workload.PreferenceConfig{Products: 5, Prefs: 8, ConflictRate: 0.5, Seed: 2})
	chainDB, chainSigma := workload.Chain(workload.ChainConfig{Facts: 6})
	joinDB, joinSigma := multiTableKeys()
	cases := []struct {
		name  string
		d     *relation.Database
		sigma *constraint.Set
		gen   markov.Generator
		mode  markov.SemanticsMode
		q     *fo.Query
	}{
		{"walk-keys", keysDB, keysSigma, generators.Uniform{}, markov.WalkInduced,
			fo.MustQuery("Q", []logic.Term{x}, fo.Exists{Vars: []logic.Term{y}, F: atom("R", x, y)})},
		{"walk-keys-selfjoin", keysDB, keysSigma, generators.Uniform{}, markov.WalkInduced,
			fo.MustQuery("Q", []logic.Term{x, y}, fo.Exists{Vars: []logic.Term{z}, F: fo.Conj(atom("R", x, y), atom("R", x, z))})},
		{"walk-join", joinDB, joinSigma, generators.Uniform{}, markov.WalkInduced,
			fo.MustQuery("Q", []logic.Term{x}, fo.Exists{Vars: []logic.Term{y, z, u}, F: fo.Conj(atom("T1", x, y), atom("T2", x, z), atom("T3", x, u))})},
		{"preference", prefDB, prefSigma, generators.Preference{}, markov.WalkInduced,
			fo.MustQuery("Q", []logic.Term{x, y}, atom("Pref", x, y))},
		{"preference-path", prefDB, prefSigma, generators.Preference{}, markov.WalkInduced,
			fo.MustQuery("Q", []logic.Term{x}, fo.Exists{Vars: []logic.Term{y, z}, F: fo.Conj(atom("Pref", x, y), atom("Pref", y, z))})},
		{"count-guided-uniform", chainDB, chainSigma, generators.Uniform{}, markov.SequenceUniform,
			fo.MustQuery("Q", []logic.Term{x, z}, fo.Exists{Vars: []logic.Term{y, u}, F: fo.Conj(atom("E", x, y), atom("E", z, u))})},
		{"count-guided-uniform-boolean", chainDB, chainSigma, generators.Uniform{}, markov.SequenceUniform,
			fo.MustQuery("Q", nil, fo.Exists{Vars: []logic.Term{x, y}, F: atom("E", x, y)})},
		{"snis", chainDB, chainSigma, hiddenMemory{}, markov.SequenceUniform,
			fo.MustQuery("Q", []logic.Term{x, y}, atom("E", x, y))},
	}
	for _, c := range cases {
		inst := repair.MustInstance(c.d, c.sigma)
		for seed := int64(1); seed <= 5; seed++ {
			for _, workers := range []int{1, 2, 4} {
				e := &Estimator{Inst: inst, Gen: c.gen, Seed: seed, Workers: workers, Mode: c.mode}
				if e.answerer(c.q).lin == nil {
					t.Fatalf("%s: no lineage for a CQ over a TGD-free Σ", c.name)
				}
				got, err := e.EstimateWithN(c.q, 151)
				if err != nil {
					t.Fatal(err)
				}
				full := e.answerer(c.q)
				full.lin = nil // evaluate the query on every result
				want, err := e.runWith(full, 151)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s seed %d workers %d: lineage run differs from full evaluation:\n got %+v\nwant %+v",
						c.name, seed, workers, got, want)
				}
				if len(got.Estimates) == 0 {
					t.Fatalf("%s: no estimates; the comparison is vacuous", c.name)
				}
				if got.Weighted != (c.name == "snis") {
					t.Fatalf("%s: Weighted = %v", c.name, got.Weighted)
				}
			}
		}
	}
}

// TestLineageNeedsDeletionOnlyCQ: a TGD in Σ (walks may insert facts) or
// a query outside the CQ fragment keeps full evaluation.
func TestLineageNeedsDeletionOnlyCQ(t *testing.T) {
	d := relation.FromFacts(f("R", "a", "b"), f("R", "b", "a"))
	tgd := constraint.MustTGD([]logic.Atom{at("R", v("x"), v("y"))}, []logic.Atom{at("S", v("x"))})
	dc := constraint.MustDC([]logic.Atom{at("R", v("x"), v("y")), at("R", v("y"), v("x"))})
	x, y := v("X"), v("Y")
	cq := fo.MustQuery("Q", []logic.Term{x}, fo.Exists{Vars: []logic.Term{y}, F: fo.Atom{A: at("R", x, y)}})
	neg := fo.MustQuery("N", []logic.Term{x, y}, fo.Not{F: fo.Atom{A: at("R", x, y)}})

	withTGD := &Estimator{Inst: repair.MustInstance(d, constraint.NewSet(dc, tgd)), Gen: generators.Uniform{}}
	if withTGD.answerer(cq).lin != nil {
		t.Error("lineage built although Σ has a TGD")
	}
	denial := &Estimator{Inst: repair.MustInstance(d, constraint.NewSet(dc)), Gen: generators.Uniform{}}
	if denial.answerer(neg).lin != nil {
		t.Error("lineage built for a non-conjunctive query")
	}
	if denial.answerer(cq).lin == nil {
		t.Error("no lineage for a CQ under a denial constraint")
	}
}

// multiTableKeys is three keyed tables T1..T3(k, v) with correlated
// conflicts: every key is in every table, and keys k0..k3 carry two or
// three values in some of them.
func multiTableKeys() (*relation.Database, *constraint.Set) {
	d := relation.NewDatabase()
	values := [][]int{{2, 1, 3}, {1, 2, 1}, {3, 3, 1}, {1, 1, 2}, {1, 1, 1}}
	var keys []*constraint.Constraint
	for t, pred := range []string{"T1", "T2", "T3"} {
		for k, vs := range values {
			for j := 0; j < vs[t]; j++ {
				d.Insert(f(pred, "k"+string(rune('0'+k)), pred+"v"+string(rune('0'+j))))
			}
		}
		keys = append(keys, constraint.MustEGD(
			[]logic.Atom{at(pred, v("x"), v("y")), at(pred, v("x"), v("z"))}, v("y"), v("z")))
	}
	return d, constraint.NewSet(keys...)
}
