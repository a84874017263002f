package core_test

// Equivalence suites for the witness-lineage routes of the exact engines:
// Semantics.OCA/CP (tree and DAG, both semantics) answer conjunctive
// queries by which witnesses survive in each repair, and Factored.CP/OCA
// by enumerating only the components a candidate's witnesses link. Both
// must give exactly the values of evaluating the query on every repair.

import (
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/fo"
	"repro/internal/generators"
	"repro/internal/intern"
	"repro/internal/logic"
	"repro/internal/markov"
	"repro/internal/relation"
	"repro/internal/repair"
	"repro/internal/workload"
)

// randomCQ draws a conjunctive query of 1–maxAtoms atoms over the
// predicates of d. Arguments come from a pool of three variables, so
// atoms share and repeat them, or (one time in five) from the constants
// of d. The output variables are a random subset of the body variables;
// an empty subset makes a Boolean query.
func randomCQ(rng *rand.Rand, d *relation.Database, maxAtoms int) *fo.Query {
	type pred struct {
		name  string
		arity int
	}
	var preds []pred
	var consts []string
	seenPred := map[string]bool{}
	seenConst := map[string]bool{}
	for _, fact := range d.Facts() {
		name := intern.Name(fact.Pred())
		if !seenPred[name] {
			seenPred[name] = true
			preds = append(preds, pred{name, len(fact.Args())})
		}
		for _, a := range fact.Args() {
			if c := intern.Name(a); !seenConst[c] {
				seenConst[c] = true
				consts = append(consts, c)
			}
		}
	}
	slices.SortFunc(preds, func(a, b pred) int { return strings.Compare(a.name, b.name) })
	slices.Sort(consts)
	pool := []logic.Term{logic.Var("X"), logic.Var("Y"), logic.Var("Z")}
	var body fo.Formula
	var vars []logic.Term
	for i := 0; i <= rng.Intn(maxAtoms); i++ {
		p := preds[rng.Intn(len(preds))]
		args := make([]logic.Term, p.arity)
		for j := range args {
			if rng.Intn(5) == 0 {
				args[j] = logic.Const(consts[rng.Intn(len(consts))])
				continue
			}
			args[j] = pool[rng.Intn(len(pool))]
			if !slices.Contains(vars, args[j]) {
				vars = append(vars, args[j])
			}
		}
		a := fo.Atom{A: logic.NewAtom(p.name, args...)}
		if body == nil {
			body = a
		} else {
			body = fo.And{L: body, R: a}
		}
	}
	var out, bound []logic.Term
	for _, x := range vars {
		if rng.Intn(2) == 0 {
			out = append(out, x)
		} else {
			bound = append(bound, x)
		}
	}
	if len(bound) > 0 {
		body = fo.Exists{Vars: bound, F: body}
	}
	return fo.MustQuery("Q", out, body)
}

// randomTuple draws a tuple of q's arity over the constants of d (most
// such tuples have CP 0).
func randomTuple(rng *rand.Rand, d *relation.Database, q *fo.Query) []string {
	dom := d.Dom()
	tuple := make([]string, len(q.Out))
	for i := range tuple {
		tuple[i] = dom[rng.Intn(len(dom))]
	}
	return tuple
}

// injectJoin is an inject-style two-table instance: R(k, v) and S(v, w),
// each keyed on its first column, with some keys of both tables carrying
// two values, so a join R(k, v) ∧ S(v, w) links conflicts across tables.
func injectJoin(seed int64) (*relation.Database, *constraint.Set) {
	rng := rand.New(rand.NewSource(seed))
	d := relation.NewDatabase()
	for i := 0; i < 4; i++ {
		k := fmt.Sprintf("k%d", i)
		for n := 1 + rng.Intn(2); n > 0; n-- {
			d.Insert(f("R", k, fmt.Sprintf("v%d", rng.Intn(4))))
		}
	}
	for i := 0; i < 4; i++ {
		v := fmt.Sprintf("v%d", i)
		for n := 1 + rng.Intn(2); n > 0; n-- {
			d.Insert(f("S", v, fmt.Sprintf("w%d", rng.Intn(3))))
		}
	}
	x, y, z := v("x"), v("y"), v("z")
	return d, constraint.NewSet(
		constraint.MustEGD([]logic.Atom{at("R", x, y), at("R", x, z)}, y, z),
		constraint.MustEGD([]logic.Atom{at("S", x, y), at("S", x, z)}, y, z),
	)
}

// lineageFamilies are small instances of every conflict shape the
// factored engine sees: key groups, chain islands, cliques with a clean
// core, and a two-table join.
func lineageFamilies(seed int64) map[string]func() (*relation.Database, *constraint.Set) {
	return map[string]func() (*relation.Database, *constraint.Set){
		"keys": func() (*relation.Database, *constraint.Set) {
			return workload.KeyViolations(workload.KeyConfig{Keys: 6, Violations: 4, Seed: seed})
		},
		"islands": func() (*relation.Database, *constraint.Set) {
			return workload.Islands(workload.IslandsConfig{Islands: 3, FactsPerIsland: 4, IsoRatio: 0.5, Seed: seed})
		},
		"cliques": func() (*relation.Database, *constraint.Set) {
			return workload.Cliques(workload.CliqueConfig{Groups: 3, GroupSize: 3, Core: 2, Seed: seed})
		},
		"inject": func() (*relation.Database, *constraint.Set) { return injectJoin(seed) },
	}
}

func sameAnswerSets(a, b *core.AnswerSet) string {
	if len(a.Answers) != len(b.Answers) {
		return fmt.Sprintf("%d vs %d answers:\n%s\n%s", len(a.Answers), len(b.Answers), a, b)
	}
	for i := range a.Answers {
		x, y := a.Answers[i], b.Answers[i]
		if !slices.Equal(x.Tuple, y.Tuple) || x.P.Cmp(y.P) != 0 {
			return fmt.Sprintf("answer %d: %v:%s vs %v:%s", i, x.Tuple, x.P.RatString(), y.Tuple, y.P.RatString())
		}
	}
	return ""
}

// TestFactoredLineageMatchesProduct: on random 1–3-atom CQs (shared and
// repeated variables, constants, Boolean queries) over every family, the
// lineage-grouped Factored.OCA and CP are bit-identical to enumerating the
// whole product distribution.
func TestFactoredLineageMatchesProduct(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for name, build := range lineageFamilies(seed) {
			d, sigma := build()
			fac, err := core.ComputeFactored(repair.MustInstance(d, sigma), generators.Uniform{}, markov.ExploreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if n := fac.NumRepairs(); n.Cmp(big.NewInt(1<<20)) > 0 {
				t.Fatalf("%s: %s repairs exceed the product budget", name, n)
			}
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				q := randomCQ(rng, d, 3)
				label := fmt.Sprintf("%s/seed=%d/%s", name, seed, q)
				got, err := fac.OCA(q)
				if err != nil {
					t.Fatalf("%s: OCA: %v", label, err)
				}
				want, err := fac.ProductOCA(q)
				if err != nil {
					t.Fatalf("%s: ProductOCA: %v", label, err)
				}
				if diff := sameAnswerSets(got, want); diff != "" {
					t.Fatalf("%s: lineage vs product OCA: %s", label, diff)
				}
				tuples := [][]string{randomTuple(rng, d, q), nil}
				for _, a := range want.Answers {
					tuples = append(tuples, a.Tuple)
				}
				for _, tuple := range tuples {
					cp, err := fac.CP(q, tuple)
					if err != nil {
						t.Fatalf("%s: CP%v: %v", label, tuple, err)
					}
					ref, err := fac.ProductCP(q, tuple)
					if err != nil {
						t.Fatalf("%s: ProductCP%v: %v", label, tuple, err)
					}
					if cp.Cmp(ref) != 0 {
						t.Fatalf("%s: CP%v = %s, product %s", label, tuple, cp.RatString(), ref.RatString())
					}
				}
			}
		}
	}
}

// perRepairOCA is the reference OCA: the query evaluated on every repair.
func perRepairOCA(sem *core.Semantics, q *fo.Query) map[string]*big.Rat {
	out := map[string]*big.Rat{}
	for _, r := range sem.Repairs {
		for _, tuple := range q.Answers(r.DB) {
			k := fo.TupleKey(tuple)
			if out[k] == nil {
				out[k] = new(big.Rat)
			}
			out[k].Add(out[k], r.P)
		}
	}
	for _, p := range out {
		p.Quo(p, sem.SuccessP)
	}
	return out
}

// perRepairCP is the reference CP: Holds on every repair.
func perRepairCP(sem *core.Semantics, q *fo.Query, tuple []string) *big.Rat {
	num := new(big.Rat)
	for _, r := range sem.Repairs {
		if q.Holds(r.DB, tuple) {
			num.Add(num, r.P)
		}
	}
	return num.Quo(num, sem.SuccessP)
}

// checkSemanticsAgainstRepairs requires OCA and CP to equal the
// per-repair evaluation on q.
func checkSemanticsAgainstRepairs(t *testing.T, label string, sem *core.Semantics, q *fo.Query, extra []string) {
	t.Helper()
	got := sem.OCA(q)
	want := perRepairOCA(sem, q)
	positive := 0
	for _, p := range want {
		if p.Sign() > 0 {
			positive++
		}
	}
	if len(got.Answers) != positive {
		t.Fatalf("%s: OCA has %d answers, per-repair %d:\n%s", label, len(got.Answers), positive, got)
	}
	// A nil tuple has the wrong arity for every non-Boolean query.
	tuples := [][]string{extra, nil}
	for _, a := range got.Answers {
		if w := want[fo.TupleKey(a.Tuple)]; w == nil || w.Cmp(a.P) != 0 {
			t.Fatalf("%s: OCA%v = %s, per-repair %v", label, a.Tuple, a.P.RatString(), w)
		}
		tuples = append(tuples, a.Tuple)
	}
	for _, tuple := range tuples {
		if cp, ref := sem.CP(q, tuple), perRepairCP(sem, q, tuple); cp.Cmp(ref) != 0 {
			t.Fatalf("%s: CP%v = %s, per-repair %s", label, tuple, cp.RatString(), ref.RatString())
		}
	}
}

// TestSemanticsLineageMatchesPerRepair: Semantics.OCA and CP answer random
// CQs from the witness lineage on the tree and DAG engines, under
// walk-induced and sequence-uniform semantics and the uniform and
// preference generators, with exactly the values of evaluating the query
// on every repair.
func TestSemanticsLineageMatchesPerRepair(t *testing.T) {
	type instance struct {
		name string
		d    *relation.Database
		s    *constraint.Set
		gen  markov.Generator
	}
	keysDB, keysSigma := workload.KeyViolations(workload.KeyConfig{Keys: 4, Violations: 3, Seed: 2})
	chainDB, chainSigma := workload.Islands(workload.IslandsConfig{Islands: 2, FactsPerIsland: 3, IsoRatio: 1, Seed: 3})
	joinDB, joinSigma := injectJoin(4)
	prefDB, prefSigma := workload.Preferences(workload.PreferenceConfig{Products: 4, Prefs: 6, ConflictRate: 0.5, Seed: 5})
	instances := []instance{
		{"keys", keysDB, keysSigma, generators.Uniform{}},
		{"islands", chainDB, chainSigma, generators.Uniform{}},
		{"inject", joinDB, joinSigma, generators.Uniform{}},
		{"preference", prefDB, prefSigma, generators.Preference{}},
	}
	engines := []struct {
		name string
		run  func(*repair.Instance, markov.Generator, markov.ExploreOptions, core.SemanticsMode) (*core.Semantics, error)
	}{
		{"tree", core.ComputeTreeMode},
		{"dag", core.ComputeDAGMode},
	}
	for _, in := range instances {
		inst := repair.MustInstance(in.d, in.s)
		for _, eng := range engines {
			for _, mode := range []core.SemanticsMode{core.WalkInduced, core.SequenceUniform} {
				sem, err := eng.run(inst, in.gen, markov.ExploreOptions{}, mode)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", in.name, eng.name, mode, err)
				}
				rng := rand.New(rand.NewSource(7))
				for i := 0; i < 25; i++ {
					q := randomCQ(rng, in.d, 3)
					label := fmt.Sprintf("%s/%s/%s/%s", in.name, eng.name, mode, q)
					if !sem.UsesLineage(q) {
						t.Fatalf("%s: a TGD-free CQ must be answered from its lineage", label)
					}
					checkSemanticsAgainstRepairs(t, label, sem, q, randomTuple(rng, in.d, q))
				}
			}
		}
	}
}

// TestSemanticsLineageKeepsOldPath: a TGD instance repaired with labeled
// nulls, and a query with negation, are evaluated on every repair — the
// lineage cannot describe repairs with inserted facts or a non-monotone
// query — and still match the per-repair reference.
func TestSemanticsLineageKeepsOldPath(t *testing.T) {
	d := relation.FromFacts(f("R", "a", "b"), f("R", "c", "d"), f("S", "b", "e"))
	x, y, z := v("X"), v("Y"), v("Z")
	tgd := constraint.MustTGD([]logic.Atom{at("R", x, y)}, []logic.Atom{at("S", y, z)})
	inst, err := repair.NewInstanceOpts(d, constraint.NewSet(tgd), repair.Options{NullInsertions: true})
	if err != nil {
		t.Fatal(err)
	}
	sem, err := core.Compute(inst, generators.Uniform{}, markov.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	join := fo.MustQuery("J", []logic.Term{x}, fo.Exists{Vars: []logic.Term{y, z}, F: fo.And{
		L: fo.Atom{A: at("R", x, y)},
		R: fo.Atom{A: at("S", y, z)},
	}})
	if sem.UsesLineage(join) {
		t.Fatal("-nulls TGD instance must evaluate queries on every repair")
	}
	if db, _ := sem.LineageInputs(); db != nil {
		t.Fatal("a TGD instance must carry no lineage inputs")
	}
	checkSemanticsAgainstRepairs(t, "nulls/"+join.String(), sem, join, []string{"c"})

	kd, ks := workload.KeyViolations(workload.KeyConfig{Keys: 3, Violations: 2, Seed: 1})
	kd.Insert(f("T", "k0"))
	sem, err = core.Compute(repair.MustInstance(kd, ks), generators.Uniform{}, markov.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	neg := fo.MustQuery("N", []logic.Term{x}, fo.Exists{Vars: []logic.Term{y}, F: fo.And{
		L: fo.Atom{A: at("R", x, y)},
		R: fo.Not{F: fo.Atom{A: at("T", x)}},
	}})
	if sem.UsesLineage(neg) {
		t.Fatal("a query with negation must be evaluated on every repair")
	}
	checkSemanticsAgainstRepairs(t, "negation/"+neg.String(), sem, neg, []string{"k0"})
}

// TestRenamedComponentLineage: a component served from the structural
// cache materializes its semantics by renaming the shared canonical one;
// its lineage inputs must be renamed with it, so its CP and OCA answer
// over its own facts — never over the constants of the island that
// populated the cache entry.
func TestRenamedComponentLineage(t *testing.T) {
	d, sigma := workload.Islands(workload.IslandsConfig{Islands: 3, FactsPerIsland: 4, IsoRatio: 0.5, Seed: 9})
	fac, err := core.ComputeFactored(repair.MustInstance(d, sigma), generators.Uniform{}, markov.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fac.CacheMisses != 1 || fac.CacheHits != 2 {
		t.Fatalf("cache misses/hits = %d/%d, want 1/2", fac.CacheMisses, fac.CacheHits)
	}
	rng := rand.New(rand.NewSource(3))
	for ci, c := range fac.Components() {
		sem := c.Semantics()
		db, conflicted := sem.LineageInputs()
		if db == nil {
			t.Fatalf("component %d: no lineage inputs", ci)
		}
		if relation.FactsString(db.Facts()) != relation.FactsString(c.Facts) {
			t.Fatalf("component %d: lineage database %s, want its own facts %s",
				ci, relation.FactsString(db.Facts()), relation.FactsString(c.Facts))
		}
		for _, fact := range conflicted {
			if !slices.Contains(c.Facts, fact) {
				t.Fatalf("component %d: conflicted fact %s is not its own", ci, fact)
			}
		}
		own := relation.FromFacts(c.Facts...)
		for i := 0; i < 15; i++ {
			q := randomCQ(rng, own, 3)
			checkSemanticsAgainstRepairs(t, fmt.Sprintf("component %d/%s", ci, q), sem, q, randomTuple(rng, own, q))
		}
	}
}
