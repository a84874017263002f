package core_test

// The strongest correctness artifact in the repo: four independent exact
// engines — sequence tree, collapsed DAG, factored components, and the
// SAT pipeline (which never explores a chain at all) — must report the
// identical certain-answer set on every instance, for every full-support
// local generator, under both semantics modes, for every worker count.
// The SAT engine shares no exploration code with the others (it reasons
// about the repair space propositionally), so agreement here is evidence
// about the semantics itself, not about shared plumbing.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/fo"
	"repro/internal/generators"
	"repro/internal/logic"
	"repro/internal/markov"
	"repro/internal/relation"
	"repro/internal/repair"
	"repro/internal/sat"
	"repro/internal/workload"
)

func certainDiff(label string, a, b [][]string) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%s: %v vs %v", label, a, b)
	}
	for i := range a {
		if fo.TupleKey(a[i]) != fo.TupleKey(b[i]) {
			return fmt.Sprintf("%s: tuple %d: %v vs %v", label, i, a[i], b[i])
		}
	}
	return ""
}

// checkCertainEngines computes the certain answers of q on (db, sigma)
// through every exact pipeline and requires bit-identical sets:
// tree and DAG under both semantics modes, the factored engine across
// Workers=1..8, and SAT.
func checkCertainEngines(t *testing.T, label string, db *relation.Database, sigma *constraint.Set, gen core.LocalGenerator, q *fo.Query) {
	t.Helper()
	inst := repair.MustInstance(db, sigma)
	opt := markov.ExploreOptions{MaxStates: 2_000_000}

	satRes, err := core.ComputeCertainSAT(db, sigma, q)
	if err != nil {
		t.Fatalf("%s: sat: %v", label, err)
	}

	tree, err := core.ComputeTreeMode(inst, gen, opt, core.WalkInduced)
	if err != nil {
		t.Fatalf("%s: tree: %v", label, err)
	}
	if d := certainDiff("tree vs sat", tree.Certain(q), satRes.Answers); d != "" {
		t.Fatalf("%s: %s", label, d)
	}

	dag, err := core.ComputeDAGMode(inst, gen, opt, core.WalkInduced)
	if err != nil {
		t.Fatalf("%s: dag: %v", label, err)
	}
	if d := certainDiff("dag vs sat", dag.Certain(q), satRes.Answers); d != "" {
		t.Fatalf("%s: %s", label, d)
	}

	// Certain answers are semantics-mode independent: the uniform mode
	// reweighs the same repairs, and a reweighing cannot change which
	// tuples hold with probability 1.
	uni, err := core.ComputeDAGMode(inst, gen, opt, core.SequenceUniform)
	if err != nil {
		t.Fatalf("%s: dag/uniform: %v", label, err)
	}
	if d := certainDiff("dag-uniform vs sat", uni.Certain(q), satRes.Answers); d != "" {
		t.Fatalf("%s: %s", label, d)
	}

	for workers := 1; workers <= 8; workers++ {
		f, err := core.ComputeFactored(inst, gen, markov.ExploreOptions{Workers: workers, MaxStates: 2_000_000})
		if err != nil {
			t.Fatalf("%s: factored workers=%d: %v", label, workers, err)
		}
		fc, err := f.Certain(q)
		if err != nil {
			t.Fatalf("%s: factored certain workers=%d: %v", label, workers, err)
		}
		if d := certainDiff(fmt.Sprintf("factored(w=%d) vs sat", workers), fc, satRes.Answers); d != "" {
			t.Fatalf("%s: %s", label, d)
		}
	}
}

// randomTwoTableInstance builds a small random instance over keyed tables
// R(k,v) and S(k,w): small key/value domains force random violating
// groups; total conflict facts stay small enough for the tree engine.
func randomTwoTableInstance(rng *rand.Rand) (*relation.Database, *constraint.Set) {
	d := relation.NewDatabase()
	rKeys, sKeys := 1+rng.Intn(3), 1+rng.Intn(3)
	for i := 0; i < 2+rng.Intn(4); i++ {
		d.Insert(relation.NewFact("R",
			fmt.Sprintf("k%d", rng.Intn(rKeys)), fmt.Sprintf("v%d", rng.Intn(3))))
	}
	for i := 0; i < 2+rng.Intn(3); i++ {
		d.Insert(relation.NewFact("S",
			fmt.Sprintf("k%d", rng.Intn(sKeys)), fmt.Sprintf("w%d", rng.Intn(3))))
	}
	x, y, z := logic.Var("x"), logic.Var("y"), logic.Var("z")
	keyOf := func(pred string) *constraint.Constraint {
		return constraint.MustEGD(
			[]logic.Atom{logic.NewAtom(pred, x, y), logic.NewAtom(pred, x, z)}, y, z)
	}
	return d, constraint.NewSet(keyOf("R"), keyOf("S"))
}

func satJoinQuery() *fo.Query {
	x, y, z := logic.Var("x"), logic.Var("y"), logic.Var("z")
	return fo.MustQuery("J", []logic.Term{x},
		fo.Exists{Vars: []logic.Term{y, z}, F: fo.And{
			L: fo.Atom{A: logic.NewAtom("R", x, y)},
			R: fo.Atom{A: logic.NewAtom("S", x, z)},
		}})
}

func satBoolQuery() *fo.Query {
	x, y := logic.Var("x"), logic.Var("y")
	return fo.MustQuery("B", nil,
		fo.Exists{Vars: []logic.Term{x, y}, F: fo.Atom{A: logic.NewAtom("R", x, y)}})
}

// TestSATEquivalenceUniform: tree ≡ DAG ≡ factored ≡ SAT on randomized
// two-table instances under the uniform generator, for an atomic-style
// exists query, a cross-table join, and a boolean query.
func TestSATEquivalenceUniform(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(400 + trial)))
		d, sigma := randomTwoTableInstance(rng)
		label := fmt.Sprintf("uniform/trial=%d", trial)
		checkCertainEngines(t, label+"/exists", d, sigma, generators.Uniform{}, keysEquivQuery())
		checkCertainEngines(t, label+"/join", d, sigma, generators.Uniform{}, satJoinQuery())
		checkCertainEngines(t, label+"/bool", d, sigma, generators.Uniform{}, satBoolQuery())
	}
}

// TestSATEquivalenceUniformDeletions: same instances, deletion-only
// uniform generator (the canonical non-failing chain for EGD-only Σ).
func TestSATEquivalenceUniformDeletions(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		d, sigma := randomTwoTableInstance(rng)
		label := fmt.Sprintf("uniform-deletions/trial=%d", trial)
		checkCertainEngines(t, label+"/exists", d, sigma, generators.UniformDeletions{}, keysEquivQuery())
		checkCertainEngines(t, label+"/join", d, sigma, generators.UniformDeletions{}, satJoinQuery())
	}
}

// TestSATEquivalenceTrust: the trust generator with randomized full-
// support levels (every level in (0,1], so every repair keeps positive
// probability — the regime where certain answers are generator-free).
func TestSATEquivalenceTrust(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(600 + trial)))
		d, sigma := randomTwoTableInstance(rng)
		gen := workload.RandomTrust(d, 4, int64(trial))
		label := fmt.Sprintf("trust/trial=%d", trial)
		checkCertainEngines(t, label+"/exists", d, sigma, gen, keysEquivQuery())
		checkCertainEngines(t, label+"/join", d, sigma, gen, satJoinQuery())
	}
}

// TestSATEquivalenceCliques: the huge-sequence-space family at a size
// every engine can still handle, both repair-space corners (all-violating
// and violation-free).
func TestSATEquivalenceCliques(t *testing.T) {
	for _, cfg := range []workload.CliqueConfig{
		{Groups: 2, GroupSize: 3, Core: 2, Seed: 1},
		{Groups: 3, GroupSize: 2, Core: 0, Seed: 2},
		{Groups: 0, GroupSize: 2, Core: 3, Seed: 3},
	} {
		d, sigma := workload.Cliques(cfg)
		label := fmt.Sprintf("cliques/%+v", cfg)
		checkCertainEngines(t, label, d, sigma, generators.Uniform{}, keysEquivQuery())
	}
}

// TestFactoredCertainSATFallback: Factored.Certain filters the exact OCA
// while every lineage group fits the enumeration budget and routes
// through SAT past it. On the 22-group cliques instance (4^22 repairs,
// past any DAG budget) the key query's witnesses each stay inside one
// group, so OCA is exact, and its certain set — provably the conflict-
// free core keys — matches the direct SAT engine. Conflict-free links
// L(g_i, g_i+1, spread) then chain all 22 groups into one lineage group of
// Tag(t) := ∃x,x2,y,y2 L(x, x2, t) ∧ R(x, y) ∧ R(x2, y2): OCA must trip
// the budget, and Certain must fall back to SAT and still produce the
// exact certain set ({core}, via links between the clean keys).
func TestFactoredCertainSATFallback(t *testing.T) {
	cfg := workload.CliqueConfig{Groups: 22, GroupSize: 3, Core: 5, Seed: 11}
	d, sigma := workload.Cliques(cfg)
	inst := repair.MustInstance(d, sigma)
	q := keysEquivQuery()

	f, err := core.ComputeFactored(inst, generators.Uniform{}, markov.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.OCA(q); err != nil {
		t.Fatalf("key query OCA over 4^22 repairs: %v (want exact through one-group lineage)", err)
	}
	got, err := f.Certain(q)
	if err != nil {
		t.Fatal(err)
	}
	satRes, err := core.ComputeCertainSAT(d, sigma, q)
	if err != nil {
		t.Fatal(err)
	}
	if diff := certainDiff("factored vs sat", got, satRes.Answers); diff != "" {
		t.Fatal(diff)
	}
	if len(got) != cfg.Core {
		t.Fatalf("certain = %v, want exactly the %d core keys", got, cfg.Core)
	}
	for i, tup := range got {
		if want := fmt.Sprintf("c%d", i); len(tup) != 1 || tup[0] != want {
			t.Fatalf("certain[%d] = %v, want [%s]", i, tup, want)
		}
	}

	linked := d.Clone()
	for i := 0; i+1 < cfg.Groups; i++ {
		linked.Insert(relation.NewFact("L", fmt.Sprintf("g%d", i), fmt.Sprintf("g%d", i+1), "spread"))
	}
	for i := 0; i+1 < cfg.Core; i++ {
		linked.Insert(relation.NewFact("L", fmt.Sprintf("c%d", i), fmt.Sprintf("c%d", i+1), "core"))
	}
	f, err = core.ComputeFactored(repair.MustInstance(linked, sigma), generators.Uniform{}, markov.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	x, x2, y, y2, tag := logic.Var("x"), logic.Var("x2"), logic.Var("y"), logic.Var("y2"), logic.Var("t")
	tq := fo.MustQuery("Tag", []logic.Term{tag}, fo.Exists{Vars: []logic.Term{x, x2, y, y2}, F: fo.And{
		L: fo.Atom{A: logic.NewAtom("L", x, x2, tag)},
		R: fo.And{L: fo.Atom{A: logic.NewAtom("R", x, y)}, R: fo.Atom{A: logic.NewAtom("R", x2, y2)}},
	}})
	if _, err := f.OCA(tq); !errors.Is(err, core.ErrEnumerationBudget) {
		t.Fatalf("linked OCA err = %v, want ErrEnumerationBudget", err)
	}
	got, err = f.Certain(tq)
	if err != nil {
		t.Fatalf("Factored.Certain fallback: %v", err)
	}
	satRes, err = core.ComputeCertainSAT(linked, sigma, tq)
	if err != nil {
		t.Fatal(err)
	}
	if diff := certainDiff("factored-fallback vs sat", got, satRes.Answers); diff != "" {
		t.Fatal(diff)
	}
	if len(got) != 1 || len(got[0]) != 1 || got[0][0] != "core" {
		t.Fatalf("linked certain = %v, want [[core]]", got)
	}
}

// TestSATMatchesMaximalSemanticsOnly documents why the encoding uses
// at-most-one and not the issue text's exactly-one: on a single
// 2-fact violating group the operational chain reaches the empty
// resolution with positive probability, so the group's key is NOT
// certain — which the chain engines and the at-most-one encoding agree
// on, while an exactly-one (maximal-repair) encoding would call it
// certain.
func TestSATMatchesOperationalNotMaximal(t *testing.T) {
	d, sigma := workload.Cliques(workload.CliqueConfig{Groups: 1, GroupSize: 2, Core: 0, Seed: 1})
	inst := repair.MustInstance(d, sigma)
	q := keysEquivQuery()

	sem, err := core.Compute(inst, generators.Uniform{}, markov.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	chainCertain := sem.Certain(q)
	if len(chainCertain) != 0 {
		t.Fatalf("chain certain = %v, want empty (the empty resolution is reachable)", chainCertain)
	}

	satRes, err := core.ComputeCertainSAT(d, sigma, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(satRes.Answers) != 0 {
		t.Fatalf("sat certain = %v, want empty", satRes.Answers)
	}

	enc, err := sat.NewEncoder(d, sigma, sat.Options{MaximalRepairs: true})
	if err != nil {
		t.Fatal(err)
	}
	mx, err := enc.CertainAnswers(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(mx.Answers) != 1 {
		t.Fatalf("maximal-repair certain = %v, want the group key", mx.Answers)
	}
}
