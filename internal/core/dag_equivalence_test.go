package core_test

// The DAG-collapsed exact engine must be observationally identical to the
// sequence-tree engine wherever it engages: same repairs, same exact
// big.Rat probabilities, same sequence counts, same derived quantities
// (CP, OCA, Certain, AnswerCountDistribution). This suite checks that on
// randomized small instances across all three shipped memoryless
// generators, and proves the fallback: a history-dependent generator takes
// the tree path, and force-collapsing it would actually change the
// semantics (so the Markovian gate is load-bearing, not decorative).

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fo"
	"repro/internal/generators"
	"repro/internal/logic"
	"repro/internal/markov"
	"repro/internal/ops"
	"repro/internal/prob"
	"repro/internal/repair"
	"repro/internal/workload"
)

// semanticsDiff compares every observable of two semantics exactly and
// returns a description of the first difference ("" when identical).
func semanticsDiff(a, b *core.Semantics) string {
	if a.AbsorbingStates != b.AbsorbingStates {
		return fmt.Sprintf("AbsorbingStates %d vs %d", a.AbsorbingStates, b.AbsorbingStates)
	}
	if a.FailingStates != b.FailingStates {
		return fmt.Sprintf("FailingStates %d vs %d", a.FailingStates, b.FailingStates)
	}
	if a.SuccessP.Cmp(b.SuccessP) != 0 {
		return fmt.Sprintf("SuccessP %s vs %s", a.SuccessP.RatString(), b.SuccessP.RatString())
	}
	if a.FailP.Cmp(b.FailP) != 0 {
		return fmt.Sprintf("FailP %s vs %s", a.FailP.RatString(), b.FailP.RatString())
	}
	if len(a.Repairs) != len(b.Repairs) {
		return fmt.Sprintf("%d vs %d repairs", len(a.Repairs), len(b.Repairs))
	}
	for i := range a.Repairs {
		ra, rb := a.Repairs[i], b.Repairs[i]
		if !ra.DB.Equal(rb.DB) {
			return fmt.Sprintf("repair %d: %s vs %s", i, ra.DB, rb.DB)
		}
		if ra.P.Cmp(rb.P) != 0 {
			return fmt.Sprintf("repair %d (%s): P %s vs %s", i, ra.DB, ra.P.RatString(), rb.P.RatString())
		}
		if ra.Sequences != rb.Sequences {
			return fmt.Sprintf("repair %d (%s): Sequences %d vs %d", i, ra.DB, ra.Sequences, rb.Sequences)
		}
	}
	return ""
}

// derivedDiff compares the query-level observables.
func derivedDiff(a, b *core.Semantics, q *fo.Query) string {
	oa, ob := a.OCA(q), b.OCA(q)
	if len(oa.Answers) != len(ob.Answers) {
		return fmt.Sprintf("OCA sizes %d vs %d", len(oa.Answers), len(ob.Answers))
	}
	for i := range oa.Answers {
		if fo.TupleKey(oa.Answers[i].Tuple) != fo.TupleKey(ob.Answers[i].Tuple) {
			return fmt.Sprintf("OCA tuple %d: %v vs %v", i, oa.Answers[i].Tuple, ob.Answers[i].Tuple)
		}
		if oa.Answers[i].P.Cmp(ob.Answers[i].P) != 0 {
			return fmt.Sprintf("OCA %v: P %s vs %s", oa.Answers[i].Tuple,
				oa.Answers[i].P.RatString(), ob.Answers[i].P.RatString())
		}
		if a.CP(q, oa.Answers[i].Tuple).Cmp(b.CP(q, ob.Answers[i].Tuple)) != 0 {
			return fmt.Sprintf("CP(%v) differs", oa.Answers[i].Tuple)
		}
	}
	ca, cb := a.Certain(q), b.Certain(q)
	if len(ca) != len(cb) {
		return fmt.Sprintf("Certain sizes %d vs %d", len(ca), len(cb))
	}
	for i := range ca {
		if fo.TupleKey(ca[i]) != fo.TupleKey(cb[i]) {
			return fmt.Sprintf("Certain tuple %d: %v vs %v", i, ca[i], cb[i])
		}
	}
	da, db := a.AnswerCountDistribution(q), b.AnswerCountDistribution(q)
	if len(da.Points) != len(db.Points) {
		return fmt.Sprintf("count distribution sizes %d vs %d", len(da.Points), len(db.Points))
	}
	for i := range da.Points {
		if da.Points[i].Count != db.Points[i].Count || da.Points[i].P.Cmp(db.Points[i].P) != 0 {
			return fmt.Sprintf("count point %d: (%d, %s) vs (%d, %s)", i,
				da.Points[i].Count, da.Points[i].P.RatString(),
				db.Points[i].Count, db.Points[i].P.RatString())
		}
	}
	return ""
}

func keysEquivQuery() *fo.Query {
	x, y := logic.Var("x"), logic.Var("y")
	return fo.MustQuery("Keys", []logic.Term{x},
		fo.Exists{Vars: []logic.Term{y}, F: fo.Atom{A: logic.NewAtom("R", x, y)}})
}

func topPrefQuery() *fo.Query {
	x, y := logic.Var("x"), logic.Var("y")
	return fo.MustQuery("Top", []logic.Term{x}, fo.ForAll{
		Vars: []logic.Term{y},
		F:    fo.Or{L: fo.Atom{A: logic.NewAtom("Pref", x, y)}, R: fo.Eq{L: x, R: y}},
	})
}

// checkEngines runs all three engines on one instance and requires exact
// agreement (and that Compute actually routed to the DAG).
func checkEngines(t *testing.T, label string, inst *repair.Instance, g markov.Generator, q *fo.Query) {
	t.Helper()
	if !markov.Collapsible(inst, g) {
		t.Fatalf("%s: expected a collapsible chain", label)
	}
	opt := markov.ExploreOptions{MaxStates: 2_000_000}
	tree, err := core.ComputeTreeMode(inst, g, opt, core.WalkInduced)
	if err != nil {
		t.Fatalf("%s: tree: %v", label, err)
	}
	dag, err := core.ComputeDAGMode(inst, g, opt, core.WalkInduced)
	if err != nil {
		t.Fatalf("%s: dag: %v", label, err)
	}
	routed, err := core.Compute(inst, g, opt)
	if err != nil {
		t.Fatalf("%s: routed: %v", label, err)
	}
	if d := semanticsDiff(tree, dag); d != "" {
		t.Fatalf("%s: tree vs DAG: %s", label, d)
	}
	if d := semanticsDiff(dag, routed); d != "" {
		t.Fatalf("%s: DAG vs routed Compute: %s", label, d)
	}
	if d := derivedDiff(tree, dag, q); d != "" {
		t.Fatalf("%s: derived observables: %s", label, d)
	}
}

// TestDAGEquivalenceUniformRandomKeys: randomized key-violation instances
// under the uniform generator.
func TestDAGEquivalenceUniformRandomKeys(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		cfg := workload.KeyConfig{
			Keys:       1 + rng.Intn(4),
			Violations: 1 + rng.Intn(3),
			Seed:       int64(trial),
		}
		d, sigma := workload.KeyViolations(cfg)
		inst := repair.MustInstance(d, sigma)
		checkEngines(t, fmt.Sprintf("uniform/trial=%d cfg=%+v", trial, cfg), inst, generators.Uniform{}, keysEquivQuery())
	}
}

// TestDAGEquivalencePreferenceRandom: randomized preference instances under
// the (memoryless but non-local) support generator of Example 4.
func TestDAGEquivalencePreferenceRandom(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(200 + trial)))
		cfg := workload.PreferenceConfig{
			Products:     3 + rng.Intn(3),
			Prefs:        5 + rng.Intn(4),
			ConflictRate: 0.5,
			Seed:         int64(trial),
		}
		d, sigma := workload.Preferences(cfg)
		inst := repair.MustInstance(d, sigma)
		if inst.Consistent() && trial > 0 {
			continue // nothing to repair; the consistent case is covered once
		}
		checkEngines(t, fmt.Sprintf("preference/trial=%d cfg=%+v", trial, cfg), inst, generators.Preference{}, topPrefQuery())
	}
}

// TestDAGEquivalenceTrustRandom: randomized key-violation instances under
// the trust generator with randomized trust levels.
func TestDAGEquivalenceTrustRandom(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(300 + trial)))
		cfg := workload.KeyConfig{
			Keys:       1 + rng.Intn(3),
			Violations: 1 + rng.Intn(3),
			Seed:       int64(10 + trial),
		}
		d, sigma := workload.KeyViolations(cfg)
		gen := generators.NewTrust(big.NewRat(1, 2))
		for _, fact := range d.Facts() {
			if err := gen.Set(fact, big.NewRat(int64(1+rng.Intn(4)), 5)); err != nil {
				t.Fatal(err)
			}
		}
		inst := repair.MustInstance(d, sigma)
		checkEngines(t, fmt.Sprintf("trust/trial=%d cfg=%+v", trial, cfg), inst, gen, keysEquivQuery())
	}
}

// TestDAGEquivalencePreferenceParallelStress widens the instance until the
// DAG frontiers exceed the inline-expansion threshold, so the preference
// generator's Transitions (violation involved-fact cache, index-bucket
// weight probes) run on the parallel worker-pool path; under -race this is
// the concurrency proof for the non-local generator. Worker counts must be
// bit-identical, and both must match the sequence tree.
func TestDAGEquivalencePreferenceParallelStress(t *testing.T) {
	d, sigma := workload.Preferences(workload.PreferenceConfig{
		Products: 12, Prefs: 18, ConflictRate: 0.5, Seed: 9,
	})
	inst := repair.MustInstance(d, sigma)
	gen := generators.Preference{}
	one, err := core.ComputeDAGMode(inst, gen, markov.ExploreOptions{Workers: 1}, core.WalkInduced)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := core.ComputeDAGMode(inst, gen, markov.ExploreOptions{Workers: 8}, core.WalkInduced)
	if err != nil {
		t.Fatal(err)
	}
	if d := semanticsDiff(one, eight); d != "" {
		t.Fatalf("workers=1 vs workers=8: %s", d)
	}
	if len(one.Repairs) < 16 {
		t.Fatalf("instance too small to exercise the worker pool: %d repairs", len(one.Repairs))
	}
	tree, err := core.ComputeTreeMode(inst, gen, markov.ExploreOptions{MaxStates: 2_000_000}, core.WalkInduced)
	if err != nil {
		t.Fatal(err)
	}
	if d := semanticsDiff(tree, eight); d != "" {
		t.Fatalf("tree vs parallel DAG: %s", d)
	}
}

// firstOpBiased is deliberately history-dependent: from the second step on,
// extensions whose size matches the sequence's FIRST operation weigh 3, the
// rest weigh 1. Two states with the same database but different first
// operations (e.g. one resolved a conflict with a pair deletion, the other
// with a singleton) transition differently, so collapsing by database would
// be unsound.
type firstOpBiased struct{}

func (firstOpBiased) Name() string { return "first-op-biased" }

func (firstOpBiased) Transitions(s *repair.State, exts []ops.Op) ([]*big.Rat, error) {
	if s.Len() == 0 {
		p := big.NewRat(1, int64(len(exts)))
		out := make([]*big.Rat, len(exts))
		for i := range out {
			out[i] = p
		}
		return out, nil
	}
	firstSize := s.Ops()[0].Size()
	weights := make([]*big.Rat, len(exts))
	for i, op := range exts {
		if op.Size() == firstSize {
			weights[i] = big.NewRat(3, 1)
		} else {
			weights[i] = big.NewRat(1, 1)
		}
	}
	return prob.Normalize(weights)
}

// lyingMarkovian wraps firstOpBiased with a false memorylessness claim, to
// demonstrate that the collapse is not a no-op on history-dependent chains.
type lyingMarkovian struct{ firstOpBiased }

func (lyingMarkovian) Memoryless() bool { return true }

// TestHistoryDependentGeneratorFallsBackToTree: the headline fallback
// proof. Compute on a non-Markovian generator must (a) refuse to collapse,
// (b) agree exactly with the tree engine, and (c) the refusal must matter —
// force-collapsing the same generator changes the distribution.
func TestHistoryDependentGeneratorFallsBackToTree(t *testing.T) {
	d, sigma := workload.KeyViolations(workload.KeyConfig{Keys: 3, Violations: 3, Seed: 7})
	inst := repair.MustInstance(d, sigma)
	gen := firstOpBiased{}

	if markov.Collapsible(inst, gen) {
		t.Fatal("history-dependent generator must not be collapsible")
	}
	if _, err := core.ComputeDAGMode(inst, gen, markov.ExploreOptions{}, core.WalkInduced); !errors.Is(err, markov.ErrNotCollapsible) {
		t.Fatalf("ComputeDAGMode err = %v, want ErrNotCollapsible", err)
	}

	tree, err := core.ComputeTreeMode(inst, gen, markov.ExploreOptions{}, core.WalkInduced)
	if err != nil {
		t.Fatal(err)
	}
	routed, err := core.Compute(inst, gen, markov.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d := semanticsDiff(tree, routed); d != "" {
		t.Fatalf("fallback must reproduce the tree exactly: %s", d)
	}
	if d := derivedDiff(tree, routed, keysEquivQuery()); d != "" {
		t.Fatalf("fallback derived observables: %s", d)
	}

	// (c): merging states by database under this generator is wrong, so the
	// Markovian gate is doing real work.
	collapsed, err := core.ComputeDAGMode(inst, lyingMarkovian{}, markov.ExploreOptions{}, core.WalkInduced)
	if err != nil {
		t.Fatal(err)
	}
	if d := semanticsDiff(tree, collapsed); d == "" {
		t.Fatal("force-collapsing a history-dependent chain unexpectedly preserved the semantics; the fallback test is vacuous")
	}
}
