package markov_test

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

// twoConflictInstance has two independent key conflicts (18 absorbing
// states under the uniform chain).
func twoConflictInstance(t *testing.T) *repair.Instance {
	t.Helper()
	d := relation.FromFacts(
		f("R", "a", "1"), f("R", "a", "2"),
		f("R", "b", "1"), f("R", "b", "2"),
	)
	eta := constraint.MustEGD(
		[]logic.Atom{at("R", v("x"), v("y")), at("R", v("x"), v("z"))},
		v("y"), v("z"),
	)
	return repair.MustInstance(d, constraint.NewSet(eta))
}

// uniformGen mirrors generators.Uniform locally to keep this package's
// tests free of a dependency cycle with its consumers.
type uniformGen struct{}

func (uniformGen) Name() string { return "uniform-local" }
func (uniformGen) Transitions(_ *repair.State, exts []ops.Op) ([]*big.Rat, error) {
	out := make([]*big.Rat, len(exts))
	for i := range out {
		out[i] = big.NewRat(1, int64(len(exts)))
	}
	return out, nil
}

func TestStepAbsorbingState(t *testing.T) {
	inst := twoConflictInstance(t)
	s := inst.Root()
	// Drive to an absorbing state manually.
	for len(s.Extensions()) > 0 {
		s = s.Child(s.Extensions()[0])
	}
	edges, err := markov.Step(uniformGen{}, s)
	if err != nil {
		t.Fatal(err)
	}
	if edges != nil {
		t.Errorf("absorbing state has %d edges, want none", len(edges))
	}
}

func TestExploreLeafCount(t *testing.T) {
	inst := twoConflictInstance(t)
	dag, err := markov.Explore(inst, uniformGen{}, markov.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// 6 first ops × 3 ops for the remaining conflict = 18 sequences, merged
	// into 3 × 3 = 9 result databases.
	if dag.Sequences.Int64() != 18 || len(dag.Leaves) != 9 {
		t.Fatalf("sequences = %s leaves = %d, want 18 and 9", dag.Sequences, len(dag.Leaves))
	}
	// The tree has 1 root + 6 + 18 states and one edge into each non-root.
	if dag.States != 25 || dag.Edges != 24 {
		t.Errorf("States = %d Edges = %d, want 25 and 24", dag.States, dag.Edges)
	}
	total := prob.Zero()
	seqs := new(big.Int)
	for _, l := range dag.Leaves {
		total.Add(total, l.Pi)
		seqs.Add(seqs, l.Sequences)
		if !l.State.IsComplete() {
			t.Errorf("leaf %s is not complete", l.State)
		}
	}
	if !prob.IsOne(total) {
		t.Errorf("hitting mass = %s, want 1 (Proposition 3)", total.RatString())
	}
	if seqs.Cmp(dag.Sequences) != 0 {
		t.Errorf("leaf sequence counts sum to %s, want %s", seqs, dag.Sequences)
	}
}

func TestExploreRespectsZeroEdges(t *testing.T) {
	inst := twoConflictInstance(t)
	// A generator that zeroes pair deletions: only singleton repairs remain.
	gen := singlesOnly{}
	dag, err := markov.Explore(inst, gen, markov.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// 4 first singles × 2 singles for the other conflict = 8 sequences,
	// producing 2 × 2 = 4 databases.
	if dag.Sequences.Int64() != 8 || len(dag.Leaves) != 4 {
		t.Fatalf("sequences = %s leaves = %d, want 8 and 4", dag.Sequences, len(dag.Leaves))
	}
	for _, l := range dag.Leaves {
		for _, op := range l.State.Ops() {
			if op.Size() != 1 {
				t.Errorf("pair deletion %s leaked into the support", op)
			}
		}
	}
}

type singlesOnly struct{}

func (singlesOnly) Name() string { return "singles-only" }
func (singlesOnly) Transitions(_ *repair.State, exts []ops.Op) ([]*big.Rat, error) {
	var n int64
	for _, op := range exts {
		if op.Size() == 1 {
			n++
		}
	}
	out := make([]*big.Rat, len(exts))
	for i, op := range exts {
		if op.Size() == 1 {
			out[i] = big.NewRat(1, n)
		} else {
			out[i] = new(big.Rat)
		}
	}
	return out, nil
}

// TestHittingDistributionKeys: Explore merges the tree's leaves by result
// database, and each leaf's key is its database's key.
func TestHittingDistributionKeys(t *testing.T) {
	inst := twoConflictInstance(t)
	dist, err := markov.Explore(inst, uniformGen{}, markov.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, leaf := range dist.Leaves {
		if leaf.State.Result().Key() != leaf.Key {
			t.Errorf("distribution key mismatch: %q vs %q", leaf.Key, leaf.State.Result().Key())
		}
		if seen[leaf.Key] {
			t.Errorf("database %q appears in two leaves", leaf.Key)
		}
		seen[leaf.Key] = true
	}
	if len(seen) != 9 {
		t.Fatalf("distribution over %d databases, want 9", len(seen))
	}
}

func TestBuildTreeBudget(t *testing.T) {
	inst := twoConflictInstance(t)
	if _, err := markov.BuildTree(inst, uniformGen{}, markov.ExploreOptions{MaxStates: 3}); err == nil {
		t.Error("expected ErrStateBudget")
	}
	tree, err := markov.BuildTree(inst, uniformGen{}, markov.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var leaves func(n *markov.Node) int
	leaves = func(n *markov.Node) int {
		if n.IsLeaf() {
			return 1
		}
		total := 0
		for _, c := range n.Children {
			total += leaves(c.Node)
		}
		return total
	}
	if got := leaves(tree); got != 18 {
		t.Errorf("tree leaves = %d, want 18", got)
	}
	// CountStates = 1 root + 6 + 18.
	if got := tree.CountStates(); got != 25 {
		t.Errorf("CountStates = %d, want 25", got)
	}
}

// TestPathProbabilityIsEdgeProduct: each leaf's Pi equals the product of
// edge probabilities along its path.
func TestPathProbabilityIsEdgeProduct(t *testing.T) {
	inst := twoConflictInstance(t)
	tree, err := markov.BuildTree(inst, uniformGen{}, markov.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var walk func(n *markov.Node, acc *big.Rat)
	walk = func(n *markov.Node, acc *big.Rat) {
		if n.Pi.Cmp(acc) != 0 {
			t.Errorf("state %s: Pi = %s, product = %s", n.State, n.Pi.RatString(), acc.RatString())
		}
		for _, c := range n.Children {
			walk(c.Node, new(big.Rat).Mul(acc, c.P))
		}
	}
	walk(tree, prob.One())
}
