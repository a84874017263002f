package markov_test

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/constraint"
	"repro/internal/generators"
	"repro/internal/logic"
	"repro/internal/markov"
	"repro/internal/ops"
	"repro/internal/prob"
	"repro/internal/relation"
	"repro/internal/repair"
	"repro/internal/workload"
)

// memorylessUniform is uniformGen plus the Markovian declaration, the
// minimal collapsible generator for this package's tests.
type memorylessUniform struct{ uniformGen }

func (memorylessUniform) Memoryless() bool { return true }

func tgdInstance(t *testing.T) *repair.Instance {
	t.Helper()
	d := relation.FromFacts(f("R", "a"))
	tgd := constraint.MustTGD([]logic.Atom{at("R", v("x"))}, []logic.Atom{at("T", v("x"))})
	return repair.MustInstance(d, constraint.NewSet(tgd))
}

func TestCollapsible(t *testing.T) {
	egd := twoConflictInstance(t)
	if markov.Collapsible(egd, uniformGen{}) {
		t.Error("generator without Markovian must not collapse")
	}
	if !markov.Collapsible(egd, memorylessUniform{}) {
		t.Error("memoryless generator over EGDs must collapse")
	}
	if markov.Collapsible(tgdInstance(t), memorylessUniform{}) {
		t.Error("TGDs make state histories significant; must not collapse")
	}
}

func TestExploreDAGRejectsNonCollapsible(t *testing.T) {
	if _, err := markov.ExploreDAG(twoConflictInstance(t), uniformGen{}, markov.ExploreOptions{}); !errors.Is(err, markov.ErrNotCollapsible) {
		t.Errorf("err = %v, want ErrNotCollapsible", err)
	}
	if _, err := markov.ExploreDAG(tgdInstance(t), memorylessUniform{}, markov.ExploreOptions{}); !errors.Is(err, markov.ErrNotCollapsible) {
		t.Errorf("err = %v, want ErrNotCollapsible", err)
	}
}

// TestExploreDAGCollapse pins the exact DAG shape of the two-conflict
// instance: the tree has 18 absorbing sequences over 25 sequence states,
// the DAG has 9 absorbing databases over 16 distinct databases (each of the
// two conflicts is untouched or in one of 3 resolutions: 4² states, 3²
// leaves), with 3j outgoing edges per state with j unresolved conflicts
// (1·6 + 6·3 = 24 edges).
func TestExploreDAGCollapse(t *testing.T) {
	dag, err := markov.ExploreDAG(twoConflictInstance(t), memorylessUniform{}, markov.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if dag.States != 16 {
		t.Errorf("States = %d, want 16", dag.States)
	}
	if len(dag.Leaves) != 9 {
		t.Errorf("leaves = %d, want 9", len(dag.Leaves))
	}
	if dag.Edges != 24 {
		t.Errorf("Edges = %d, want 24", dag.Edges)
	}
	if dag.Sequences.Cmp(big.NewInt(18)) != 0 {
		t.Errorf("Sequences = %s, want 18 (the tree's leaf count)", dag.Sequences)
	}
	total := prob.Zero()
	seqs := new(big.Int)
	for _, l := range dag.Leaves {
		total.Add(total, l.Pi)
		seqs.Add(seqs, l.Sequences)
		if !l.State.IsComplete() {
			t.Errorf("leaf %s is not complete", l.State)
		}
		if l.Key != l.State.Result().Key() {
			t.Errorf("leaf key %q does not match its database's key", l.Key)
		}
	}
	if !prob.IsOne(total) {
		t.Errorf("hitting mass = %s, want 1 (Proposition 3)", total.RatString())
	}
	if seqs.Cmp(dag.Sequences) != 0 {
		t.Errorf("leaf sequence counts sum to %s, want %s", seqs, dag.Sequences)
	}
}

// TestExploreDAGMatchesTreeAggregation: the sequence tree's leaves, merged
// by result database, reproduce exactly the DAG's leaf masses and sequence
// counts.
func TestExploreDAGMatchesTreeAggregation(t *testing.T) {
	inst := twoConflictInstance(t)
	dag, err := markov.ExploreDAG(inst, memorylessUniform{}, markov.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := markov.Explore(inst, uniformGen{}, markov.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	byDB := map[string]markov.DAGLeaf{}
	for _, l := range tree.Leaves {
		byDB[l.Key] = l
	}
	if len(byDB) != len(dag.Leaves) {
		t.Fatalf("tree aggregates to %d databases, DAG has %d leaves", len(byDB), len(dag.Leaves))
	}
	for _, l := range dag.Leaves {
		a, ok := byDB[l.Key]
		if !ok {
			t.Fatalf("DAG leaf %s missing from tree aggregation", l.State.Result())
		}
		if a.Pi.Cmp(l.Pi) != 0 {
			t.Errorf("leaf %s: DAG mass %s, tree mass %s", l.State.Result(), l.Pi.RatString(), a.Pi.RatString())
		}
		if l.Sequences.Cmp(a.Sequences) != 0 {
			t.Errorf("leaf %s: DAG sequences %s, tree %s", l.State.Result(), l.Sequences, a.Sequences)
		}
	}
	if tree.Sequences.Cmp(dag.Sequences) != 0 {
		t.Errorf("tree sequences %s, DAG %s", tree.Sequences, dag.Sequences)
	}
}

// fiveConflictInstance has five independent key conflicts: 4^5 distinct
// databases, with frontier levels wider than the inline-expansion
// threshold, so the worker pool really runs.
func fiveConflictInstance(t *testing.T) *repair.Instance {
	t.Helper()
	d := relation.NewDatabase()
	for i := 0; i < 5; i++ {
		k := fmt.Sprintf("k%d", i)
		d.Insert(f("R", k, "1"))
		d.Insert(f("R", k, "2"))
	}
	eta := constraint.MustEGD(
		[]logic.Atom{at("R", v("x"), v("y")), at("R", v("x"), v("z"))},
		v("y"), v("z"),
	)
	return repair.MustInstance(d, constraint.NewSet(eta))
}

// preferenceInstance is a random preference table under the asymmetry
// denial, for generators.Preference: its weights read the state's
// database and violations, so every interior state of its sweep is built.
func preferenceInstance(t *testing.T) *repair.Instance {
	t.Helper()
	return repair.MustInstance(workload.Preferences(workload.PreferenceConfig{
		Products: 6, Prefs: 14, ConflictRate: 1, Seed: 3,
	}))
}

// TestExploreDAGWorkerCountInvariant: ExploreDAG is bit-identical (same
// leaf order, same exact rationals) for every worker pool size, and so is
// the SequenceDAG built by the same sweep: same total, shape and draws from
// a fixed RNG stream. The preference case runs a generator that reads the
// state, so under -race it also checks that building deferred states on
// the workers is race-free.
func TestExploreDAGWorkerCountInvariant(t *testing.T) {
	for _, tc := range []struct {
		name string
		inst *repair.Instance
		gen  markov.Generator
	}{
		{"two-conflicts", twoConflictInstance(t), memorylessUniform{}},
		{"five-conflicts", fiveConflictInstance(t), memorylessUniform{}},
		{"preferences", preferenceInstance(t), generators.Preference{}},
	} {
		name, inst, gen := tc.name, tc.inst, tc.gen
		want, err := markov.ExploreDAG(inst, gen, markov.ExploreOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			got, err := markov.ExploreDAG(inst, gen, markov.ExploreOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got.States != want.States || got.Edges != want.Edges || len(got.Leaves) != len(want.Leaves) {
				t.Fatalf("%s workers=%d: shape differs", name, workers)
			}
			for i, l := range got.Leaves {
				w := want.Leaves[i]
				if l.State.Result().Key() != w.State.Result().Key() ||
					l.Pi.Cmp(w.Pi) != 0 || l.Sequences.Cmp(w.Sequences) != 0 {
					t.Fatalf("%s workers=%d: leaf %d differs", name, workers, i)
				}
			}
		}

		var wantDraws []string
		for _, workers := range []int{1, 2, 8} {
			sd, err := markov.BuildSequenceDAG(inst, gen, markov.ExploreOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if sd.Total().Cmp(want.Sequences) != 0 || sd.States() != want.States || sd.Edges() != want.Edges {
				t.Fatalf("%s workers=%d: sequence DAG total %s states %d edges %d, want %s, %d, %d",
					name, workers, sd.Total(), sd.States(), sd.Edges(), want.Sequences, want.States, want.Edges)
			}
			src := &prob.SplitMix{}
			rng := rand.New(src)
			var draws []string
			for i := 0; i < 64; i++ {
				src.ReseedAt(7, i)
				draws = append(draws, string(sd.Sample(rng, nil)))
			}
			if wantDraws == nil {
				wantDraws = draws
				continue
			}
			for i := range draws {
				if draws[i] != wantDraws[i] {
					t.Fatalf("%s workers=%d: draw %d is %q, want %q", name, workers, i, draws[i], wantDraws[i])
				}
			}
		}
	}
}

// TestExploreDAGParallelStress uses an instance wide enough that frontier
// levels exceed the inline-expansion threshold, so the worker pool really
// runs (narrow levels are expanded inline); under -race this is the
// concurrency proof for parallel Step/Child/Extensions plus the shared
// caches they touch (instance deletion cache, violation involved-fact
// cache, interning tables).
func TestExploreDAGParallelStress(t *testing.T) {
	inst := fiveConflictInstance(t)
	want, err := markov.ExploreDAG(inst, memorylessUniform{}, markov.ExploreOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want.States != 1024 || len(want.Leaves) != 243 {
		t.Fatalf("states = %d leaves = %d, want 4^5 and 3^5", want.States, len(want.Leaves))
	}
	got, err := markov.ExploreDAG(inst, memorylessUniform{}, markov.ExploreOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range got.Leaves {
		w := want.Leaves[i]
		if l.State.Result().Key() != w.State.Result().Key() ||
			l.Pi.Cmp(w.Pi) != 0 || l.Sequences.Cmp(w.Sequences) != 0 {
			t.Fatalf("leaf %d differs between 1 and 8 workers", i)
		}
	}
}

func TestExploreDAGBudget(t *testing.T) {
	if _, err := markov.ExploreDAG(twoConflictInstance(t), memorylessUniform{}, markov.ExploreOptions{MaxStates: 3}); !errors.Is(err, markov.ErrStateBudget) {
		t.Errorf("ExploreDAG: err = %v, want ErrStateBudget", err)
	}
	if _, err := markov.BuildSequenceDAG(twoConflictInstance(t), memorylessUniform{}, markov.ExploreOptions{MaxStates: 3}); !errors.Is(err, markov.ErrStateBudget) {
		t.Errorf("BuildSequenceDAG: err = %v, want ErrStateBudget", err)
	}
}

func TestExploreDAGConsistentRoot(t *testing.T) {
	d := relation.FromFacts(f("R", "a", "1"))
	eta := constraint.MustEGD(
		[]logic.Atom{at("R", v("x"), v("y")), at("R", v("x"), v("z"))},
		v("y"), v("z"),
	)
	inst := repair.MustInstance(d, constraint.NewSet(eta))
	dag, err := markov.ExploreDAG(inst, memorylessUniform{}, markov.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if dag.States != 1 || len(dag.Leaves) != 1 {
		t.Fatalf("consistent root: states = %d leaves = %d, want 1 and 1", dag.States, len(dag.Leaves))
	}
	if !prob.IsOne(dag.Leaves[0].Pi) {
		t.Errorf("root mass = %s, want 1", dag.Leaves[0].Pi.RatString())
	}
}

// TestHittingDistributionCollapses: on a collapsible chain the tree walk
// and the DAG sweep return the same hitting distribution over databases,
// summing to 1, while the DAG visits fewer states.
func TestHittingDistributionCollapses(t *testing.T) {
	inst := twoConflictInstance(t)
	tree, err := markov.Explore(inst, memorylessUniform{}, markov.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dag, err := markov.ExploreDAG(inst, memorylessUniform{}, markov.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Leaves) != 9 || len(dag.Leaves) != 9 {
		t.Fatalf("distributions over %d (tree) and %d (DAG) databases, want 9", len(tree.Leaves), len(dag.Leaves))
	}
	if tree.States != 25 || dag.States != 16 {
		t.Errorf("states: tree %d, DAG %d, want 25 and 16", tree.States, dag.States)
	}
	pi := map[string]*big.Rat{}
	total := prob.Zero()
	for _, leaf := range tree.Leaves {
		pi[leaf.Key] = leaf.Pi
		total.Add(total, leaf.Pi)
	}
	if !prob.IsOne(total) {
		t.Errorf("hitting mass = %s, want 1", total.RatString())
	}
	for _, leaf := range dag.Leaves {
		if p := pi[leaf.Key]; p == nil || p.Cmp(leaf.Pi) != 0 {
			t.Errorf("database %q: tree mass %v, DAG mass %s", leaf.Key, p, leaf.Pi.RatString())
		}
	}
}

// TestExploreKeyViolationsSequenceCount: on k independent key conflicts the
// tree has 3^k·k! complete sequences (3 resolutions per conflict, in any
// order); Explore's merged leaves must account for every one of them and
// for all of the hitting mass.
func TestExploreKeyViolationsSequenceCount(t *testing.T) {
	for _, tc := range []struct{ k, want int64 }{{1, 3}, {2, 18}, {3, 162}, {4, 1944}} {
		d, sigma := workload.KeyViolations(workload.KeyConfig{Keys: int(tc.k), Violations: int(tc.k), Seed: 1})
		dag, err := markov.Explore(repair.MustInstance(d, sigma), uniformGen{}, markov.ExploreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		seqs, total := new(big.Int), prob.Zero()
		for _, l := range dag.Leaves {
			seqs.Add(seqs, l.Sequences)
			total.Add(total, l.Pi)
		}
		if seqs.Int64() != tc.want || dag.Sequences.Int64() != tc.want {
			t.Errorf("k=%d: leaves sum to %s sequences (total %s), want %d", tc.k, seqs, dag.Sequences, tc.want)
		}
		if !prob.IsOne(total) {
			t.Errorf("k=%d: hitting mass = %s, want 1", tc.k, total.RatString())
		}
	}
}

// panicGen is memorylessUniform with integer weights that panic at the
// state whose database is target.
type panicGen struct {
	memorylessUniform
	target string
}

func (g panicGen) IntWeights(s *repair.State, exts []ops.Op, dst []int64) ([]int64, bool, error) {
	if s.Result().Key() == g.target {
		panic("weights exploded")
	}
	for range exts {
		dst = append(dst, 1)
	}
	return dst, true, nil
}

// TestSweepRecoversPanic: a generator that panics at one state fails the
// exploration with ErrPanicked, naming the state and the panic, instead of
// killing the process — on the inline path (one worker) and on the
// worker goroutines alike, and for both users of the sweep. The state sits
// two deletions down the five-conflict chain, on a level wide enough for
// the pool to fan out.
func TestSweepRecoversPanic(t *testing.T) {
	inst := fiveConflictInstance(t)
	db := inst.Initial().Clone()
	db.Delete(f("R", "k0", "1"))
	db.Delete(f("R", "k3", "2"))
	g := panicGen{target: db.Key()}
	for _, workers := range []int{1, 4} {
		opt := markov.ExploreOptions{Workers: workers}
		_, err := markov.ExploreDAG(inst, g, opt)
		_, serr := markov.BuildSequenceDAG(inst, g, opt)
		for _, err := range []error{err, serr} {
			if !errors.Is(err, markov.ErrPanicked) {
				t.Fatalf("workers=%d: err = %v, want ErrPanicked", workers, err)
			}
			msg := err.Error()
			if !strings.Contains(msg, "weights exploded") || !strings.Contains(msg, "R(k0, 1)") || !strings.Contains(msg, "R(k3, 2)") {
				t.Fatalf("workers=%d: error does not name the panic and its state: %v", workers, err)
			}
		}
	}
}
