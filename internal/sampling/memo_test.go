package sampling

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/fo"
	"repro/internal/generators"
	"repro/internal/logic"
	"repro/internal/markov"
	"repro/internal/ops"
	"repro/internal/prob"
	"repro/internal/relation"
	"repro/internal/repair"
	"repro/internal/workload"
)

// withMemoEntries runs fn with the walk-tree budget set to n (0 turns the
// memo off) and restores it afterwards.
func withMemoEntries(n int, fn func()) {
	old := memoEntries
	memoEntries = n
	defer func() { memoEntries = old }()
	fn()
}

// memoCase is a TGD instance the walk tree applies to, with a query whose
// answers include facts the walks insert.
type memoCase struct {
	name string
	inst *repair.Instance
	q    *fo.Query
	gen  markov.Generator
}

func memoCases(t testing.TB) []memoCase {
	t.Helper()
	x, y, z, w := v("X"), v("Y"), v("Z"), v("W")
	rq := fo.MustQuery("Q", []logic.Term{x, y}, fo.Atom{A: at("R", x, y)})
	sq := fo.MustQuery("Q", []logic.Term{y, z}, fo.Atom{A: at("S", y, z)})

	// Inclusion with grounded additions: half the rows dangle.
	var inc *relation.Database
	var incSigma *constraint.Set
	for i := int64(0); inc == nil || inc.Size() != 6; i++ {
		inc, incSigma = workload.Inclusion(workload.InclusionConfig{Rows: 4, MissingRate: 0.5, Seed: 1 + 1000*i})
	}
	grounded := repair.MustInstance(inc, incSigma)

	// Null insertions through a two-level chase R → S → T.
	chain := constraint.NewSet(
		constraint.MustTGD([]logic.Atom{at("R", x, y)}, []logic.Atom{at("S", y, z)}),
		constraint.MustTGD([]logic.Atom{at("S", y, z)}, []logic.Atom{at("T", z, w)}),
	)
	nullDB := relation.FromFacts(f("R", "a", "b"), f("R", "c", "d"), f("S", "d", "e"), f("R", "e", "b"))
	nulls, err := repair.NewInstanceOpts(nullDB, chain, repair.Options{NullInsertions: true})
	if err != nil {
		t.Fatal(err)
	}

	return []memoCase{
		{"inclusion-grounded", grounded, rq, generators.Uniform{}},
		{"inclusion-grounded-deletions", grounded, rq, generators.UniformDeletions{}},
		{"inclusion-grounded-inserted", grounded, sq, generators.Uniform{}},
		{"nulls-chase", nulls, sq, generators.Uniform{}},
		{"tgd-egd-failing", failingTGDEGD(), fo.MustQuery("Q", []logic.Term{x}, fo.Atom{A: at("B", x)}), generators.Uniform{}},
	}
}

// failingTGDEGD is D = {A(a), A(b)} under A(x) → B(x) and the EGD
// B(x), B(y) → x = y. Adding both B(a) and B(b) violates the EGD with two
// added facts, which no operation may delete again (Definition 4 forbids
// cancelling an addition), so those sequences fail.
func failingTGDEGD() *repair.Instance {
	x, y := v("X"), v("Y")
	sigma := constraint.NewSet(
		constraint.MustTGD([]logic.Atom{at("A", x)}, []logic.Atom{at("B", x)}),
		constraint.MustEGD([]logic.Atom{at("B", x), at("B", y)}, x, y),
	)
	return repair.MustInstance(relation.FromFacts(f("A", "a"), f("A", "b")), sigma)
}

// TestWalkMemoMatchesLiveRuns: on TGD instances every estimator worker
// keeps a walk tree; its Runs must equal, field for field, the live
// walkers' — walk mode and the SNIS fallback, Workers 1–8, with the
// default budget and with a budget a handful of nodes exhaust.
func TestWalkMemoMatchesLiveRuns(t *testing.T) {
	for _, tc := range memoCases(t) {
		for _, mode := range []markov.SemanticsMode{markov.WalkInduced, markov.SequenceUniform} {
			run := func(workers int) *Run {
				t.Helper()
				est := &Estimator{Inst: tc.inst, Gen: tc.gen, Seed: 17, Workers: workers, Mode: mode}
				r, err := est.EstimateWithN(tc.q, 301)
				if err != nil {
					t.Fatalf("%s %v workers=%d: %v", tc.name, mode, workers, err)
				}
				return r
			}
			var live *Run
			withMemoEntries(0, func() { live = run(1) })
			if mode == markov.SequenceUniform && !live.Weighted {
				t.Fatalf("%s: TGD instance must take the SNIS fallback", tc.name)
			}
			if tc.name == "tgd-egd-failing" && live.FailingWalks == 0 {
				t.Fatalf("%s: no failing walks; the case would not cover them", tc.name)
			}
			for _, budget := range []int{memoEntries, 7} {
				withMemoEntries(budget, func() {
					for workers := 1; workers <= 8; workers++ {
						if got := run(workers); !reflect.DeepEqual(got, live) {
							t.Fatalf("%s %v budget=%d workers=%d: memoized run differs from live:\n got %+v\nwant %+v",
								tc.name, mode, budget, workers, got, live)
						}
					}
				})
			}
		}
	}
}

// TestWalkMemoKeepsWithinBudget: a walk tree never keeps more entries
// than its budget, and the entries it reports spending are the ones it
// holds.
func TestWalkMemoKeepsWithinBudget(t *testing.T) {
	tc := memoCases(t)[2] // grounded inclusion, answers include inserted facts
	ans := (&Estimator{Inst: tc.inst}).answerer(tc.q)
	var count func(n *walkNode) int
	count = func(n *walkNode) int {
		if n == nil {
			return 0
		}
		c := 1 + len(n.ops) + len(n.keys)
		for _, k := range n.kids {
			c += count(k)
		}
		return c
	}
	for _, budget := range []int{1, 40, memoEntries} {
		for _, uniform := range []bool{false, true} {
			m := &walkMemo{left: budget, ans: ans, dead: ans.scratch()}
			st := newStepper(tc.inst, tc.gen, uniform, 0)
			st.memo = m
			src := &prob.SplitMix{}
			rng := rand.New(src)
			for i := 0; i < 300; i++ {
				src.ReseedAt(3, i)
				if _, err := st.walk(rng); err != nil {
					t.Fatal(err)
				}
			}
			kept := count(m.root)
			if kept > budget || kept != budget-m.left {
				t.Fatalf("budget %d, uniform=%v: tree holds %d entries, reports %d spent", budget, uniform, kept, budget-m.left)
			}
			if budget > 1 && kept == 0 {
				t.Fatalf("budget %d, uniform=%v: nothing kept", budget, uniform)
			}
		}
	}
}

// TestWalkMemoBudgetErrorAtSameWalk: with a step budget below the longest
// walk, the memoized stepper must fail exactly the walks the live one
// fails, and end every other walk in the same place.
func TestWalkMemoBudgetErrorAtSameWalk(t *testing.T) {
	d := relation.FromFacts(f("R", "k", "a"), f("R", "k", "b"), f("R", "k", "c"), f("A", "a"))
	x, y, z := v("X"), v("Y"), v("Z")
	sigma := constraint.NewSet(
		constraint.MustEGD([]logic.Atom{at("R", x, y), at("R", x, z)}, y, z),
		constraint.MustTGD([]logic.Atom{at("A", x)}, []logic.Atom{at("B", x)}),
	)
	inst := repair.MustInstance(d, sigma)
	q := fo.MustQuery("Q", []logic.Term{x, y}, fo.Atom{A: at("R", x, y)})
	est := &Estimator{Inst: inst, Gen: generators.Uniform{}}
	ans := est.answerer(q)
	const n = 200

	walkAll := func(st *stepper) (ends []string, failed []bool) {
		src := &prob.SplitMix{}
		rng := rand.New(src)
		for i := 0; i < n; i++ {
			src.ReseedAt(5, i)
			end, err := st.walk(rng)
			if err != nil {
				if !errors.Is(err, ErrWalkBudget) {
					t.Fatalf("walk %d: %v", i, err)
				}
				failed = append(failed, true)
				ends = append(ends, "")
				continue
			}
			failed = append(failed, false)
			ends = append(ends, describeEnd(end, ans))
		}
		return ends, failed
	}
	longest := 0
	for _, uniform := range []bool{false, true} {
		src := &prob.SplitMix{}
		rng := rand.New(src)
		for i := 0; i < n; i++ {
			src.ReseedAt(5, i)
			s, err := walkState(inst, uniform, rng)
			if err != nil {
				t.Fatal(err)
			}
			longest = max(longest, s.Len())
		}
	}
	for _, uniform := range []bool{false, true} {
		live := newStepper(inst, est.Gen, uniform, longest-1)
		memo := newStepper(inst, est.Gen, uniform, longest-1)
		memo.memo = &walkMemo{left: memoEntries, ans: ans, dead: ans.scratch()}
		wantEnds, wantFailed := walkAll(live)
		gotEnds, gotFailed := walkAll(memo)
		fails := 0
		for _, b := range wantFailed {
			if b {
				fails++
			}
		}
		if fails == 0 || fails == n {
			t.Fatalf("uniform=%v: %d of %d walks exceed the budget; the test needs some of each", uniform, fails, n)
		}
		if !reflect.DeepEqual(gotFailed, wantFailed) || !reflect.DeepEqual(gotEnds, wantEnds) {
			t.Fatalf("uniform=%v: memoized walks differ from live walks under MaxSteps=%d", uniform, longest-1)
		}
		mode := markov.WalkInduced
		if uniform {
			mode = markov.SequenceUniform
		}
		e := &Estimator{Inst: inst, Gen: est.Gen, Seed: 5, MaxSteps: longest - 1, Mode: mode}
		if _, err := e.EstimateWithN(q, n); !errors.Is(err, ErrWalkBudget) {
			t.Fatalf("%v estimator: err = %v, want ErrWalkBudget", mode, err)
		}
	}
}

// walkState draws one live walk and returns its final state.
func walkState(inst *repair.Instance, uniform bool, rng *rand.Rand) (*repair.State, error) {
	end, err := newStepper(inst, generators.Uniform{}, uniform, 0).walk(rng)
	return end.s, err
}

// describeEnd renders where a walk ended: success, log weight and the
// query's answers, whether the end is a kept leaf or a live state.
func describeEnd(end walkEnd, ans *answerer) string {
	out := fmt.Sprintf("success=%v logW=%v", end.success, end.logW)
	if !end.success {
		return out
	}
	if end.leaf != nil {
		return fmt.Sprint(out, end.leaf.tuples)
	}
	_, tuples := ans.appendAnswers(end, ans.scratch(), nil, nil)
	return fmt.Sprint(out, tuples)
}

// badWeights is an IntWeighter whose integer weights are not a
// distribution. Its Transitions returns the same weights as rationals,
// unnormalized, so the exact path rejects the chain too.
type badWeights struct{ kind string }

func (b badWeights) Name() string { return "bad-" + b.kind }

func (b badWeights) weights(n int) []int64 {
	ws := make([]int64, n)
	for i := range ws {
		switch b.kind {
		case "length":
			ws[i] = 1
		case "negative":
			ws[i] = 2
		case "overflow":
			ws[i] = math.MaxInt64
		case "zero":
			ws[i] = 0
		}
	}
	switch b.kind {
	case "length":
		ws = append(ws, 1)
	case "negative":
		ws[n-1] = -1 // the total stays positive
	}
	return ws
}

func (b badWeights) IntWeights(_ *repair.State, exts []ops.Op, dst []int64) ([]int64, bool, error) {
	return append(dst, b.weights(len(exts))...), true, nil
}

func (b badWeights) Transitions(_ *repair.State, exts []ops.Op) ([]*big.Rat, error) {
	var out []*big.Rat
	for _, w := range b.weights(len(exts)) {
		out = append(out, new(big.Rat).SetInt64(w))
	}
	return out, nil
}

// badWeightsDAG claims memorylessness, which routes the exact engine
// through the DAG and its small-rational edges (stepRats).
type badWeightsDAG struct{ badWeights }

func (badWeightsDAG) Memoryless() bool { return true }

// TestBadIntWeightsReportNotWellDefined: weights with a length mismatch, a
// negative entry, an int64 overflow or a zero total fall back to
// markov.Step, so every engine reports markov.ErrNotWellDefined — the
// single walk, the walk-mode estimator and the SNIS fallback, live and
// memoized, and the exact DAG engine — instead of panicking or silently
// dropping weights.
func TestBadIntWeightsReportNotWellDefined(t *testing.T) {
	keys := repair.MustInstance(relation.FromFacts(f("R", "k", "a"), f("R", "k", "b")),
		constraint.NewSet(constraint.MustEGD([]logic.Atom{at("R", v("X"), v("Y")), at("R", v("X"), v("Z"))}, v("Y"), v("Z"))))
	cases := memoCases(t)
	tgd := cases[0]
	q := fo.MustQuery("Q", []logic.Term{v("X"), v("Y")}, fo.Atom{A: at("R", v("X"), v("Y"))})
	if len(keys.Root().Extensions()) < 2 {
		t.Fatal("the overflow and negative cases need two root extensions")
	}
	for _, kind := range []string{"length", "negative", "overflow", "zero"} {
		g := badWeights{kind}
		check := func(what string, err error) {
			t.Helper()
			if !errors.Is(err, markov.ErrNotWellDefined) {
				t.Errorf("%s, %s: err = %v, want ErrNotWellDefined", kind, what, err)
			}
		}
		_, err := Walk(keys, g, rand.New(rand.NewSource(1)), 0)
		check("Walk", err)
		for _, inst := range []*repair.Instance{keys, tgd.inst} {
			for _, mode := range []markov.SemanticsMode{markov.WalkInduced, markov.SequenceUniform} {
				_, err := (&Estimator{Inst: inst, Gen: g, Seed: 1, Workers: 2, Mode: mode}).EstimateWithN(q, 20)
				check(fmt.Sprintf("estimator %v on %d facts", mode, inst.Initial().Size()), err)
			}
		}
		_, err = core.ComputeMode(keys, badWeightsDAG{g}, markov.ExploreOptions{}, core.WalkInduced)
		check("exact DAG", err)
	}
}
