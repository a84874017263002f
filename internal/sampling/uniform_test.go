package sampling_test

import (
	"fmt"
	"math/big"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fo"
	"repro/internal/generators"
	"repro/internal/logic"
	"repro/internal/markov"
	"repro/internal/ops"
	"repro/internal/prob"
	"repro/internal/repair"
	"repro/internal/sampling"
	"repro/internal/workload"
)

func edgeQuery() *fo.Query {
	x, y := logic.Var("x"), logic.Var("y")
	return fo.MustQuery("Q", []logic.Term{x, y}, fo.Atom{A: logic.NewAtom("E", x, y)})
}

func keysUniformQuery() *fo.Query {
	x, y := logic.Var("x"), logic.Var("y")
	return fo.MustQuery("Keys", []logic.Term{x},
		fo.Exists{Vars: []logic.Term{y}, F: fo.Atom{A: logic.NewAtom("R", x, y)}})
}

// TestUniformEstimatorWithinHoeffding: the count-guided uniform estimator
// draws exactly uniform sequences, so the Theorem 9 additive (ε,δ) bound
// applies to the uniform semantics. Check against the exact uniform CP on
// factorizing key instances and on the chain family, with the seed fixed
// and the tolerance at the guarantee's ε.
func TestUniformEstimatorWithinHoeffding(t *testing.T) {
	const eps, delta = 0.1, 0.05
	cases := []struct {
		label string
		inst  *repair.Instance
		q     *fo.Query
	}{}
	for _, keys := range []int{2, 4, 6} {
		d, sigma := workload.KeyViolations(workload.KeyConfig{Keys: keys, Violations: keys, Seed: 3})
		cases = append(cases, struct {
			label string
			inst  *repair.Instance
			q     *fo.Query
		}{fmt.Sprintf("keys=%d", keys), repair.MustInstance(d, sigma), keysUniformQuery()})
	}
	for _, facts := range []int{3, 6} {
		d, sigma := workload.Chain(workload.ChainConfig{Facts: facts})
		cases = append(cases, struct {
			label string
			inst  *repair.Instance
			q     *fo.Query
		}{fmt.Sprintf("chain=%d", facts), repair.MustInstance(d, sigma), edgeQuery()})
	}
	for _, tc := range cases {
		exact, err := core.ComputeMode(tc.inst, generators.Uniform{}, markov.ExploreOptions{}, core.SequenceUniform)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		est := &sampling.Estimator{Inst: tc.inst, Gen: generators.Uniform{}, Seed: 11, Mode: core.SequenceUniform}
		run, err := est.EstimateAnswers(tc.q, eps, delta)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		if run.Weighted {
			t.Fatalf("%s: collapsible chain took the SNIS fallback", tc.label)
		}
		if run.TotalSequences == nil || run.TotalSequences.Cmp(exact.TotalSequences) != 0 {
			t.Fatalf("%s: sampler support %v, exact %s", tc.label, run.TotalSequences, exact.TotalSequences)
		}
		for _, a := range exact.OCA(tc.q).Answers {
			got := run.Lookup(a.Tuple).Conditional
			if diff := prob.AbsDiff(got, a.P); diff > eps {
				t.Fatalf("%s: tuple %v: estimate %f, exact %s (diff %f > ε)", tc.label, a.Tuple, got, a.P.RatString(), diff)
			}
		}
	}
}

// uniformNoClaim behaves exactly like generators.Uniform but does not
// declare Markovian memorylessness, forcing the estimator onto the SNIS
// fallback while keeping the target distribution identical — so the
// fallback can be checked against the same exact uniform semantics.
type uniformNoClaim struct{}

func (uniformNoClaim) Name() string { return "uniform-undeclared" }

func (uniformNoClaim) Transitions(s *repair.State, exts []ops.Op) ([]*big.Rat, error) {
	return generators.Uniform{}.Transitions(s, exts)
}

// TestUniformEstimatorSNISFallback: a non-collapsible chain (the generator
// hides its memorylessness) must route through self-normalized importance
// sampling and still converge to the exact uniform semantics. SNIS has no
// finite-sample guarantee, so the check uses a large n and a loose
// tolerance, plus the Run metadata contract.
func TestUniformEstimatorSNISFallback(t *testing.T) {
	d, sigma := workload.Chain(workload.ChainConfig{Facts: 4})
	inst := repair.MustInstance(d, sigma)
	q := edgeQuery()
	exact, err := core.ComputeMode(inst, uniformNoClaim{}, markov.ExploreOptions{}, core.SequenceUniform)
	if err != nil {
		t.Fatal(err)
	}
	est := &sampling.Estimator{Inst: inst, Gen: uniformNoClaim{}, Seed: 5, Mode: core.SequenceUniform}
	run, err := est.EstimateWithN(q, 6000)
	if err != nil {
		t.Fatal(err)
	}
	if !run.Weighted {
		t.Fatal("non-collapsible chain must take the weighted SNIS path")
	}
	if run.TotalSequences != nil {
		t.Fatal("SNIS runs must not claim an exact support size")
	}
	if run.ESS <= 0 || run.ESS > float64(run.N) {
		t.Fatalf("ESS = %f out of (0, N]", run.ESS)
	}
	for _, a := range exact.OCA(q).Answers {
		got := run.Lookup(a.Tuple).Conditional
		if diff := prob.AbsDiff(got, a.P); diff > 0.05 {
			t.Fatalf("tuple %v: SNIS estimate %f, exact %s (diff %f)", a.Tuple, got, a.P.RatString(), diff)
		}
	}
}

// TestUniformEstimatorDeterministicAcrossWorkerCounts: both uniform paths
// must produce bit-identical Runs for every worker count — the count-guided
// path via per-walk RNGs, the SNIS path additionally via the index-ordered
// floating-point merge.
func TestUniformEstimatorDeterministicAcrossWorkerCounts(t *testing.T) {
	d, sigma := workload.KeyViolations(workload.KeyConfig{Keys: 5, Violations: 4, Seed: 9})
	inst := repair.MustInstance(d, sigma)
	q := keysUniformQuery()
	for _, gen := range []markov.Generator{generators.Uniform{}, uniformNoClaim{}} {
		var base *sampling.Run
		for workers := 1; workers <= 8; workers++ {
			est := &sampling.Estimator{
				Inst: inst, Gen: gen, Seed: 23, Workers: workers,
				Mode: core.SequenceUniform,
			}
			run, err := est.EstimateWithN(q, 301)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", gen.Name(), workers, err)
			}
			if base == nil {
				base = run
				continue
			}
			if !reflect.DeepEqual(base, run) {
				t.Fatalf("%s: workers=%d differs from workers=1", gen.Name(), workers)
			}
		}
	}
}

// TestUniformEstimatorMatchesWalkModeOnSymmetric: on a perfectly symmetric
// instance the walk-induced and uniform semantics coincide, so the two
// estimator modes must agree within sampling noise — a cheap cross-check
// that the uniform path estimates the right thing.
func TestUniformEstimatorMatchesWalkModeOnSymmetric(t *testing.T) {
	d, sigma := workload.KeyViolations(workload.KeyConfig{Keys: 1, Violations: 1, Seed: 1})
	inst := repair.MustInstance(d, sigma)
	q := keysUniformQuery()
	walk := &sampling.Estimator{Inst: inst, Gen: generators.Uniform{}, Seed: 3}
	uni := &sampling.Estimator{Inst: inst, Gen: generators.Uniform{}, Seed: 3, Mode: core.SequenceUniform}
	rw, err := walk.EstimateWithN(q, 2000)
	if err != nil {
		t.Fatal(err)
	}
	ru, err := uni.EstimateWithN(q, 2000)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rw.Estimates {
		if diff := e.P - ru.Lookup(e.Tuple).P; diff > 0.05 || diff < -0.05 {
			t.Fatalf("tuple %v: walk %f vs uniform %f", e.Tuple, e.P, ru.Lookup(e.Tuple).P)
		}
	}
}

// TestWalksLeaveRootCachesUntouched: walks step in place, and their first
// step starts from the instance's shared root caches (the root violation
// set and extension list). After a 4-worker walk-mode run and a uniform
// run on the same instance — count-guided on the TGD-free instances, the
// SNIS fallback over per-worker walk trees, whose misses replay their
// path from a fresh root, on the inclusion instance — the root must still
// report exactly the initial violations and extensions.
func TestWalksLeaveRootCachesUntouched(t *testing.T) {
	x, y := logic.Var("x"), logic.Var("y")
	for _, tc := range []struct {
		name string
		inst *repair.Instance
		q    *fo.Query
	}{
		{"keys", repair.MustInstance(workload.KeyViolations(workload.KeyConfig{Keys: 10, Violations: 6, Seed: 1})), keysUniformQuery()},
		{"chain", repair.MustInstance(workload.Chain(workload.ChainConfig{Facts: 9})), edgeQuery()},
		{"inclusion", repair.MustInstance(workload.Inclusion(workload.InclusionConfig{Rows: 4, MissingRate: 0.5, Seed: 1})),
			fo.MustQuery("Q", []logic.Term{x, y}, fo.Atom{A: logic.NewAtom("R", x, y)})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snapshot := func() (vios, exts []string) {
				root := tc.inst.Root()
				vios = root.Violations().Keys()
				for _, op := range root.Extensions() {
					exts = append(exts, op.Key())
				}
				return vios, exts
			}
			wantVios, wantExts := snapshot()
			if len(wantVios) == 0 || len(wantExts) == 0 {
				t.Fatal("instance has no conflicts; the test would be vacuous")
			}
			for _, mode := range []markov.SemanticsMode{markov.WalkInduced, markov.SequenceUniform} {
				est := &sampling.Estimator{Inst: tc.inst, Gen: generators.Uniform{}, Seed: 3, Workers: 4, MaxSteps: 100, Mode: mode}
				// A walk over a corrupted root cache can loop on a deletion
				// that no longer changes anything; MaxSteps turns that into
				// an error, and the caches are compared regardless.
				if _, err := est.EstimateWithN(tc.q, 300); err != nil {
					t.Errorf("%v run: %v", mode, err)
				}
			}
			gotVios, gotExts := snapshot()
			if !reflect.DeepEqual(gotVios, wantVios) {
				t.Errorf("root violations changed by the walks:\n got %v\nwant %v", gotVios, wantVios)
			}
			if !reflect.DeepEqual(gotExts, wantExts) {
				t.Errorf("root extensions changed by the walks:\n got %v\nwant %v", gotExts, wantExts)
			}
		})
	}
}
