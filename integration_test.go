package repro

// Integration tests exercising the full pipeline across modules: text
// formats → instance construction → chain semantics → query answering →
// approximation → classical baseline. Each test is a miniature end-to-end
// scenario.

import (
	"math"
	"math/big"
	"testing"

	"repro/internal/abc"
	"repro/internal/core"
	"repro/internal/generators"
	"repro/internal/markov"
	"repro/internal/parse"
	"repro/internal/prob"
	"repro/internal/repair"
	"repro/internal/sampling"
	"repro/internal/workload"
)

// TestEndToEndEmployee: parse everything from text, compute exact and
// sampled answers, and compare against the classical certain answers.
func TestEndToEndEmployee(t *testing.T) {
	db, err := parse.Database(`
		emp(alice, sales). emp(bob, engineering).
		emp(eve, marketing). emp(eve, support).
	`)
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := parse.Constraints(`emp(X, Y), emp(X, Z) -> Y = Z.`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := parse.Query(`Dept(D) := exists X: emp(X, D).`)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := repair.NewInstance(db, sigma)
	if err != nil {
		t.Fatal(err)
	}

	sem, err := core.Compute(inst, generators.Uniform{}, markov.ExploreOptions{MaxStates: 100000})
	if err != nil {
		t.Fatal(err)
	}
	oca := sem.OCA(q)
	// sales/engineering certain; marketing/support 1/3 each (keep-m,
	// keep-s, drop-both are the three equiprobable outcomes).
	third := big.NewRat(1, 3)
	for _, tc := range []struct {
		dept string
		want *big.Rat
	}{
		{"sales", prob.One()},
		{"engineering", prob.One()},
		{"marketing", third},
		{"support", third},
	} {
		if got := oca.Lookup([]string{tc.dept}); got.Cmp(tc.want) != 0 {
			t.Errorf("CP(%s) = %s, want %s", tc.dept, got.RatString(), tc.want.RatString())
		}
	}

	// The classical baseline returns exactly the certain departments.
	certain, err := abc.CertainAnswers(inst.Initial(), sigma, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(certain) != 2 {
		t.Errorf("ABC certain answers = %v, want [engineering sales]", certain)
	}
	// Operational certainty (CP = 1) agrees with the baseline here.
	if got := sem.Certain(q); len(got) != 2 {
		t.Errorf("operational certain = %v", got)
	}

	// And the sampler lands within ε of the exact values.
	est := &sampling.Estimator{Inst: inst, Gen: generators.Uniform{}, Seed: 21}
	run, err := est.EstimateAnswers(q, 0.1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range run.Estimates {
		exact := oca.Lookup(e.Tuple)
		if diff := prob.AbsDiff(e.P, exact); diff > 0.1 {
			t.Errorf("estimate for %v off by %.3f", e.Tuple, diff)
		}
	}
}

// TestEndToEndInclusionDependency: a TGD instance repaired with both
// insertions and deletions; the uniform chain mixes both kinds and mass is
// conserved.
func TestEndToEndInclusionDependency(t *testing.T) {
	db, err := parse.Database(`
		orders(o1, alice). orders(o2, bob).
		customer(alice).
	`)
	if err != nil {
		t.Fatal(err)
	}
	// Every order needs a known customer.
	sigma, err := parse.Constraints(`orders(X, Y) -> customer(Y).`)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := repair.NewInstance(db, sigma)
	if err != nil {
		t.Fatal(err)
	}
	sem, err := core.Compute(inst, generators.Uniform{}, markov.ExploreOptions{MaxStates: 100000})
	if err != nil {
		t.Fatal(err)
	}
	// Two repairs: delete orders(o2,bob), or insert customer(bob).
	if len(sem.Repairs) != 2 {
		t.Fatalf("repairs = %d, want 2", len(sem.Repairs))
	}
	if !prob.IsOne(sem.SuccessP) {
		t.Errorf("success mass = %s (this instance has no failing sequences)", sem.SuccessP.RatString())
	}
	q, err := parse.Query(`Q(Y) := customer(Y).`)
	if err != nil {
		t.Fatal(err)
	}
	oca := sem.OCA(q)
	if got := oca.Lookup([]string{"alice"}); !prob.IsOne(got) {
		t.Errorf("CP(alice) = %s, want 1", got.RatString())
	}
	bob := oca.Lookup([]string{"bob"})
	if bob.Sign() <= 0 || prob.IsOne(bob) {
		t.Errorf("CP(bob) = %s, want strictly between 0 and 1", bob.RatString())
	}
}

// TestEndToEndDenialWithSampling: DC instance, trust chain, factored vs
// walk-sampled estimates all consistent.
func TestEndToEndDenialWithSampling(t *testing.T) {
	db, err := parse.Database(`
		claim(src1, fact1). claim(src2, fact1).
		claim(src1, fact2).
	`)
	if err != nil {
		t.Fatal(err)
	}
	// Two sources may not both claim the same fact.
	sigma, err := parse.Constraints(`
		claim(X, F), claim(Y, F), X != Y -> false.
	`)
	if err == nil {
		t.Fatal("inequality in constraint bodies is not supported; expected a parse error")
	}
	// Express it instead with a DC over distinct source constants.
	sigma, err = parse.Constraints(`!(claim(src1, F), claim(src2, F)).`)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := repair.NewInstance(db, sigma)
	if err != nil {
		t.Fatal(err)
	}
	sem, err := core.Compute(inst, generators.Uniform{}, markov.ExploreOptions{MaxStates: 100000})
	if err != nil {
		t.Fatal(err)
	}
	q, err := parse.Query(`Q(F) := exists S: claim(S, F).`)
	if err != nil {
		t.Fatal(err)
	}
	oca := sem.OCA(q)
	if got := oca.Lookup([]string{"fact2"}); !prob.IsOne(got) {
		t.Errorf("CP(fact2) = %s, want 1", got.RatString())
	}
	// fact1 survives unless both claims are deleted: 2/3 under uniform.
	if got := oca.Lookup([]string{"fact1"}); got.Cmp(big.NewRat(2, 3)) != 0 {
		t.Errorf("CP(fact1) = %s, want 2/3", got.RatString())
	}

	est := &sampling.Estimator{Inst: inst, Gen: generators.Uniform{}, Seed: 17}
	run, err := est.EstimateWithN(q, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(run.Lookup([]string{"fact1"}).P - 2.0/3); diff > 0.03 {
		t.Errorf("sampled CP(fact1) off by %.3f", diff)
	}
}

// TestEndToEndFactoredAgainstWalks: on a multi-component instance the three
// estimation routes (exact factored, factored sampling, chain walks) agree.
func TestEndToEndFactoredAgainstWalks(t *testing.T) {
	db, err := parse.Database(`
		R(k1, a). R(k1, b).
		R(k2, c). R(k2, d).
		R(k3, e).
	`)
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := parse.Constraints(`R(X, Y), R(X, Z) -> Y = Z.`)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := repair.NewInstance(db, sigma)
	if err != nil {
		t.Fatal(err)
	}
	q, err := parse.Query(`Q(K, V) := R(K, V).`)
	if err != nil {
		t.Fatal(err)
	}

	fac, err := core.ComputeFactored(inst, generators.Uniform{}, markov.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := fac.CP(q, []string{"k1", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Cmp(big.NewRat(1, 3)) != 0 {
		t.Errorf("factored CP(k1,a) = %s, want 1/3", exact.RatString())
	}

	est := &sampling.Estimator{Inst: inst, Gen: generators.Uniform{}, Seed: 3}
	run, err := est.EstimateWithN(q, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if diff := prob.AbsDiff(run.Lookup([]string{"k1", "a"}).P, exact); diff > 0.03 {
		t.Errorf("walk estimate off by %.3f", diff)
	}

	facEst, err := fac.EstimateCP(q, []string{"k1", "a"}, 0.05, 0.05, 9)
	if err != nil {
		t.Fatal(err)
	}
	if diff := prob.AbsDiff(facEst, exact); diff > 0.05 {
		t.Errorf("factored estimate off by %.3f", diff)
	}
}

// TestEndToEndIslandsAtScale: a reduced-scale E18 — tens of thousands of
// facts across thousands of conflict islands, answered exactly by the
// parallel memoized factored engine, with the structural cache doing almost
// all of the work.
func TestEndToEndIslandsAtScale(t *testing.T) {
	cfg := workload.IslandsConfig{Islands: 1000, FactsPerIsland: 10, IsoRatio: 0.9, Seed: 18}
	d, sigma := workload.Islands(cfg)
	inst, err := repair.NewInstance(d, sigma)
	if err != nil {
		t.Fatal(err)
	}
	fac, err := core.ComputeFactored(inst, generators.Uniform{}, markov.ExploreOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if fac.Partition().Len() != cfg.Islands {
		t.Fatalf("components = %d, want %d", fac.Partition().Len(), cfg.Islands)
	}
	// Every island, canonical or shuffled, is a directed 10-edge path, so
	// all of them share one canonical cache key: a single exploration.
	if fac.CacheHits+fac.CacheMisses != cfg.Islands {
		t.Fatalf("cache hits+misses = %d, want %d", fac.CacheHits+fac.CacheMisses, cfg.Islands)
	}
	if fac.CacheMisses != 1 {
		t.Errorf("cache misses = %d; want 1 (all islands are isomorphic)", fac.CacheMisses)
	}

	q, err := parse.Query(`Q(X, Y) := E(X, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	end := []string{"i00000000_n000", "i00000000_n001"}
	mid := []string{"i00000000_n004", "i00000000_n005"}
	cpEnd, err := fac.CP(q, end)
	if err != nil {
		t.Fatal(err)
	}
	cpMid, err := fac.CP(q, mid)
	if err != nil {
		t.Fatal(err)
	}
	if !prob.InUnit(cpEnd) || cpEnd.Sign() == 0 || !prob.InUnit(cpMid) || cpMid.Sign() == 0 {
		t.Fatalf("CPs outside (0,1]: end %s, mid %s", cpEnd.RatString(), cpMid.RatString())
	}
	// The end fact of a chain sits in one violation, the middle fact in two:
	// the end fact survives strictly more repairs.
	if cpEnd.Cmp(cpMid) <= 0 {
		t.Errorf("CP(end) = %s not above CP(mid) = %s", cpEnd.RatString(), cpMid.RatString())
	}
	// Sequential recomputation is bit-identical.
	seq, err := core.ComputeFactored(inst, generators.Uniform{}, markov.ExploreOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	seqEnd, err := seq.CP(q, end)
	if err != nil {
		t.Fatal(err)
	}
	if seqEnd.Cmp(cpEnd) != 0 {
		t.Errorf("workers=8 CP %s != workers=1 CP %s", cpEnd.RatString(), seqEnd.RatString())
	}
}
