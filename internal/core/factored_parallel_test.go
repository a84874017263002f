package core_test

import (
	"fmt"
	"math/big"

	"reflect"
	"repro/internal/abc"
	"repro/internal/constraint"
	"testing"

	"repro/internal/core"
	"repro/internal/fo"
	"repro/internal/generators"
	"repro/internal/logic"
	"repro/internal/markov"
	"repro/internal/prob"
	"repro/internal/relation"
	"repro/internal/repair"
	"repro/internal/workload"
)

// chainDC is the conflict-chain denial constraint ¬∃x,y,z (E(x,y) ∧ E(y,z)).
func chainDC() *constraint.Set {
	x, y, z := v("x"), v("y"), v("z")
	return constraint.NewSet(constraint.MustDC([]logic.Atom{at("E", x, y), at("E", y, z)}))
}

// islandsInstance builds a small conflict archipelago for determinism and
// cache tests.
func islandsInstance(t *testing.T, islands, factsPerIsland int, isoRatio float64, seed int64) *repair.Instance {
	t.Helper()
	d, sigma := workload.Islands(workload.IslandsConfig{
		Islands:        islands,
		FactsPerIsland: factsPerIsland,
		IsoRatio:       isoRatio,
		Seed:           seed,
	})
	return repair.MustInstance(d, sigma)
}

// repairProj is a normalized, order-insensitive projection of one repair:
// relation.Database internals depend on insertion order, so raw DeepEqual on
// *Factored would be vacuously brittle rather than meaningfully strict.
type repairProj struct {
	Facts string
	P     string
	Seqs  string
}

type componentProj struct {
	Facts   []string
	Repairs []repairProj
	Success string
}

type factoredProj struct {
	Untouched  []string
	Components []componentProj
	Hits       int
	Misses     int
	CPs        []string
}

// project flattens a *Factored into comparable value types, including a few
// exact query answers so the projection covers the full read path.
func project(t *testing.T, fac *core.Factored, inst *repair.Instance) factoredProj {
	t.Helper()
	p := factoredProj{Hits: fac.CacheHits, Misses: fac.CacheMisses}
	for _, uf := range fac.Untouched.Facts() {
		p.Untouched = append(p.Untouched, uf.String())
	}
	for _, c := range fac.Components() {
		sem := c.Semantics()
		cp := componentProj{Success: sem.SuccessP.RatString()}
		for _, cf := range c.Facts {
			cp.Facts = append(cp.Facts, cf.String())
		}
		for _, r := range sem.Repairs {
			cp.Repairs = append(cp.Repairs, repairProj{
				Facts: r.DB.Key(),
				P:     r.P.RatString(),
				Seqs:  r.SeqCount.String(),
			})
		}
		p.Components = append(p.Components, cp)
	}
	x, y := v("x"), v("y")
	q := fo.MustQuery("Q", []logic.Term{x, y}, fo.Atom{A: at("E", x, y)})
	for _, fact := range inst.Initial().Facts()[:4] {
		args := fact.ArgNames()
		cp, err := fac.CP(q, args[:2])
		if err != nil {
			t.Fatalf("CP(%s): %v", fact, err)
		}
		p.CPs = append(p.CPs, cp.RatString())
	}
	return p
}

// TestFactoredBitIdenticalAcrossWorkers: the worker pool must not leak
// scheduling into results — Workers = 1..8, with and without the structural
// cache, all produce the same projection, bit for bit.
func TestFactoredBitIdenticalAcrossWorkers(t *testing.T) {
	inst := islandsInstance(t, 12, 4, 0.5, 7)
	var want factoredProj
	for workers := 1; workers <= 8; workers++ {
		for _, nocache := range []bool{false, true} {
			fac, err := core.ComputeFactoredDelta(inst.Initial(), inst.Sigma(), generators.Uniform{},
				markov.ExploreOptions{Workers: workers}, core.FactoredOptions{NoCache: nocache},
				core.FactoredDelta{Part: abc.NewPartition(inst.Root().Violations())})
			if err != nil {
				t.Fatalf("workers=%d nocache=%v: %v", workers, nocache, err)
			}
			got := project(t, fac, inst)
			// Counters legitimately differ with the cache off; compare them
			// only among cached runs.
			if nocache {
				if got.Hits != 0 || got.Misses != 0 {
					t.Fatalf("nocache run reported cache traffic: %d/%d", got.Hits, got.Misses)
				}
				got.Hits, got.Misses = want.Hits, want.Misses
			}
			if workers == 1 && !nocache {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d nocache=%v: projection differs from workers=1", workers, nocache)
			}
		}
	}
	if want.Hits == 0 {
		t.Error("expected structural cache hits on a 50%-isomorphic archipelago")
	}
}

// TestFactoredParallelMatchesMonolithic: on an instance small enough to
// explore monolithically, the parallel factored engine reproduces the exact
// walk-induced OCA for both a structural (uniform) and a non-structural
// (trust) generator.
func TestFactoredParallelMatchesMonolithic(t *testing.T) {
	for _, seed := range []int64{3, 41} {
		d, sigma := workload.Islands(workload.IslandsConfig{
			Islands: 3, FactsPerIsland: 3,
			IsoRatio: float64(seed%2) / 2.0, // alternate shuffled and canonical mixes
			Seed:     seed,
		})
		// A conflict-free fact makes the certain-answer comparison
		// non-vacuous: it survives every repair, so CP = 1 on both engines.
		d.Insert(f("E", "zz_clean", "zz_end"))
		inst := repair.MustInstance(d, sigma)
		trust := workload.RandomTrust(d, 7, seed+8)
		gens := []struct {
			name string
			g    core.LocalGenerator
		}{
			{"uniform", generators.Uniform{}},
			{"trust", trust},
		}
		x, y := v("x"), v("y")
		q := fo.MustQuery("Q", []logic.Term{x, y}, fo.Atom{A: at("E", x, y)})
		for _, tc := range gens {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				mono, err := core.Compute(inst, tc.g, markov.ExploreOptions{MaxStates: 5_000_000})
				if err != nil {
					t.Fatalf("monolithic: %v", err)
				}
				fac, err := core.ComputeFactored(inst, tc.g, markov.ExploreOptions{Workers: 4})
				if err != nil {
					t.Fatalf("factored: %v", err)
				}
				for _, fact := range inst.Initial().Facts() {
					got := fac.FactProbability(fact)
					want := mono.CP(q, fact.ArgNames()[:2])
					if got.Cmp(want) != 0 {
						t.Errorf("%s: factored %s vs monolithic %s", fact, got.RatString(), want.RatString())
					}
				}
				as, err := fac.OCA(q)
				if err != nil {
					t.Fatalf("factored OCA: %v", err)
				}
				monoAS := mono.OCA(q)
				if len(as.Answers) != len(monoAS.Answers) {
					t.Fatalf("OCA sizes: factored %d vs monolithic %d", len(as.Answers), len(monoAS.Answers))
				}
				monoP := map[string]string{}
				for _, a := range monoAS.Answers {
					monoP[a.Tuple[0]+"|"+a.Tuple[1]] = a.P.RatString()
				}
				facCertain := map[string]bool{}
				for _, a := range as.Answers {
					if monoP[a.Tuple[0]+"|"+a.Tuple[1]] != a.P.RatString() {
						t.Errorf("OCA(%v): factored %s vs monolithic %s",
							a.Tuple, a.P.RatString(), monoP[a.Tuple[0]+"|"+a.Tuple[1]])
					}
					if a.P.Cmp(prob.One()) == 0 {
						facCertain[a.Tuple[0]+"|"+a.Tuple[1]] = true
					}
				}
				// Certain answers (CP = 1) agree with the monolithic engine's.
				monoCertain := mono.Certain(q)
				if len(monoCertain) != len(facCertain) {
					t.Fatalf("certain answers: factored %d vs monolithic %d", len(facCertain), len(monoCertain))
				}
				for _, tup := range monoCertain {
					if !facCertain[tup[0]+"|"+tup[1]] {
						t.Errorf("monolithic certain answer %v missing from factored CP=1 set", tup)
					}
				}
			})
		}
	}
}

// TestFactoredStructuralCacheRenames: two isomorphic islands over disjoint
// constants explore once and rename once; the renamed semantics is equal to
// the explored one up to the constant bijection.
func TestFactoredStructuralCacheRenames(t *testing.T) {
	d := relation.FromFacts(
		f("E", "a0", "a1"), f("E", "a1", "a2"), f("E", "a2", "a3"),
		f("E", "b0", "b1"), f("E", "b1", "b2"), f("E", "b2", "b3"),
	)
	inst := repair.MustInstance(d, chainDC())
	fac, err := core.ComputeFactored(inst, generators.Uniform{}, markov.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fac.Components()) != 2 {
		t.Fatalf("components = %d, want 2", len(fac.Components()))
	}
	if fac.CacheMisses != 1 || fac.CacheHits != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/1", fac.CacheHits, fac.CacheMisses)
	}
	ca, cb := fac.Components()[0], fac.Components()[1]
	sa, sb := ca.Semantics(), cb.Semantics()
	if sa.SuccessP.Cmp(sb.SuccessP) != 0 || len(sa.Repairs) != len(sb.Repairs) {
		t.Fatalf("isomorphic components disagree: %d/%s vs %d/%s",
			len(sa.Repairs), sa.SuccessP.RatString(), len(sb.Repairs), sb.SuccessP.RatString())
	}
	for i := range sa.Repairs {
		ra, rb := sa.Repairs[i], sb.Repairs[i]
		if ra.P.Cmp(rb.P) != 0 {
			t.Errorf("repair %d: P %s vs %s", i, ra.P.RatString(), rb.P.RatString())
		}
		if ra.DB.Size() != rb.DB.Size() {
			t.Errorf("repair %d: sizes differ", i)
		}
		// The b-side repair must contain only b-side constants: renaming, not
		// sharing, of the cached semantics.
		for _, bf := range rb.DB.Facts() {
			for _, arg := range bf.ArgNames() {
				if arg[0] != 'b' {
					t.Fatalf("repair fact %s of the renamed component mentions foreign constant %s", bf, arg)
				}
			}
		}
	}
	// Corresponding marginals are equal under the bijection a_i ↦ b_i.
	pa := fac.FactProbability(f("E", "a1", "a2"))
	pb := fac.FactProbability(f("E", "b1", "b2"))
	if pa.Cmp(pb) != 0 {
		t.Errorf("marginals: a-side %s vs b-side %s", pa.RatString(), pb.RatString())
	}
}

// TestFactoredCanonFallbackKeepsAnswers: when canonicalization runs out
// of search leaves, components fall back to the first-occurrence key. The
// cache then shares less — most shuffled islands explore again — but the
// published semantics stays bit-identical to the uncached engine's,
// whether every component falls back (budget 0) or only the cycles do
// (budget 1: a path canonicalizes in one leaf, a 4-cycle needs four), so
// both key kinds share one cache.
func TestFactoredCanonFallbackKeepsAnswers(t *testing.T) {
	d, sigma := workload.Islands(workload.IslandsConfig{Islands: 12, FactsPerIsland: 4, IsoRatio: 0.5, Seed: 7})
	// Two isomorphic directed 4-cycles whose names sort in different
	// orders, so their first-occurrence keys differ.
	for _, names := range [][]string{{"cyc_a", "cyc_b", "cyc_c", "cyc_d"}, {"cyd_d", "cyd_b", "cyd_a", "cyd_c"}} {
		for j := range names {
			d.Insert(f("E", names[j], names[(j+1)%len(names)]))
		}
	}
	inst := repair.MustInstance(d, sigma)
	run := func(nocache bool) factoredProj {
		fac, err := core.ComputeFactoredDelta(inst.Initial(), inst.Sigma(), generators.Uniform{},
			markov.ExploreOptions{Workers: 4}, core.FactoredOptions{NoCache: nocache},
			core.FactoredDelta{Part: abc.NewPartition(inst.Root().Violations())})
		if err != nil {
			t.Fatal(err)
		}
		return project(t, fac, inst)
	}
	want := run(true)
	for _, tc := range []struct {
		budget int
		misses int
	}{
		{64, 2}, // one path shape, one cycle shape
		{1, 3},  // the cycles fall back and miss separately
		{0, 8},  // everything falls back: the canonical half shares one key with a shuffled island whose first-occurrence renaming gives the same fact set; every other island and cycle misses
	} {
		restore := core.SetCanonLeafBudget(tc.budget)
		got := run(false)
		restore()
		if got.Misses != tc.misses || got.Hits+got.Misses != 14 {
			t.Errorf("budget %d: hits/misses = %d/%d, want %d misses of 14", tc.budget, got.Hits, got.Misses, tc.misses)
		}
		got.Hits, got.Misses = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Errorf("budget %d: cached projection differs from the uncached engine", tc.budget)
		}
	}
}

// TestFactoredTrustBypassesCache: trust weights depend on fact identity, so
// structurally identical components must not share cached semantics — the
// engine reports zero cache traffic and stays exact.
func TestFactoredTrustBypassesCache(t *testing.T) {
	d := relation.FromFacts(
		f("E", "a0", "a1"), f("E", "a1", "a2"),
		f("E", "b0", "b1"), f("E", "b1", "b2"),
	)
	inst := repair.MustInstance(d, chainDC())
	trust := generators.NewTrust(big.NewRat(1, 2))
	if err := trust.Set(f("E", "a0", "a1"), big.NewRat(99, 100)); err != nil {
		t.Fatal(err)
	}
	fac, err := core.ComputeFactored(inst, trust, markov.ExploreOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if fac.CacheHits != 0 || fac.CacheMisses != 0 {
		t.Fatalf("trust run reported cache traffic %d/%d; the structural cache must be bypassed",
			fac.CacheHits, fac.CacheMisses)
	}
	// The high-trust a-fact must be strictly more likely to survive than its
	// structural twin on the b island.
	pa := fac.FactProbability(f("E", "a0", "a1"))
	pb := fac.FactProbability(f("E", "b0", "b1"))
	if pa.Cmp(pb) <= 0 {
		t.Errorf("trusted fact marginal %s not above untrusted twin %s", pa.RatString(), pb.RatString())
	}
	mono, err := core.Compute(inst, trust, markov.ExploreOptions{MaxStates: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	x, y := v("x"), v("y")
	q := fo.MustQuery("Q", []logic.Term{x, y}, fo.Atom{A: at("E", x, y)})
	for _, fact := range inst.Initial().Facts() {
		if got, want := fac.FactProbability(fact), mono.CP(q, fact.ArgNames()[:2]); got.Cmp(want) != 0 {
			t.Errorf("%s: factored %s vs monolithic %s", fact, got.RatString(), want.RatString())
		}
	}
}

// TestFactoredTotalSequences: with TrackLengths the factored engine recovers
// the monolithic chain's exact complete-sequence count via the binomial
// interleaving convolution — for uniform and trust weights alike (the count
// is weight-independent).
func TestFactoredTotalSequences(t *testing.T) {
	d, sigma := workload.Islands(workload.IslandsConfig{Islands: 3, FactsPerIsland: 3, IsoRatio: 1, Seed: 5})
	inst := repair.MustInstance(d, sigma)
	mono, err := core.Compute(inst, generators.Uniform{}, markov.ExploreOptions{MaxStates: 5_000_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    core.LocalGenerator
	}{
		{"uniform", generators.Uniform{}},
		{"trust", workload.RandomTrust(d, 5, 9)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fac, err := core.ComputeFactored(inst, tc.g, markov.ExploreOptions{TrackLengths: true, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			total, err := fac.TotalSequences()
			if err != nil {
				t.Fatal(err)
			}
			if total.Cmp(mono.TotalSequences) != 0 {
				t.Errorf("factored TotalSequences = %s, monolithic = %s", total, mono.TotalSequences)
			}
		})
	}
	// Without TrackLengths the per-length histograms are absent and the
	// convolution must refuse rather than guess.
	fac, err := core.ComputeFactored(inst, generators.Uniform{}, markov.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fac.TotalSequences(); err == nil {
		t.Error("TotalSequences without TrackLengths must error")
	}
}

// TestWorkloadIslands: the generator delivers exactly the advertised
// component structure.
func TestWorkloadIslands(t *testing.T) {
	cfg := workload.IslandsConfig{Islands: 20, FactsPerIsland: 5, IsoRatio: 0.5, Seed: 2}
	d, sigma := workload.Islands(cfg)
	if got, want := d.Size(), cfg.Islands*cfg.FactsPerIsland; got != want {
		t.Fatalf("size = %d, want %d", got, want)
	}
	inst := repair.MustInstance(d, sigma)
	fac, err := core.ComputeFactored(inst, generators.Uniform{}, markov.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fac.Components()) != cfg.Islands {
		t.Errorf("components = %d, want %d", len(fac.Components()), cfg.Islands)
	}
	if fac.Untouched.Size() != 0 {
		t.Errorf("untouched = %d, want 0 (every fact is in some violation)", fac.Untouched.Size())
	}
	for _, c := range fac.Components() {
		if len(c.Facts) != cfg.FactsPerIsland {
			t.Errorf("component size = %d, want %d", len(c.Facts), cfg.FactsPerIsland)
		}
	}
	// Canonical and shuffled islands alike are directed 5-edge paths, so
	// every island shares one canonical cache key: one exploration total.
	if fac.CacheMisses != 1 || fac.CacheHits != cfg.Islands-1 {
		t.Errorf("cache hits/misses = %d/%d; want %d/1 (all islands are isomorphic)",
			fac.CacheHits, fac.CacheMisses, cfg.Islands-1)
	}
	prob.Float(fac.FactProbability(d.Facts()[0])) // smoke: marginal works
}
