package main

import (
	"fmt"
	"time"

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

// E18 exercises the ROADMAP's "million-fact exact answering" target: the
// parallel, structurally-memoized factored engine on a database of
// 1,000,000 E facts split into 100,000 ten-fact conflict islands. The
// monolithic chain of this instance has on the order of 10^500000 complete
// sequences; the factored engine repairs each island independently,
// explores only the distinct island shapes (every island is a 10-fact
// chain, so one exploration serves all of them through the structural
// cache, shuffled constant names included), and still reports exact
// big.Rat probabilities.
func init() {
	register("E18", "extension: exact CP at million-fact scale (parallel + memoized factored engine)", func() error {
		cfg := workload.IslandsConfig{
			Islands:        100_000,
			FactsPerIsland: 10,
			IsoRatio:       0.99,
			Seed:           18,
		}
		if fullScale {
			cfg.Islands = 200_000
		}
		fmt.Printf("  generating %d islands × %d facts (isomorphic ratio %.2f)...\n",
			cfg.Islands, cfg.FactsPerIsland, cfg.IsoRatio)
		start := time.Now()
		d, sigma := workload.Islands(cfg)
		inst, err := repair.NewInstance(d, sigma)
		if err != nil {
			return err
		}
		fmt.Printf("  built %d facts in %s\n", d.Size(), time.Since(start).Round(time.Millisecond))

		start = time.Now()
		fac, err := core.ComputeFactored(inst, generators.Uniform{}, markov.ExploreOptions{Workers: 8})
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		hits, misses := fac.CacheHits, fac.CacheMisses
		fmt.Printf("  factored semantics in %s: %d components, %d untouched facts\n",
			elapsed.Round(time.Millisecond), fac.Partition().Len(), fac.Untouched.Size())
		fmt.Printf("  structural cache: %d explorations, %d renamings (hit ratio %.4f)\n",
			misses, hits, float64(hits)/float64(hits+misses))
		fmt.Printf("  distinct repairs: ~10^%d (exact product of per-island repair counts)\n",
			len(fac.NumRepairs().String())-1)

		// Exact conditional probabilities of atomic queries, straight off
		// the per-component marginals — no sampling, no enumeration.
		x, y := logic.Var("X"), logic.Var("Y")
		q := fo.MustQuery("Q", []logic.Term{x, y}, fo.Atom{A: logic.NewAtom("E", x, y)})
		end := relation.NewFact("E", "i00000000_n000", "i00000000_n001")
		mid := relation.NewFact("E", "i00000000_n004", "i00000000_n005")
		for _, target := range []relation.Fact{end, mid} {
			cp, err := fac.CP(q, []string{target.Args()[0].String(), target.Args()[1].String()})
			if err != nil {
				return err
			}
			fmt.Printf("  exact CP(%s) = %s ≈ %.6f\n", target, cp.RatString(), prob.Float(cp))
		}
		fmt.Println("  the end fact of a 10-chain survives more repairs than a middle fact;")
		fmt.Println("  both probabilities are exact rationals computed in O(island) time.")
		return nil
	})
}
