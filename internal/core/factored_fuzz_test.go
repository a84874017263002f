package core_test

// FuzzFactoredCQ is the differential fuzz target for the factored
// engine's witness-lineage route: a small random instance (one of the
// lineageFamilies shapes) and a random 1–3-atom conjunctive query, with
// Factored.CP — which enumerates only the components a tuple's witnesses
// link — required to equal CP over the monolithic DAG semantics, and that
// to equal the query evaluated on every DAG repair. The factored side
// never explores the whole chain, so agreement checks the grouping, the
// renaming of cache-served components and the lineage itself.
//
// Run continuously with:
//
//	go test -run '^$' -fuzz FuzzFactoredCQ ./internal/core
//
// CI runs a short smoke pass.

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/generators"
	"repro/internal/markov"
	"repro/internal/repair"
)

func FuzzFactoredCQ(f *testing.F) {
	for family := uint8(0); family < 4; family++ {
		f.Add(family, int64(1), int64(1))
		f.Add(family, int64(2), int64(7))
	}
	f.Fuzz(func(t *testing.T, family uint8, instSeed, querySeed int64) {
		families := lineageFamilies(instSeed)
		names := make([]string, 0, len(families))
		for name := range families {
			names = append(names, name)
		}
		sort.Strings(names)
		d, sigma := families[names[int(family)%len(names)]]()
		inst := repair.MustInstance(d, sigma)
		sem, err := core.ComputeDAGMode(inst, generators.Uniform{}, markov.ExploreOptions{MaxStates: 200_000}, core.WalkInduced)
		if err != nil {
			if errors.Is(err, markov.ErrStateBudget) {
				return
			}
			t.Fatalf("DAG: %v", err)
		}
		fac, err := core.ComputeFactored(inst, generators.Uniform{}, markov.ExploreOptions{})
		if err != nil {
			t.Fatalf("factored: %v", err)
		}
		rng := rand.New(rand.NewSource(querySeed))
		q := randomCQ(rng, d, 3)
		tuples := [][]string{randomTuple(rng, d, q)}
		for _, a := range sem.OCA(q).Answers {
			tuples = append(tuples, a.Tuple)
		}
		for _, tuple := range tuples {
			got, err := fac.CP(q, tuple)
			if err != nil {
				t.Fatalf("%s: factored CP%v: %v", q, tuple, err)
			}
			dag := sem.CP(q, tuple)
			if got.Cmp(dag) != 0 {
				t.Fatalf("%s%v: factored CP %s, DAG CP %s\ndb: %s", q, tuple, got.RatString(), dag.RatString(), d)
			}
			if ref := perRepairCP(sem, q, tuple); dag.Cmp(ref) != 0 {
				t.Fatalf("%s%v: DAG CP %s, per-repair %s\ndb: %s", q, tuple, dag.RatString(), ref.RatString(), d)
			}
		}
	})
}
