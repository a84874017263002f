package markov_test

// FuzzExploreDAG is the differential fuzz target for the conflict-key
// level sweep: parse a small database and a TGD-free constraint set and
// require ExploreDAG to reproduce the sequence-tree engine Explore — the
// reference, which walks every repairing sequence through repair.Child and
// never sees a conflict key or a deferred state — under the uniform and
// the preference generators: the same absorbing databases, each with the
// same exact hitting mass and sequence count. The DAG must also be
// identical, leaf order included, for one and three workers.
//
// Run continuously with:
//
//	go test -run '^$' -fuzz FuzzExploreDAG ./internal/markov
//
// CI runs a short smoke pass.

import (
	"errors"
	"testing"

	"repro/internal/constraint"
	"repro/internal/generators"
	"repro/internal/markov"
	"repro/internal/parse"
	"repro/internal/repair"
)

func FuzzExploreDAG(f *testing.F) {
	for _, s := range [][2]string{
		{"R(a, 1). R(a, 2). R(b, 3). R(b, 4). R(c, 5).", "R(X, Y), R(X, Z) -> Y = Z."},
		{"Pref(a, b). Pref(a, c). Pref(a, d). Pref(b, a). Pref(b, d). Pref(c, a).", "Pref(X, Y), Pref(Y, X) -> false."},
		{"E(a, b). E(b, c). E(c, d). E(d, a). E(b, d).", "E(X, Y), E(Y, Z), E(Z, W) -> false."},
		{"R(k, 1). R(k, 2). R(k, 3). S(k, x). S(j, y).", "R(X, Y), R(X, Z) -> Y = Z. R(X, Y), S(X, Z) -> false."},
		{"R(a, 1).", "R(X, Y), R(X, Z) -> Y = Z."},
	} {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, dbSrc, sigmaSrc string) {
		db, err := parse.Database(dbSrc)
		if err != nil || db.Size() > 8 {
			return
		}
		sigma, err := parse.Constraints(sigmaSrc)
		if err != nil || sigma.HasTGDs() {
			return
		}
		for _, c := range sigma.All() {
			if c.Kind() != constraint.EGD && c.Kind() != constraint.DC {
				return
			}
		}
		inst, err := repair.NewInstance(db, sigma)
		if err != nil {
			return
		}
		for _, g := range []markov.Generator{generators.Uniform{}, generators.Preference{}} {
			// The tree enumerates sequences, factorially many; keep the
			// reference tractable and skip instances past its budget.
			tree, terr := markov.Explore(inst, g, markov.ExploreOptions{MaxStates: 50000})
			if errors.Is(terr, markov.ErrStateBudget) {
				continue
			}
			one, err1 := markov.ExploreDAG(inst, g, markov.ExploreOptions{Workers: 1})
			three, err3 := markov.ExploreDAG(inst, g, markov.ExploreOptions{Workers: 3})
			if terr != nil || err1 != nil || err3 != nil {
				// A generator that does not apply (preference weights off a
				// Pref/2 schema) must fail every engine alike.
				if terr == nil || err1 == nil || err3 == nil {
					t.Fatalf("%s: tree err %v, DAG err %v (1 worker) and %v (3 workers)", g.Name(), terr, err1, err3)
				}
				continue
			}
			ref := map[string]markov.DAGLeaf{}
			for _, l := range tree.Leaves {
				ref[l.Key] = l
			}
			if len(one.Leaves) != len(ref) || one.Sequences.Cmp(tree.Sequences) != 0 {
				t.Fatalf("%s: DAG has %d leaves over %s sequences, tree %d over %s",
					g.Name(), len(one.Leaves), one.Sequences, len(ref), tree.Sequences)
			}
			for _, l := range one.Leaves {
				w, ok := ref[l.Key]
				if !ok || l.Pi.Cmp(w.Pi) != 0 || l.Sequences.Cmp(w.Sequences) != 0 {
					t.Fatalf("%s: leaf %q: DAG mass %s over %s sequences, tree %v", g.Name(), l.Key, l.Pi.RatString(), l.Sequences, w)
				}
				if l.Key != l.State.Result().Key() || !l.State.IsComplete() {
					t.Fatalf("%s: leaf %q: witness state %s is not its complete database", g.Name(), l.Key, l.State)
				}
			}
			if one.States != three.States || one.Edges != three.Edges || len(one.Leaves) != len(three.Leaves) {
				t.Fatalf("%s: 1 worker: %d states %d edges, 3 workers: %d states %d edges",
					g.Name(), one.States, one.Edges, three.States, three.Edges)
			}
			for i, l := range three.Leaves {
				w := one.Leaves[i]
				if l.Key != w.Key || l.Pi.Cmp(w.Pi) != 0 || l.Sequences.Cmp(w.Sequences) != 0 || l.State.String() != w.State.String() {
					t.Fatalf("%s: leaf %d differs between 1 and 3 workers", g.Name(), i)
				}
			}
		}
	})
}
