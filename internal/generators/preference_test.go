package generators_test

import (
	"math/big"
	"slices"
	"strings"
	"testing"

	"repro/internal/constraint"
	"repro/internal/generators"
	"repro/internal/logic"
	"repro/internal/ops"
	"repro/internal/relation"
	"repro/internal/repair"
	"repro/internal/workload"
)

func v(n string) logic.Term                    { return logic.Var(n) }
func at(p string, ts ...logic.Term) logic.Atom { return logic.NewAtom(p, ts...) }
func f(p string, args ...string) relation.Fact { return relation.NewFact(p, args...) }

// TestPreferenceKeyWeightsMatchDatabase: at every state of the full
// sequence tree, the weights read off the conflict key — of the Child
// state, which derives its key from its database, and of the
// DeferredChild twin the DAG sweep would build, which is handed its key —
// equal the weights counted in the state's database and violation set:
// the same weights, the same ok and the same error text, from IntWeights
// and from Transitions. The instances are the paper's example, a
// preference tournament, a custom predicate, and one whose R/2 key EGD
// involves a fact outside Pref/2 in some states and not in others.
func TestPreferenceKeyWeightsMatchDatabase(t *testing.T) {
	pref := func(x, y logic.Term) logic.Atom { return at("Pref", x, y) }
	asym := constraint.MustDC([]logic.Atom{pref(v("x"), v("y")), pref(v("y"), v("x"))})
	key := constraint.MustEGD([]logic.Atom{at("R", v("x"), v("y")), at("R", v("x"), v("z"))}, v("y"), v("z"))
	tournament, tsigma := workload.Preferences(workload.PreferenceConfig{Products: 6, Prefs: 10, ConflictRate: 1, Seed: 1})
	cases := []struct {
		name  string
		inst  *repair.Instance
		gen   generators.Preference
		shape bool // some state must fail the shape check, and some pass it
	}{
		{"paper", repair.MustInstance(relation.FromFacts(
			f("Pref", "a", "b"), f("Pref", "a", "c"), f("Pref", "a", "d"),
			f("Pref", "b", "a"), f("Pref", "b", "d"), f("Pref", "c", "a"),
		), constraint.NewSet(asym)), generators.Preference{}, false},
		{"tournament", repair.MustInstance(tournament, tsigma), generators.Preference{}, false},
		{"likes", repair.MustInstance(relation.FromFacts(
			f("Likes", "a", "b"), f("Likes", "b", "a"), f("Likes", "b", "c"),
			f("Likes", "c", "b"), f("Likes", "c", "a"),
		), constraint.NewSet(constraint.MustDC([]logic.Atom{at("Likes", v("x"), v("y")), at("Likes", v("y"), v("x"))}))),
			generators.Preference{Pred: "Likes"}, false},
		{"key", repair.MustInstance(relation.FromFacts(
			f("Pref", "a", "b"), f("Pref", "b", "a"), f("Pref", "a", "c"), f("Pref", "c", "a"),
			f("R", "k", "1"), f("R", "k", "2"), f("R", "j", "1"), f("R", "j", "2"),
		), constraint.NewSet(asym, key)), generators.Preference{}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ix, err := c.inst.Conflicts()
			if err != nil {
				t.Fatal(err)
			}
			states, weighed, bad := 0, 0, 0
			var visit func(s, def *repair.State, key string)
			visit = func(s, def *repair.State, key string) {
				states++
				exts := s.Extensions()
				want := databaseOutcome(c.gen, s, exts)
				switch {
				case want.err == "":
					weighed++
				case strings.Contains(want.err, "outside"):
					bad++
				}
				for _, st := range []*repair.State{s, def} {
					if got := keyedOutcome(c.gen, st, exts); !got.equal(want) {
						t.Fatalf("state %q: keyed %+v, database %+v", st, got, want)
					}
				}
				for _, op := range exts {
					ck, ok := ix.AppendChildKey(nil, key, op)
					if !ok {
						t.Fatalf("state %q: extension %s rejected by its key", s, op)
					}
					visit(s.Child(op), def.DeferredChild(op, ix.AppendExtensions(nil, string(ck)), string(ck)), string(ck))
				}
			}
			visit(c.inst.Root(), ix.Root(), ix.RootKey())
			if c.shape != (bad > 0) || weighed == 0 {
				t.Fatalf("%d of %d states weighed, %d failing the shape check", weighed, states, bad)
			}
		})
	}
}

// weightOutcome is everything IntWeights and Transitions report at one
// state.
type weightOutcome struct {
	ws    []int64
	ok    bool
	err   string
	probs []string // Transitions' probabilities, or its error
}

func (o weightOutcome) equal(p weightOutcome) bool {
	return slices.Equal(o.ws, p.ws) && o.ok == p.ok && o.err == p.err && slices.Equal(o.probs, p.probs)
}

// keyedOutcome runs the generator as the engines do.
func keyedOutcome(g generators.Preference, s *repair.State, exts []ops.Op) weightOutcome {
	ws, ok, err := g.IntWeights(s, exts, nil)
	ps, perr := g.Transitions(s, exts)
	return outcome(ws, ok, err, ps, perr)
}

// databaseOutcome counts the same weights in the state's database and
// violation set, the path under TGDs.
func databaseOutcome(g generators.Preference, s *repair.State, exts []ops.Op) weightOutcome {
	ws, ok, err := generators.DatabaseIntWeights(g, s, exts)
	ps, perr := generators.DatabaseTransitions(g, s, exts)
	return outcome(ws, ok, err, ps, perr)
}

func outcome(ws []int64, ok bool, err error, ps []*big.Rat, perr error) weightOutcome {
	o := weightOutcome{ws: ws, ok: ok, probs: ratStrings(ps, perr)}
	if err != nil {
		o.err = err.Error()
	}
	return o
}

func ratStrings(ps []*big.Rat, err error) []string {
	if err != nil {
		return []string{"error: " + err.Error()}
	}
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.RatString()
	}
	return out
}
