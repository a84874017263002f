package repair_test

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/fo"
	"repro/internal/generators"
	"repro/internal/logic"
	"repro/internal/markov"
	"repro/internal/ops"
	"repro/internal/relation"
	"repro/internal/repair"
	"repro/internal/sampling"
	"repro/internal/workload"
)

// checkConflictKey compares a state's conflict key with its database and
// violation set: the facts it holds, the root bodies it holds whole and
// the involved facts.
func checkConflictKey(t *testing.T, what string, s *repair.State, db *relation.Database, involved []relation.Fact, bodies map[string]bool) {
	t.Helper()
	k, ok := s.ConflictKey()
	if !ok {
		t.Fatalf("%s: no conflict key on a TGD-free state", what)
	}
	ix := k.Index()
	for i := range ix.Conflicted() {
		f := ix.Fact(i)
		if ix.Bit(f) != i {
			t.Fatalf("%s: Bit(Fact(%d)) = %d", what, i, ix.Bit(f))
		}
		if k.Holds(i) != db.Contains(f) {
			t.Fatalf("%s: key holds %s: %v, database %v", what, f, k.Holds(i), db.Contains(f))
		}
		if k.Involved(i) != slices.Contains(involved, f) {
			t.Fatalf("%s: key says %s involved: %v, violations %v", what, f, k.Involved(i), !k.Involved(i))
		}
	}
	for b := range ix.Bodies() {
		if k.HoldsBody(b) != bodies[bodyKey(ix, b)] {
			t.Fatalf("%s: key holds body %d: %v, violations %v", what, b, k.HoldsBody(b), !k.HoldsBody(b))
		}
	}
}

func bodyKey(ix *repair.ConflictIndex, b int) string {
	var fs []relation.Fact
	for _, i := range ix.Body(b) {
		fs = append(fs, ix.Fact(int(i)))
	}
	relation.SortFacts(fs)
	return relation.FactsString(fs)
}

// TestQuickConflictKeyMatchesViolations walks random operation sequences
// over random TGD-free instances three ways — Child states, which derive
// their key from their database; DeferredChild states, handed the key
// AppendChildKey derives; and a Cursor, which reads its own key and
// held-body bitset — and at every step checks each state's ConflictKey
// against the Child state's database and violations.
func TestQuickConflictKeyMatchesViolations(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for name, inst := range tgdFreeInstances(seed) {
			ix, err := inst.Conflicts()
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			twin, def, key := inst.Root(), ix.Root(), ix.RootKey()
			cur := inst.NewCursor()
			cs := cur.Reset()
			for step := 0; ; step++ {
				db := twin.Result()
				bodies := map[string]bool{}
				for _, v := range twin.Violations().ByID() {
					fs := slices.Clone(v.BodyFacts())
					relation.SortFacts(fs)
					bodies[relation.FactsString(slices.Compact(fs))] = true
				}
				involved := twin.Violations().InvolvedFacts()
				checkConflictKey(t, name+" Child", twin, db, involved, bodies)
				checkConflictKey(t, name+" DeferredChild", def, db, involved, bodies)
				checkConflictKey(t, name+" Cursor", cs, db, involved, bodies)
				exts := twin.Extensions()
				if len(exts) == 0 {
					break
				}
				op := exts[rng.Intn(len(exts))]
				ck, _ := ix.AppendChildKey(nil, key, op)
				key = string(ck)
				twin, def, cs = twin.Child(op), def.DeferredChild(op, ix.AppendExtensions(nil, key), key), cur.Step(op)
			}
		}
	}
}

// watch is the preference generator, checking at every call that the
// state it weighs has built neither a database nor a violation set.
type watch struct {
	generators.Preference
	t     *testing.T
	calls atomic.Int64
}

func (w *watch) IntWeights(s *repair.State, exts []ops.Op, dst []int64) ([]int64, bool, error) {
	w.calls.Add(1)
	ws, ok, err := w.Preference.IntWeights(s, exts, dst)
	if s.Built() && s.Len() > 0 {
		w.t.Errorf("state %q was built to weigh it", s)
	}
	return ws, ok, err
}

func preferenceTournament() *repair.Instance {
	return repair.MustInstance(workload.Preferences(workload.PreferenceConfig{Products: 8, Prefs: 12, ConflictRate: 1, Seed: 1}))
}

// TestPreferenceWalksBuildNothing: under the preference generator on a
// TGD-free instance, the estimator's walks weigh every state off its
// conflict key, so no walk reads a database or a violation set before its
// leaf (and a conjunctive query reads none at the leaf either).
func TestPreferenceWalksBuildNothing(t *testing.T) {
	g := &watch{t: t}
	x, y := logic.Var("x"), logic.Var("y")
	q := fo.MustQuery("Q", []logic.Term{x, y}, fo.Atom{A: logic.NewAtom("Pref", x, y)})
	est := &sampling.Estimator{Inst: preferenceTournament(), Gen: g, Seed: 1, Workers: 2}
	if _, err := est.EstimateWithN(q, 200); err != nil {
		t.Fatal(err)
	}
	if g.calls.Load() == 0 {
		t.Fatal("the walks never weighed a state")
	}
}

// TestPreferenceSweepBuildsNoInteriorNode: under the preference generator
// on a TGD-free instance, the DAG sweep weighs every node off the key it
// hands its DeferredChild, so no interior node is materialized; only the
// absorbing leaves are, when emitted.
func TestPreferenceSweepBuildsNoInteriorNode(t *testing.T) {
	g := &watch{t: t}
	dag, err := markov.ExploreDAG(preferenceTournament(), g, markov.ExploreOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n := g.calls.Load(); n != int64(dag.States-len(dag.Leaves)) {
		t.Fatalf("weighed %d states, want the %d interior nodes", n, dag.States-len(dag.Leaves))
	}
}

// TestTableBuiltOnce: concurrent first calls share one table, built once
// and kept by the index.
func TestTableBuiltOnce(t *testing.T) {
	ix, err := preferenceTournament().Conflicts()
	if err != nil {
		t.Fatal(err)
	}
	var builds atomic.Int32
	key := repair.TableKey{Kind: "test", Arg: "once"}
	done := make(chan any)
	for range 8 {
		go func() {
			done <- ix.Table(key, func(*repair.ConflictIndex) any { builds.Add(1); return new(int) })
		}()
	}
	first := <-done
	for range 7 {
		if <-done != first {
			t.Fatal("concurrent Table calls returned different tables")
		}
	}
	if builds.Load() != 1 {
		t.Fatalf("built %d times, want 1", builds.Load())
	}
	if ix.Table(repair.TableKey{Kind: "test", Arg: "other"}, func(*repair.ConflictIndex) any { return new(int) }) == first {
		t.Fatal("two keys share a table")
	}
}
