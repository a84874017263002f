package repair_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/constraint"
	"repro/internal/logic"
	"repro/internal/ops"
	"repro/internal/relation"
	"repro/internal/repair"
	"repro/internal/workload"
)

// tgdFreeInstances draws random TGD-free instances from the workload
// generators: key groups of size 2 (KeyViolations), overlapping symmetric
// denials (Preferences), a path under a two-atom denial (Chain), and key
// groups of up to 4 facts (Cliques), whose multi-fact deletions exercise
// the re-check of operations against surviving bodies — plus a random
// digraph under a three-edge path denial, whose three-fact bodies are the
// only shape where two facts can each stay inside some surviving body
// while no surviving body holds both.
func tgdFreeInstances(seed int64) map[string]*repair.Instance {
	rng := rand.New(rand.NewSource(seed))
	key := func(name string) string { return fmt.Sprintf("%s/seed=%d", name, seed) }
	graph := relation.NewDatabase()
	for i := 0; i < 4+rng.Intn(4); i++ {
		graph.Insert(relation.NewFact("E", fmt.Sprint(rng.Intn(4)), fmt.Sprint(rng.Intn(4))))
	}
	x, y, z, w := logic.Var("x"), logic.Var("y"), logic.Var("z"), logic.Var("w")
	path3 := constraint.NewSet(constraint.MustDC([]logic.Atom{
		logic.NewAtom("E", x, y), logic.NewAtom("E", y, z), logic.NewAtom("E", z, w),
	}))
	return map[string]*repair.Instance{
		key("path3"): repair.MustInstance(graph, path3),
		key("keys"): repair.MustInstance(workload.KeyViolations(workload.KeyConfig{
			Keys: 4 + rng.Intn(8), Violations: 1 + rng.Intn(6), Seed: seed,
		})),
		key("prefs"): repair.MustInstance(workload.Preferences(workload.PreferenceConfig{
			Products: 4 + rng.Intn(4), Prefs: 3 + rng.Intn(8), ConflictRate: 0.3 + 0.7*rng.Float64(), Seed: seed,
		})),
		key("chain"): repair.MustInstance(workload.Chain(workload.ChainConfig{Facts: 2 + rng.Intn(9)})),
		key("cliques"): repair.MustInstance(workload.Cliques(workload.CliqueConfig{
			Groups: 1 + rng.Intn(3), GroupSize: 2 + rng.Intn(3), Core: rng.Intn(3), Seed: seed,
		})),
	}
}

func violationIDs(vs *constraint.Violations) []uint64 {
	var ids []uint64
	for _, v := range vs.ByID() {
		ids = append(ids, v.ID())
	}
	return ids
}

func opKeys(list []ops.Op) []string {
	keys := make([]string, len(list))
	for i, op := range list {
		keys[i] = op.Key()
	}
	return keys
}

// TestQuickInPlaceStepMatchesChildAndScratch walks random TGD-free
// instances with a Cursor, whose steps advance a conflict key and filter
// the live extension list in place. At every step the cursor state's
// extension list must equal that of a twin built with Child and the one
// recomputed from scratch on the twin's database (the justified-operation
// enumeration), its consistency must match, and its key must be the one
// AppendChildKey derives; the final sequence must pass the Definition 4
// validator. The cursor's pending database and violations are read on
// every step of even walks and only on alternate steps of odd ones, so
// they also catch up over several operations at once, and must then equal
// the twin's and those recomputed from scratch (FindViolations). 70 key
// groups need more than one machine word of held bodies.
func TestQuickInPlaceStepMatchesChildAndScratch(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		instances := tgdFreeInstances(seed)
		instances["keys-wide"] = repair.MustInstance(workload.KeyViolations(workload.KeyConfig{
			Keys: 80, Violations: 70, Seed: seed,
		}))
		for name, inst := range instances {
			sigma := inst.Sigma()
			ix, err := inst.Conflicts()
			if err != nil {
				t.Fatal(err)
			}
			cur := inst.NewCursor()
			for walk := 0; walk < 4; walk++ {
				rng := rand.New(rand.NewSource(seed*100 + int64(walk)))
				lazy := walk%2 == 1
				s, twin, key := cur.Reset(), inst.Root(), ix.RootKey()
				var seq []ops.Op
				for step := 0; ; step++ {
					scratch := constraint.FindViolations(twin.Result(), sigma)
					want := violationIDs(scratch)
					if got := violationIDs(twin.Violations()); !slices.Equal(got, want) {
						t.Fatalf("%s walk %d step %d: Child violations %v, from scratch %v", name, walk, step, got, want)
					}
					exts := twin.Extensions()
					wantExts := opKeys(ops.JustifiedOps(twin.Result(), sigma, scratch, inst.Base()))
					if got := opKeys(exts); !slices.Equal(got, wantExts) {
						t.Fatalf("%s walk %d step %d: Child extensions %v, from scratch %v", name, walk, step, got, wantExts)
					}
					if got := opKeys(s.Extensions()); !slices.Equal(got, wantExts) {
						t.Fatalf("%s walk %d step %d: cursor extensions %v, from scratch %v", name, walk, step, got, wantExts)
					}
					if s.Consistent() != scratch.Empty() || ix.Consistent(cur.Key()) != scratch.Empty() {
						t.Fatalf("%s walk %d step %d: cursor consistency disagrees with the violations %v", name, walk, step, want)
					}
					if string(cur.Key()) != key {
						t.Fatalf("%s walk %d step %d: cursor key %x, AppendChildKey %x", name, walk, step, cur.Key(), key)
					}
					if !lazy || step%2 == 0 || len(exts) == 0 {
						if got := violationIDs(s.Violations()); !slices.Equal(got, want) {
							t.Fatalf("%s walk %d step %d: cursor violations %v, from scratch %v", name, walk, step, got, want)
						}
						if got, want := s.Result().Key(), twin.Result().Key(); got != want {
							t.Fatalf("%s walk %d step %d: cursor database %s, Child %s", name, walk, step, got, want)
						}
					}
					if len(exts) == 0 {
						break
					}
					op := exts[rng.Intn(len(exts))]
					seq = append(seq, op)
					child, _ := ix.AppendChildKey(nil, key, op)
					key = string(child)
					twin = twin.Child(op)
					s = cur.Step(op)
				}
				if !slices.Equal(opKeys(s.Ops()), opKeys(seq)) || s.Len() != len(seq) || s.String() != twin.String() {
					t.Fatalf("%s walk %d: cursor state records %v, walked %v", name, walk, s.Ops(), seq)
				}
				if err := repair.Validate(inst, seq); err != nil {
					t.Fatalf("%s walk %d: %v", name, walk, err)
				}
			}
		}
	}
}
