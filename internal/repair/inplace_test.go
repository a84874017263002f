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
// instances with ChildInPlace. At every step the in-place state's
// violation ids and extension list must equal those of a twin built with
// Child, and those recomputed from scratch on the state's database
// (FindViolations and the justified-operation enumeration); the final
// sequence must pass the Definition 4 validator. Every other walk leaves
// the in-place state's extensions unrequested on alternate steps, so the
// step also runs with an unknown parent list.
func TestQuickInPlaceStepMatchesChildAndScratch(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		for name, inst := range tgdFreeInstances(seed) {
			sigma := inst.Sigma()
			for walk := 0; walk < 4; walk++ {
				rng := rand.New(rand.NewSource(seed*100 + int64(walk)))
				lazy := walk%2 == 1
				s, twin := inst.Root(), inst.Root()
				var seq []ops.Op
				for step := 0; ; step++ {
					scratch := constraint.FindViolations(s.Result(), sigma)
					want := violationIDs(scratch)
					if got := violationIDs(s.Violations()); !slices.Equal(got, want) {
						t.Fatalf("%s walk %d step %d: in-place violations %v, from scratch %v", name, walk, step, got, want)
					}
					if got := violationIDs(twin.Violations()); !slices.Equal(got, want) {
						t.Fatalf("%s walk %d step %d: Child violations %v, from scratch %v", name, walk, step, got, want)
					}
					exts := twin.Extensions()
					wantExts := opKeys(ops.JustifiedOps(s.Result(), sigma, scratch, inst.Base()))
					if got := opKeys(exts); !slices.Equal(got, wantExts) {
						t.Fatalf("%s walk %d step %d: Child extensions %v, from scratch %v", name, walk, step, got, wantExts)
					}
					if !lazy || step%2 == 0 {
						if got := opKeys(s.Extensions()); !slices.Equal(got, wantExts) {
							t.Fatalf("%s walk %d step %d: in-place extensions %v, from scratch %v", name, walk, step, got, wantExts)
						}
					}
					if len(exts) == 0 {
						break
					}
					op := exts[rng.Intn(len(exts))]
					seq = append(seq, op)
					twin = twin.Child(op)
					s = s.ChildInPlace(op)
				}
				if !slices.Equal(opKeys(s.Ops()), opKeys(seq)) {
					t.Fatalf("%s walk %d: in-place state records %v, walked %v", name, walk, s.Ops(), seq)
				}
				if err := repair.Validate(inst, seq); err != nil {
					t.Fatalf("%s walk %d: %v", name, walk, err)
				}
			}
		}
	}
}
