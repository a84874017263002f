package repair_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/constraint"
	"repro/internal/repair"
	"repro/internal/workload"
)

func violationKeys(vs *constraint.Violations) []string {
	var keys []string
	for _, v := range vs.ByID() {
		keys = append(keys, v.Key())
	}
	return keys
}

// TestQuickDeferredChildMatchesChild walks random operation sequences over
// random TGD-free instances — key groups, preferences, a chain, cliques
// (multi-fact deletions), a three-atom path denial, and 40 key groups
// whose 80 conflicted facts need a key longer than one machine word —
// twice in step: once
// through Child, once through conflict keys and DeferredChild, whose
// extension lists come from ConflictIndex.AppendExtensions on the key. At
// every step the two states must agree on the database, the violations in
// order, the extensions in order and the operation sequence; the deferred
// state's database is built only when it is read, from the root. Every
// other walk reads the deferred database only at the end, so most
// deferred states are never built and later ones are built below unbuilt
// ancestors.
func TestQuickDeferredChildMatchesChild(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		instances := tgdFreeInstances(seed)
		instances["keys-wide"] = repair.MustInstance(workload.KeyViolations(workload.KeyConfig{
			Keys: 45, Violations: 40, Seed: seed,
		}))
		for name, inst := range instances {
			ix, err := inst.Conflicts()
			if err != nil {
				t.Fatal(err)
			}
			for walk := 0; walk < 4; walk++ {
				rng := rand.New(rand.NewSource(seed*100 + int64(walk)))
				lazy := walk%2 == 1
				twin, def, key := inst.Root(), ix.Root(), ix.RootKey()
				for step := 0; ; step++ {
					exts := twin.Extensions()
					if got := opKeys(def.Extensions()); !slices.Equal(got, opKeys(exts)) {
						t.Fatalf("%s walk %d step %d: deferred extensions %v, Child %v", name, walk, step, got, opKeys(exts))
					}
					if !lazy || len(exts) == 0 {
						if got, want := def.Result().Key(), twin.Result().Key(); got != want {
							t.Fatalf("%s walk %d step %d: deferred database %s, Child %s", name, walk, step, got, want)
						}
						if got, want := violationKeys(def.Violations()), violationKeys(twin.Violations()); !slices.Equal(got, want) {
							t.Fatalf("%s walk %d step %d: deferred violations %v, Child %v", name, walk, step, got, want)
						}
						if def.Consistent() != twin.Consistent() || def.IsComplete() != twin.IsComplete() {
							t.Fatalf("%s walk %d step %d: deferred and Child states disagree on consistency or completeness", name, walk, step)
						}
					}
					if got, want := opKeys(def.Ops()), opKeys(twin.Ops()); !slices.Equal(got, want) || def.String() != twin.String() {
						t.Fatalf("%s walk %d step %d: deferred state records %v, Child %v", name, walk, step, got, want)
					}
					if len(exts) == 0 {
						break
					}
					op := exts[rng.Intn(len(exts))]
					child, ok := ix.AppendChildKey(nil, key, op)
					if !ok {
						t.Fatalf("%s walk %d step %d: extension %s rejected by its own key", name, walk, step, op)
					}
					if _, ok := ix.AppendChildKey(nil, string(child), op); ok {
						t.Fatalf("%s walk %d step %d: %s accepted after its facts were deleted", name, walk, step, op)
					}
					key = string(child)
					twin = twin.Child(op)
					def = def.DeferredChild(op, ix.AppendExtensions(nil, key), key)
				}
			}
		}
	}
}
