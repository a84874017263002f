package repair

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/constraint"
	"repro/internal/logic"
	"repro/internal/relation"
)

// This file holds the representation-equivalence properties for the
// interned / copy-on-write substrate: every state reached through the
// incremental machinery (COW database clones, delta-maintained violation
// sets, id-keyed bookkeeping) must be indistinguishable from a state
// recomputed from scratch with the reference implementations
// (FindViolations, InsertAll/DeleteAll on a fresh database).

// rebuildResult replays the sequence of ops on a fresh copy of the initial
// database without any copy-on-write sharing: every fact set is rebuilt
// from the ground up.
func rebuildResult(inst *Instance, s *State) *relation.Database {
	out := relation.FromFacts(inst.Initial().Facts()...)
	for _, op := range s.Ops() {
		if op.IsInsert() {
			out.InsertAll(op.Facts())
		} else {
			out.DeleteAll(op.Facts())
		}
	}
	return out
}

// TestQuickIncrementalStateMatchesRecompute walks the full tree of random
// mixed instances and, at every state, checks that the COW database and the
// delta-maintained violation set agree exactly with from-scratch
// recomputation — both as interned sets and through the canonical string
// encodings (which are independent of interning order).
func TestQuickIncrementalStateMatchesRecompute(t *testing.T) {
	check := func(seed int64) bool {
		inst := randomMixedInstance(seed)
		ok := true
		count := 0
		Walk(inst, func(s *State) bool {
			count++
			if count > 20000 {
				return false
			}
			fresh := rebuildResult(inst, s)
			if !s.Result().Equal(fresh) {
				t.Logf("seed %d: state %q database diverged from replay", seed, s)
				ok = false
				return false
			}
			if s.Result().Key() != fresh.Key() {
				t.Logf("seed %d: state %q database key diverged", seed, s)
				ok = false
				return false
			}
			wantVio := constraint.FindViolations(fresh, inst.Sigma())
			gotKeys := strings.Join(s.Violations().Keys(), ";")
			wantKeys := strings.Join(wantVio.Keys(), ";")
			if gotKeys != wantKeys {
				t.Logf("seed %d: state %q violations %q, want %q", seed, s, gotKeys, wantKeys)
				ok = false
				return false
			}
			// The id-keyed bookkeeping must match the set difference with
			// the initial database.
			added, removed := s.Result().SymmetricDiff(inst.Initial())
			var h history
			if s.hist != nil {
				h = *s.hist
			}
			if len(added) != len(h.added) || len(removed) != len(h.removed) {
				t.Logf("seed %d: state %q bookkeeping added=%d/%d removed=%d/%d",
					seed, s, len(h.added), len(added), len(h.removed), len(removed))
				ok = false
				return false
			}
			for _, f := range added {
				if !h.added.Has(f) {
					ok = false
					return false
				}
			}
			for _, f := range removed {
				if !h.removed.Has(f) {
					ok = false
					return false
				}
			}
			return true
		})
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestQuickDomMatchesRecompute: the incrementally maintained active domain
// of every reachable state equals a from-scratch scan.
func TestQuickDomMatchesRecompute(t *testing.T) {
	check := func(seed int64) bool {
		inst := randomMixedInstance(seed)
		ok := true
		count := 0
		Walk(inst, func(s *State) bool {
			count++
			if count > 5000 {
				return false
			}
			got := strings.Join(s.Result().Dom(), ",")
			want := strings.Join(rebuildResult(inst, s).Dom(), ",")
			if got != want {
				t.Logf("seed %d: state %q dom %q, want %q", seed, s, got, want)
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// naiveHomSearch is the from-scratch reference for the indexed search:
// plain backtracking in the given atom order over a full scan of the fact
// list — no indexes, no join planning, no snapshot/delta logic.
func naiveHomSearch(atoms []logic.Atom, facts []relation.Fact, base logic.Subst) []logic.Subst {
	var out []logic.Subst
	var rec func(i int, cur logic.Subst)
	rec = func(i int, cur logic.Subst) {
		if i == len(atoms) {
			out = append(out, cur.Clone())
			return
		}
		a := atoms[i]
		for _, f := range facts {
			if f.Pred() != a.Pred || f.Arity() != len(a.Args) {
				continue
			}
			next := cur.Clone()
			ok := true
			for j, t := range a.Args {
				c := f.Arg(j)
				if t.IsConst() {
					if t.Sym() != c {
						ok = false
						break
					}
					continue
				}
				if !next.Bind(t.Sym(), c) {
					ok = false
					break
				}
			}
			if ok {
				rec(i+1, next)
			}
		}
	}
	rec(0, base.Clone())
	return out
}

// naiveViolationKeys recomputes V(D,Σ) with the naive matcher, straight
// from Definition 2: every body homomorphism is checked against the
// constraint's head, equality, or denial semantics.
func naiveViolationKeys(d *relation.Database, sigma *constraint.Set) string {
	facts := d.Facts()
	seen := map[string]bool{}
	var keys []string
	for _, c := range sigma.All() {
		for _, h := range naiveHomSearch(c.Body(), facts, logic.NewSubst()) {
			violated := false
			switch c.Kind() {
			case constraint.TGD:
				violated = len(naiveHomSearch(c.Head(), facts, h)) == 0
			case constraint.EGD:
				l, r := c.Equality()
				lv, _ := h.Lookup(l.Sym())
				rv, _ := h.Lookup(r.Sym())
				violated = lv != rv
			case constraint.DC:
				violated = true
			}
			if violated {
				if k := constraint.NewViolation(c, h).Key(); !seen[k] {
					seen[k] = true
					keys = append(keys, k)
				}
			}
		}
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// TestQuickIndexedViolationsMatchNaiveScan: at every state of the walk tree
// — each reached through copy-on-write clones carrying per-walk deltas —
// the indexed FindViolations agrees with the naive unindexed recomputation.
func TestQuickIndexedViolationsMatchNaiveScan(t *testing.T) {
	check := func(seed int64) bool {
		inst := randomMixedInstance(seed)
		ok := true
		count := 0
		Walk(inst, func(s *State) bool {
			count++
			if count > 4000 {
				return false
			}
			got := strings.Join(constraint.FindViolations(s.Result(), inst.Sigma()).Keys(), ";")
			want := naiveViolationKeys(s.Result(), inst.Sigma())
			if got != want {
				t.Logf("seed %d: state %q indexed violations %q, want %q", seed, s, got, want)
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestIndexedViolationsAcrossMutations drives a database through random
// interleavings of inserts, deletes, clones, and explicit seals — so
// violation detection runs against every mix of snapshot index and pending
// delta — and checks FindViolations against the naive scan at every step.
func TestIndexedViolationsAcrossMutations(t *testing.T) {
	x, y, z := v("x"), v("y"), v("z")
	sigma := constraint.NewSet(
		constraint.MustEGD([]logic.Atom{at("R", x, y), at("R", x, z)}, y, z),
		constraint.MustTGD([]logic.Atom{at("R", x, y)}, []logic.Atom{at("S", y)}),
		constraint.MustDC([]logic.Atom{at("U", x), at("S", x)}),
	)
	consts := []string{"a", "b", "c"}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randomFact := func() relation.Fact {
			switch rng.Intn(3) {
			case 0:
				return f("R", consts[rng.Intn(3)], consts[rng.Intn(3)])
			case 1:
				return f("S", consts[rng.Intn(3)])
			default:
				return f("U", consts[rng.Intn(3)])
			}
		}
		dbs := []*relation.Database{relation.NewDatabase()}
		for step := 0; step < 150; step++ {
			d := dbs[rng.Intn(len(dbs))]
			switch op := rng.Intn(10); {
			case op < 5:
				d.Insert(randomFact())
			case op < 8:
				d.Delete(randomFact())
			case op < 9:
				if len(dbs) < 4 {
					dbs = append(dbs, d.Clone())
				}
			default:
				d.Seal()
			}
			got := strings.Join(constraint.FindViolations(d, sigma).Keys(), ";")
			if want := naiveViolationKeys(d, sigma); got != want {
				t.Fatalf("seed %d step %d: indexed violations %q, want %q", seed, step, got, want)
			}
		}
	}
}

// TestSurveyInvariantUnderMaterialization: Survey statistics do not depend
// on how the input database was materialized — freshly inserted, cloned,
// explicitly sealed, or round-tripped through a delete/re-insert delta.
func TestSurveyInvariantUnderMaterialization(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fresh := relation.NewDatabase()
		for i := 0; i < 3+rng.Intn(4); i++ {
			fresh.Insert(f("R", string(rune('a'+rng.Intn(3))), string(rune('a'+rng.Intn(3)))))
		}
		sigma := func() *constraint.Set {
			x, y, z := v("x"), v("y"), v("z")
			return constraint.NewSet(constraint.MustEGD(
				[]logic.Atom{at("R", x, y), at("R", x, z)}, y, z))
		}

		variants := map[string]*relation.Database{}
		variants["fresh"] = fresh

		cloned := fresh.Clone()
		variants["cloned"] = cloned

		sealed := fresh.Clone()
		sealed.Seal()
		variants["sealed"] = sealed

		churned := fresh.Clone()
		churned.Seal()
		for _, fact := range fresh.Facts() {
			churned.Delete(fact)
			churned.Insert(fact)
		}
		variants["churned"] = churned

		var want Stats
		first := true
		for name, db := range variants {
			got := Survey(MustInstance(db, sigma()))
			if first {
				want, first = got, false
				continue
			}
			if got != want {
				t.Errorf("seed %d: Survey over %s db = %+v, want %+v", seed, name, got, want)
			}
		}
	}
}
