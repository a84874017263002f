package relation

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/intern"
	"repro/internal/logic"
)

// TestCOWDatabaseShadowModel drives a copy-on-write database through long
// random interleavings of inserts, deletes, clones, and seals, checking
// every observable (membership, size, per-predicate indexes, domain, key)
// against a plain map-based shadow model. Clones fork the shadow too, so
// delta independence between parent and child is exercised throughout.
func TestCOWDatabaseShadowModel(t *testing.T) {
	preds := []string{"R", "S", "T"}
	consts := []string{"a", "b", "c", "d", "e"}
	randomFact := func(rng *rand.Rand) Fact {
		p := preds[rng.Intn(len(preds))]
		if p == "S" {
			return NewFact(p, consts[rng.Intn(len(consts))])
		}
		return NewFact(p, consts[rng.Intn(len(consts))], consts[rng.Intn(len(consts))])
	}

	type pair struct {
		db     *Database
		shadow map[Fact]bool
	}
	checkPair := func(seed int64, step int, pr pair) error {
		if pr.db.Size() != len(pr.shadow) {
			return fmt.Errorf("size = %d, want %d", pr.db.Size(), len(pr.shadow))
		}
		byPred := map[string][]Fact{}
		domSet := map[intern.Sym]bool{}
		for f := range pr.shadow {
			if !pr.db.Contains(f) {
				return fmt.Errorf("missing fact %s", f)
			}
			byPred[f.PredName()] = append(byPred[f.PredName()], f)
			for _, c := range f.Args() {
				domSet[c] = true
			}
		}
		for _, p := range preds {
			got := pr.db.FactsByPred(intern.S(p))
			if len(got) != len(byPred[p]) {
				return fmt.Errorf("FactsByPred(%s) has %d facts, want %d", p, len(got), len(byPred[p]))
			}
			for _, f := range got {
				if !pr.shadow[f] {
					return fmt.Errorf("FactsByPred(%s) returned phantom fact %s", p, f)
				}
			}
			if got, want := pr.db.PredCount(intern.S(p)), len(byPred[p]); got != want {
				return fmt.Errorf("PredCount(%s) = %d, want %d", p, got, want)
			}
			// The argument indexes (snapshot buckets ∪ delta) must agree
			// with a filtered scan of the shadow at every position.
			for pos := 0; pos < 2; pos++ {
				for _, c := range consts {
					sym := intern.S(c)
					want := 0
					for f := range pr.shadow {
						if f.PredName() == p && pos < f.Arity() && f.Arg(pos) == sym {
							want++
						}
					}
					if got := pr.db.CountAt(intern.S(p), pos, sym); got != want {
						return fmt.Errorf("CountAt(%s, %d, %s) = %d, want %d", p, pos, c, got, want)
					}
				}
			}
		}
		if got := pr.db.DomSyms(); len(got) != len(domSet) {
			return fmt.Errorf("dom has %d constants, want %d", len(got), len(domSet))
		}
		for _, c := range pr.db.DomSyms() {
			if !domSet[c] {
				return fmt.Errorf("phantom domain constant %s", c)
			}
			if !pr.db.HasConst(c) {
				return fmt.Errorf("HasConst(%s) = false for domain constant", c)
			}
		}
		// Key equals the key of a freshly built database with the same
		// contents (canonical encoding is content-only).
		var fs []Fact
		for f := range pr.shadow {
			fs = append(fs, f)
		}
		if want := FromFacts(fs...).Key(); pr.db.Key() != want {
			return fmt.Errorf("key mismatch after %d steps", step)
		}
		return nil
	}

	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pairs := []pair{{db: NewDatabase(), shadow: map[Fact]bool{}}}
		for step := 0; step < 400; step++ {
			pr := pairs[rng.Intn(len(pairs))]
			switch op := rng.Intn(10); {
			case op < 5: // insert
				f := randomFact(rng)
				changed := pr.db.Insert(f)
				if changed == pr.shadow[f] {
					t.Fatalf("seed %d step %d: Insert(%s) reported %v with shadow %v",
						seed, step, f, changed, pr.shadow[f])
				}
				pr.shadow[f] = true
			case op < 8: // delete
				f := randomFact(rng)
				changed := pr.db.Delete(f)
				if changed != pr.shadow[f] {
					t.Fatalf("seed %d step %d: Delete(%s) reported %v with shadow %v",
						seed, step, f, changed, pr.shadow[f])
				}
				delete(pr.shadow, f)
			case op < 9: // clone (bounded population)
				if len(pairs) < 6 {
					shadow := make(map[Fact]bool, len(pr.shadow))
					for f := range pr.shadow {
						shadow[f] = true
					}
					pairs = append(pairs, pair{db: pr.db.Clone(), shadow: shadow})
				}
			default: // seal
				pr.db.Seal()
			}
			if err := checkPair(seed, step, pr); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
		for _, pr := range pairs {
			if err := checkPair(seed, -1, pr); err != nil {
				t.Fatalf("seed %d final: %v", seed, err)
			}
		}
	}
}

// naiveHoms is the from-scratch reference for the indexed homomorphism
// search: plain backtracking in the given atom order over a full scan of
// the fact list — no indexes, no join planning, no delta/snapshot logic.
func naiveHoms(atoms []logic.Atom, facts []Fact, base logic.Subst) []logic.Subst {
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

// homKeys canonicalizes a homomorphism list for comparison.
func homKeys(hs []logic.Subst) string {
	keys := make([]string, len(hs))
	for i, h := range hs {
		keys[i] = h.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// TestIndexedHomSearchMatchesNaiveScan drives copy-on-write databases
// through random interleavings of inserts, deletes, clones, and seals and
// checks, at every step, that the indexed ForEachHom enumerates exactly the
// homomorphisms a from-scratch unindexed scan of the shadow fact set finds —
// for joins, constants, repeated variables, and pre-bound base
// substitutions alike.
func TestIndexedHomSearchMatchesNaiveScan(t *testing.T) {
	x, y, z := logic.Var("X"), logic.Var("Y"), logic.Var("Z")
	queries := [][]logic.Atom{
		{logic.NewAtom("R", x, y)},
		{logic.NewAtom("R", x, y), logic.NewAtom("R", y, z)},
		{logic.NewAtom("R", x, x)},
		{logic.NewAtom("R", logic.Const("a"), y)},
		{logic.NewAtom("R", x, y), logic.NewAtom("S", y)},
		{logic.NewAtom("R", x, y), logic.NewAtom("R", x, z)},
		{logic.NewAtom("S", x), logic.NewAtom("T", x, y), logic.NewAtom("R", y, logic.Const("b"))},
	}
	bases := []logic.Subst{
		nil,
		{intern.S("X"): intern.S("a")},
		{intern.S("Y"): intern.S("c")},
	}

	preds := []string{"R", "S", "T"}
	consts := []string{"a", "b", "c", "d"}
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randomFact := func() Fact {
			p := preds[rng.Intn(len(preds))]
			if p == "S" {
				return NewFact(p, consts[rng.Intn(len(consts))])
			}
			return NewFact(p, consts[rng.Intn(len(consts))], consts[rng.Intn(len(consts))])
		}
		type pair struct {
			db     *Database
			shadow map[Fact]bool
		}
		pairs := []pair{{db: NewDatabase(), shadow: map[Fact]bool{}}}
		for step := 0; step < 250; step++ {
			pr := pairs[rng.Intn(len(pairs))]
			switch op := rng.Intn(10); {
			case op < 5:
				f := randomFact()
				pr.db.Insert(f)
				pr.shadow[f] = true
			case op < 8:
				f := randomFact()
				pr.db.Delete(f)
				delete(pr.shadow, f)
			case op < 9:
				if len(pairs) < 5 {
					shadow := make(map[Fact]bool, len(pr.shadow))
					for f := range pr.shadow {
						shadow[f] = true
					}
					pairs = append(pairs, pair{db: pr.db.Clone(), shadow: shadow})
				}
			default:
				pr.db.Seal()
			}

			facts := make([]Fact, 0, len(pr.shadow))
			for f := range pr.shadow {
				facts = append(facts, f)
			}
			qi := rng.Intn(len(queries))
			base := bases[rng.Intn(len(bases))]
			if base == nil {
				base = logic.NewSubst()
			}
			got := homKeys(FindHoms(queries[qi], pr.db, base))
			want := homKeys(naiveHoms(queries[qi], facts, base))
			if got != want {
				t.Fatalf("seed %d step %d query %d: indexed homs %q, want %q",
					seed, step, qi, got, want)
			}
		}
	}
}

// TestAutoSealKeepsBulkLoadingFlat: bulk construction folds deltas into
// snapshots, so a database built by pure insertion ends up with a small
// delta and correct content.
func TestAutoSealKeepsBulkLoadingFlat(t *testing.T) {
	d := NewDatabase()
	n := 4 * autoSealFloor
	for i := 0; i < n; i++ {
		d.Insert(NewFact("R", fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)))
	}
	if d.Size() != n {
		t.Fatalf("size = %d, want %d", d.Size(), n)
	}
	if d.DeltaSize() >= n {
		t.Fatalf("delta never sealed: %d facts still in delta", d.DeltaSize())
	}
	if got := len(d.FactsByPred(intern.S("R"))); got != n {
		t.Fatalf("index has %d facts, want %d", got, n)
	}
}

// TestSealedCloneIsCheapAndIndependent: clones of a sealed database share
// the snapshot but never observe each other's writes.
func TestSealedCloneIsCheapAndIndependent(t *testing.T) {
	d := FromFacts(NewFact("R", "a"), NewFact("R", "b"))
	d.Seal()
	if d.DeltaSize() != 0 {
		t.Fatalf("sealed database has delta %d", d.DeltaSize())
	}
	c1, c2 := d.Clone(), d.Clone()
	c1.Delete(NewFact("R", "a"))
	c2.Insert(NewFact("R", "c"))
	if !d.Contains(NewFact("R", "a")) || d.Contains(NewFact("R", "c")) {
		t.Error("writes to clones leaked into the sealed parent")
	}
	if c1.Contains(NewFact("R", "c")) || !c2.Contains(NewFact("R", "a")) {
		t.Error("writes leaked between sibling clones")
	}
	if got := strings.Join(c1.Dom(), ","); got != "b" {
		t.Errorf("c1 dom = %q, want b", got)
	}
}

// TestSealKeepsFactsByPredOrder: Seal lays each predicate's facts out in
// the order FactsByPred served before it — the old snapshot's order minus
// the deleted facts, then the inserted ones — through any history of
// Clone/Delete/Insert/Seal, so two databases with the same history agree
// on it fact for fact (the homomorphism order, and with it the DIMACS
// clause order, is read off this layout).
func TestSealKeepsFactsByPredOrder(t *testing.T) {
	build := func() (*Database, [][]Fact) {
		rng := rand.New(rand.NewSource(5))
		d := NewDatabase()
		for i := 0; i < 600; i++ { // auto-seals part way through
			d.Insert(NewFact(fmt.Sprintf("P%d", i%3), fmt.Sprintf("c%d", i), "x"))
		}
		d.Seal()
		var orders [][]Fact
		for round := 0; round < 4; round++ {
			d = d.Clone()
			for i := 0; i < 80; i++ {
				f := NewFact(fmt.Sprintf("P%d", rng.Intn(3)), fmt.Sprintf("c%d", rng.Intn(800)), "x")
				if rng.Intn(2) == 0 {
					d.Delete(f)
				} else {
					d.Insert(f)
				}
			}
			var before [][]Fact
			for p := 0; p < 3; p++ {
				before = append(before, append([]Fact(nil), d.FactsByPredName(fmt.Sprintf("P%d", p))...))
			}
			d.Seal()
			for p := 0; p < 3; p++ {
				after := d.FactsByPredName(fmt.Sprintf("P%d", p))
				if fmt.Sprint(after) != fmt.Sprint(before[p]) {
					t.Fatalf("round %d: Seal reordered P%d's facts", round, p)
				}
			}
			orders = append(orders, before...)
		}
		return d, orders
	}
	_, a := build()
	_, b := build()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("two databases with the same history lay their facts out in different orders")
	}
}
