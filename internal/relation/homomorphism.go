package relation

import (
	"repro/internal/intern"
	"repro/internal/logic"
)

// This file implements backtracking homomorphism search from conjunctions
// of atoms into databases. A homomorphism h maps the variables of the atoms
// to constants (it is the identity on constants) so that every atom lands on
// a fact of the database. Constraint satisfaction, violation detection, and
// conjunctive-query evaluation are all phrased in terms of this search.
//
// With interned symbols the inner unification loop is pure integer
// comparison: an atom argument either pins a constant symbol or binds a
// variable symbol to the candidate fact's argument symbol. Whenever an atom
// argument is already pinned — a constant, or a variable bound by the base
// substitution or an earlier join level — the candidate facts come from the
// snapshot's argument index (index.go) instead of a per-predicate scan, so
// a bound atom costs O(bucket) instead of O(|R|).

// ForEachHom enumerates the homomorphisms from atoms into d that extend
// base. The callback receives a substitution owned by the callee (clone it
// to retain); returning false stops the enumeration early. The base
// substitution itself is not modified. ForEachHom reports whether the
// enumeration ran to completion (i.e. was not stopped by the callback).
func ForEachHom(atoms []logic.Atom, d *Database, base logic.Subst, fn func(logic.Subst) bool) bool {
	if len(atoms) == 0 {
		return fn(base.Clone())
	}
	// A bulk-load-sized delta would drag every join level through linear
	// delta scans; fold it into an indexed snapshot first. Databases with
	// such deltas are single-owner by contract, and walk-sized deltas stay
	// far below the floor, so mid-walk states never pay the rebuild.
	if d.DeltaSize() >= autoSealFloor {
		d.Seal()
	}
	order := planOrder(atoms, d, base)
	cur := base.Clone()
	return matchFrom(order, 0, d, cur, fn)
}

// FindHoms returns all homomorphisms from atoms into d extending base
// (pass nil for an unconstrained search).
func FindHoms(atoms []logic.Atom, d *Database, base logic.Subst) []logic.Subst {
	if base == nil {
		base = logic.NewSubst()
	}
	var out []logic.Subst
	ForEachHom(atoms, d, base, func(h logic.Subst) bool {
		out = append(out, h.Clone())
		return true
	})
	return out
}

// HasHom reports whether at least one homomorphism from atoms into d
// extends base (pass nil for an unconstrained search).
func HasHom(atoms []logic.Atom, d *Database, base logic.Subst) bool {
	if base == nil {
		base = logic.NewSubst()
	}
	found := false
	ForEachHom(atoms, d, base, func(logic.Subst) bool {
		found = true
		return false
	})
	return found
}

// planOrder chooses an evaluation order for the atoms: at each step pick the
// atom with the smallest estimated number of candidate facts. The estimate
// is read off the argument indexes — the exact bucket size when the pinning
// symbol is known at planning time (a constant or a base binding), the mean
// bucket size for variables bound by earlier atoms in the order — so the
// greedy join ordering follows real cardinalities instead of a guess.
func planOrder(atoms []logic.Atom, d *Database, base logic.Subst) []logic.Atom {
	if len(atoms) <= 1 {
		return atoms
	}
	remaining := make([]logic.Atom, len(atoms))
	copy(remaining, atoms)
	bound := map[intern.Sym]bool{}
	for v := range base {
		bound[v] = true
	}
	order := make([]logic.Atom, 0, len(atoms))
	for len(remaining) > 0 {
		bestIdx, bestScore := 0, int(^uint(0)>>1)
		for i, a := range remaining {
			score := estimateCandidates(d, a, base, bound)
			if score < bestScore {
				bestScore, bestIdx = score, i
			}
		}
		chosen := remaining[bestIdx]
		order = append(order, chosen)
		for _, t := range chosen.Args {
			if t.IsVar() {
				bound[t.Sym()] = true
			}
		}
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	return order
}

// estimateCandidates predicts how many facts the join level for atom a will
// enumerate: the smallest index bucket over its pinned argument positions,
// halved once per additional pinned position (each one filters further),
// and the full predicate cardinality when nothing is pinned.
func estimateCandidates(d *Database, a logic.Atom, base logic.Subst, bound map[intern.Sym]bool) int {
	best := d.PredCount(a.Pred)
	pinned := 0
	for j, t := range a.Args {
		var n int
		if c, ok := base.Val(t); ok {
			// The pinning symbol is known now: exact bucket cardinality.
			n = d.CountAt(a.Pred, j, c)
		} else if t.IsVar() && bound[t.Sym()] {
			// Bound by an earlier atom; the symbol is only known during
			// evaluation, so use the mean bucket size of the position.
			n = d.avgBucket(a.Pred, j)
		} else {
			continue
		}
		pinned++
		if n < best {
			best = n
		}
	}
	for k := 1; k < pinned; k++ {
		best /= 2
	}
	return best
}

// matchFrom extends cur to cover order[i:]; it reports whether enumeration
// completed without the callback requesting a stop.
func matchFrom(order []logic.Atom, i int, d *Database, cur logic.Subst, fn func(logic.Subst) bool) bool {
	if i == len(order) {
		return fn(cur)
	}
	atom := order[i]

	// Pick the candidate source: among the argument positions pinned by a
	// constant or an already-bound variable, the one with the smallest
	// snapshot bucket. With no pinned position the full per-predicate list
	// is scanned as before.
	bestPos, bestN := -1, int(^uint(0)>>1)
	var bestSym intern.Sym
	pi := d.snap.idx[atom.Pred]
	for j, t := range atom.Args {
		c, ok := cur.Val(t)
		if !ok {
			continue
		}
		n := 0
		if pi != nil && j < len(pi.pos) {
			n = len(pi.pos[j].bucket(c))
		}
		if n < bestN {
			bestN, bestPos, bestSym = n, j, c
		}
	}
	if bestPos < 0 {
		for _, f := range d.FactsByPred(atom.Pred) {
			if !unifyAndRecurse(order, i, d, cur, fn, f) {
				return false
			}
		}
		return true
	}
	return d.forEachMatch(atom.Pred, bestPos, bestSym, func(f Fact) bool {
		return unifyAndRecurse(order, i, d, cur, fn, f)
	})
}

// unifyAndRecurse unifies order[i] with the candidate fact under cur —
// tracking fresh bindings so they are undone on return — and recurses into
// the next join level on success. It reports whether enumeration should
// continue (false propagates a stop requested by the callback).
func unifyAndRecurse(order []logic.Atom, i int, d *Database, cur logic.Subst, fn func(logic.Subst) bool, f Fact) bool {
	atom := order[i]
	fargs := f.Args()
	if len(fargs) != len(atom.Args) {
		return true
	}
	var stackBuf [8]intern.Sym
	added := stackBuf[:0]
	ok := true
	for j, t := range atom.Args {
		c := fargs[j]
		if t.IsConst() {
			if t.Sym() != c {
				ok = false
				break
			}
			continue
		}
		v := t.Sym()
		if existing, bound := cur[v]; bound {
			if existing != c {
				ok = false
				break
			}
			continue
		}
		cur[v] = c
		added = append(added, v)
	}
	cont := true
	if ok {
		cont = matchFrom(order, i+1, d, cur, fn)
	}
	for _, v := range added {
		delete(cur, v)
	}
	return cont
}

// CountHoms returns the number of homomorphisms from atoms into d extending
// base; used by benchmarks and tests.
func CountHoms(atoms []logic.Atom, d *Database, base logic.Subst) int {
	if base == nil {
		base = logic.NewSubst()
	}
	n := 0
	ForEachHom(atoms, d, base, func(logic.Subst) bool {
		n++
		return true
	})
	return n
}
