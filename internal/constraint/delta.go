package constraint

import (
	"slices"

	"repro/internal/intern"
	"repro/internal/logic"
	"repro/internal/relation"
)

// This file implements incremental maintenance of violation sets: given
// V(D,Σ) and an update that inserted or deleted a set of facts, compute
// V(D',Σ) without re-running homomorphism search for unaffected
// constraints. This realizes the "localization of repairs" optimization
// sketched in Section 6 of the paper and is the workhorse behind fast
// chain walks; FindViolations remains the reference implementation and the
// test suite checks the two agree on random transitions.
//
// Correctness cases:
//
//   - EGD/DC + deletion: a violation disappears iff its body loses a fact;
//     no violation can appear. Pure filtering, no search.
//   - EGD/DC + insertion: existing violations persist (their bodies are
//     untouched); new violations must map at least one body atom to an
//     inserted fact (semi-naive delta search).
//   - TGD: insertions can both create violations (new body matches) and
//     satisfy old ones (new head witnesses); deletions can both remove
//     violations (destroyed bodies) and create them (destroyed witnesses).
//     TGDs whose body or head mentions a changed predicate are recomputed
//     in full.
//   - Constraints mentioning none of the changed predicates keep their
//     violations verbatim.

// changeSet is the interned view of an update's changed facts. Updates
// touch one operation's worth of facts, so tiny slices with linear scans
// beat maps here.
type changeSet struct {
	preds []intern.Sym
	facts []relation.Fact
}

func newChangeSet(changed []relation.Fact, buf []intern.Sym) changeSet {
	// The fact slice is aliased, not copied: callers pass the change set of
	// an applied operation and do not mutate it while violations update.
	// buf (usually a caller-stack array) backs the predicate list so the
	// per-step construction allocates nothing.
	cs := changeSet{facts: changed, preds: buf}
	for _, f := range changed {
		p := f.Pred()
		if !cs.hasPred(p) {
			cs.preds = append(cs.preds, p)
		}
	}
	return cs
}

func (cs changeSet) hasPred(p intern.Sym) bool {
	for _, q := range cs.preds {
		if q == p {
			return true
		}
	}
	return false
}

// UpdateViolations computes V(dNew, Σ) from before = V(dOld, Σ), where
// dNew is dOld with the facts `changed` inserted (insert = true) or
// deleted (insert = false). The facts in `changed` must actually have
// changed (as reported by ops.Op.Do). The input set is not modified.
func UpdateViolations(dNew *relation.Database, s *Set, before *Violations, changed []relation.Fact, insert bool) *Violations {
	out, _ := UpdateViolationsDiff(dNew, s, before, changed, insert)
	return out
}

// UpdateViolationsDiff is UpdateViolations extended to also report the
// eliminated violations (before − after), which the repair state tracks at
// every step. On the deletion-only fast path the eliminated set falls out
// of the filtering pass for free; only TGD recomputes pay a set
// difference.
func UpdateViolationsDiff(dNew *relation.Database, s *Set, before *Violations, changed []relation.Fact, insert bool) (*Violations, []Violation) {
	out, eliminated, _ := UpdateViolationsDelta(dNew, s, before, changed, insert)
	return out, eliminated
}

// UpdateViolationsDelta is UpdateViolationsDiff extended to also report the
// introduced violations (after − before), giving the full violation-set
// transition in one pass. The incremental partition maintenance of the abc
// package consumes both sides of the delta. Introduced violations are
// collected for free on the EGD/DC insertion path (a semi-naive hit whose
// body includes an inserted fact cannot have been a violation before); only
// TGD recomputes pay the set differences.
func UpdateViolationsDelta(dNew *relation.Database, s *Set, before *Violations, changed []relation.Fact, insert bool) (after *Violations, eliminated, introduced []Violation) {
	var predsBuf [4]intern.Sym
	cs := newChangeSet(changed, predsBuf[:0])

	out := &Violations{vs: make([]Violation, 0, before.Len()), sorted: true}
	needDiff := false
	for _, c := range s.constraints {
		switch {
		case !constraintTouches(c, cs):
			// Unaffected: copy this constraint's violations.
			copyConstraintViolations(out, before, c)

		case c.kind == TGD:
			// Full recompute for this constraint only; the eliminated and
			// introduced violations are recovered by set differences
			// afterwards.
			needDiff = true
			relation.ForEachHom(c.body, dNew, logic.NewSubst(), func(h logic.Subst) bool {
				if c.violatedBy(dNew, h) {
					out.add(NewViolation(c, h))
				}
				return true
			})

		case !insert:
			eliminated = out.appendUndeleted(before.constraintRange(c), cs.facts, eliminated)

		default:
			// EGD/DC + insertion: keep the old violations, merge in the
			// delta. The introductions are collected and stitched into the
			// copied run in ID order so the output stays sorted — appending
			// them after the run would force norm into a full re-sort of the
			// whole set on every insertion, the hot ingest path.
			var added []Violation
			forEachHomTouching(c.body, dNew, cs, func(h logic.Subst) {
				if c.violatedBy(dNew, h) {
					v := NewViolation(c, h)
					introduced = append(introduced, v)
					added = append(added, v)
				}
			})
			if len(added) == 0 {
				copyConstraintViolations(out, before, c)
				break
			}
			slices.SortFunc(added, func(a, b Violation) int {
				ai, bi := a.ID(), b.ID()
				switch {
				case ai < bi:
					return -1
				case ai > bi:
					return 1
				}
				return 0
			})
			run := before.constraintRange(c)
			start := 0
			for _, v := range added {
				id := v.ID()
				i := start
				for i < len(run) && run[i].ID() < id {
					i++
				}
				out.appendRun(run[start:i])
				start = i
				if i < len(run) && run[i].ID() == id {
					// Already present: keep the new copy alone, exactly as
					// norm's dedup would have.
					start = i + 1
				}
				out.add(v)
			}
			out.appendRun(run[start:])
		}
	}
	out.norm()
	if needDiff {
		eliminated = before.Minus(out)
		introduced = out.Minus(before)
	}
	return out, eliminated, introduced
}

// TouchedFacts returns the distinct facts implicated in a violation-set
// transition: the changed facts themselves plus every body fact of an
// eliminated or introduced violation, sorted. This is the exact set of
// facts whose conflict-component membership an update can alter — a
// component containing none of them keeps its fact set and violations
// verbatim — so it scopes the incremental re-partitioning of abc.Partition.
func TouchedFacts(changed []relation.Fact, eliminated, introduced []Violation) []relation.Fact {
	seen := map[relation.Fact]bool{}
	var out []relation.Fact
	add := func(f relation.Fact) {
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	for _, f := range changed {
		add(f)
	}
	for _, v := range eliminated {
		for _, f := range v.BodyFacts() {
			add(f)
		}
	}
	for _, v := range introduced {
		for _, f := range v.BodyFacts() {
			add(f)
		}
	}
	relation.SortFacts(out)
	return out
}

// IntroducedViolations returns only the violations of dNew that were not
// violations before the update — the set after − before. It is the cheap
// side of UpdateViolations, used by the req2 admissibility check: a
// candidate operation is inadmissible iff it reintroduces an eliminated
// violation, and eliminated violations are disjoint from the current set,
// so only genuinely new violations matter. For EGD/DC deletions the answer
// is always empty without any search. before is read only for TGDs, so a
// TGD-free caller that keeps no flat violation set may pass nil.
func IntroducedViolations(dNew *relation.Database, s *Set, before *Violations, changed []relation.Fact, insert bool) []Violation {
	var predsBuf [4]intern.Sym
	cs := newChangeSet(changed, predsBuf[:0])
	var out []Violation
	for _, c := range s.constraints {
		switch {
		case !constraintTouches(c, cs):
			// Unaffected constraints introduce nothing.

		case c.kind == TGD:
			relation.ForEachHom(c.body, dNew, logic.NewSubst(), func(h logic.Subst) bool {
				if c.violatedBy(dNew, h) {
					v := NewViolation(c, h)
					if !before.Has(v.ID()) {
						out = append(out, v)
					}
				}
				return true
			})

		case !insert:
			// EGD/DC deletions can only remove violations.

		default:
			forEachHomTouching(c.body, dNew, cs, func(h logic.Subst) {
				if c.violatedBy(dNew, h) {
					out = append(out, NewViolation(c, h))
				}
			})
		}
	}
	return out
}

// MayIntroduceViolations reports whether an update of the given polarity
// touching the given predicates can possibly create a new violation:
// insertions need a constraint body mentioning a touched predicate;
// deletions can only create TGD violations by destroying head witnesses.
// When this returns false, callers may skip computing the introduced set
// (and the database update itself) entirely. The per-set predicate caches
// make this a map probe per predicate.
func (s *Set) MayIntroduceViolations(preds []intern.Sym, insert bool) bool {
	for _, p := range preds {
		if insert {
			if s.bodyPreds[p] {
				return true
			}
		} else if s.tgdHeadPreds[p] {
			return true
		}
	}
	return false
}

// constraintTouches reports whether any body or head predicate of c is in
// the changed set.
func constraintTouches(c *Constraint, cs changeSet) bool {
	for _, a := range c.body {
		if cs.hasPred(a.Pred) {
			return true
		}
	}
	for _, a := range c.head {
		if cs.hasPred(a.Pred) {
			return true
		}
	}
	return false
}

func copyConstraintViolations(dst *Violations, src *Violations, c *Constraint) {
	dst.appendRun(src.constraintRange(c))
}

// appendUndeleted is the EGD/DC deletion rule, the one place it is
// written down: after the facts in deleted leave the database, a violation
// disappears iff its body lost one of them, and no violation appears. It
// appends the violations of run that keep their whole body to vs and the
// others to gone, which it returns. run must be ID-sorted and may alias
// vs's own storage from the current end on (DeleteFacts filters in place
// that way). Survivors are copied as the bulk runs between eliminations,
// so the sortedness check of appendRun is paid once per eliminated
// violation. vs may be nil, which keeps no survivors (EliminatedBy).
func (vs *Violations) appendUndeleted(run []Violation, deleted []relation.Fact, gone []Violation) []Violation {
	start := 0
	for i, v := range run {
		for _, f := range deleted {
			if v.bodyHasFact(f) {
				if vs != nil {
					vs.appendRun(run[start:i])
				}
				gone = append(gone, v)
				start = i + 1
				break
			}
		}
	}
	if vs != nil {
		vs.appendRun(run[start:])
	}
	return gone
}

// EliminatedBy applies the EGD/DC deletion rule of appendUndeleted to a
// run of violations without keeping the survivors: it appends to gone the
// violations of run whose body holds one of the deleted facts and returns
// it. A caller that stores violations per conflict island passes the runs
// of the deleted facts' islands, since no other violation can lose a body
// fact.
func EliminatedBy(run []Violation, deleted []relation.Fact, gone []Violation) []Violation {
	return (*Violations)(nil).appendUndeleted(run, deleted, gone)
}

// DeleteFacts updates vs in place to the violation set left once the given
// facts are deleted from the database, appending the violations that
// disappear to gone and returning it. It applies the EGD/DC deletion rule
// to the whole set, so every violation in vs must be of an EGD or a DC
// (for a TGD, a deletion can also destroy a head witness and create a
// violation; use UpdateViolationsDiff). The set is modified, so it must
// not be shared: Clone it first when it is.
func (vs *Violations) DeleteFacts(deleted []relation.Fact, gone []Violation) []Violation {
	vs.norm()
	run := vs.vs
	vs.vs = run[:0]
	return vs.appendUndeleted(run, deleted, gone)
}

// WithoutFacts returns, as a new set, the violation set left once the
// given facts are deleted from the database. It applies the EGD/DC
// deletion rule of DeleteFacts without modifying vs, and copies only the
// survivors.
func (vs *Violations) WithoutFacts(deleted []relation.Fact) *Violations {
	vs.norm()
	out := &Violations{sorted: true}
	var goneBuf [16]Violation
	out.appendUndeleted(vs.vs, deleted, goneBuf[:0])
	return out
}

// Clone returns a copy of vs that shares no storage with it. Unlike
// ViolationsOf it copies an already normalized set verbatim, with no
// re-sort or dedup pass: walks clone the root set once per walk.
func (vs *Violations) Clone() *Violations {
	vs.norm()
	return &Violations{vs: slices.Clone(vs.vs), sorted: true}
}

// forEachHomTouching enumerates the homomorphisms from atoms into d that
// map at least one atom onto a changed fact (the semi-naive delta): for
// each atom position in turn, the atom is pinned to each changed fact and
// the remaining atoms are matched against the full database — with the
// pivot's variables pre-bound, so the indexed search touches only matching
// buckets. Duplicate homomorphisms (touching several changed facts) are
// emitted once; the dedup key packs the bound symbols in canonical
// variable order. A single (pivot atom, changed fact) pair cannot produce
// duplicates, so the dedup machinery is skipped entirely in that common
// walk-step case.
func forEachHomTouching(atoms []logic.Atom, d *relation.Database, cs changeSet, fn func(logic.Subst)) {
	pairs := 0
	for _, a := range atoms {
		for _, f := range cs.facts {
			if f.Pred() == a.Pred {
				pairs++
			}
		}
	}
	if pairs == 0 {
		return
	}
	var vars []intern.Sym
	var seen map[string]bool
	if pairs > 1 {
		vars = logic.VarSymsOf(atoms)
		seen = map[string]bool{}
	}
	var packBuf [64]byte
	var valBuf [16]intern.Sym
	for i, pivot := range atoms {
		if !cs.hasPred(pivot.Pred) {
			continue
		}
		rest := make([]logic.Atom, 0, len(atoms)-1)
		rest = append(rest, atoms[:i]...)
		rest = append(rest, atoms[i+1:]...)
		// The changed facts are the pivots (they are all in d by
		// construction), so iterate them directly instead of scanning the
		// database's per-predicate list.
		for _, f := range cs.facts {
			if f.Pred() != pivot.Pred {
				continue
			}
			fargs := f.Args()
			if len(fargs) != len(pivot.Args) {
				continue
			}
			base := logic.NewSubst()
			ok := true
			for j, t := range pivot.Args {
				if t.IsConst() {
					if t.Sym() != fargs[j] {
						ok = false
						break
					}
					continue
				}
				if !base.Bind(t.Sym(), fargs[j]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			relation.ForEachHom(rest, d, base, func(h logic.Subst) bool {
				if seen == nil {
					fn(h)
					return true
				}
				vals := valBuf[:0]
				for _, v := range vars {
					vals = append(vals, h[v])
				}
				key := intern.PackSyms(packBuf[:0], vals)
				if !seen[string(key)] {
					seen[string(key)] = true
					fn(h)
				}
				return true
			})
		}
	}
}
