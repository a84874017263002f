package fo

import (
	"encoding/binary"
	"slices"

	"repro/internal/intern"
	"repro/internal/logic"
	"repro/internal/relation"
)

// Lineage is the witness lineage of a conjunctive query over a database D,
// relative to a list of conflicted facts of D. A witness is the image of
// one homomorphism from the query body into D. For every candidate answer
// tuple the lineage records whether some witness uses no conflicted fact
// and, when none does, the distinct sets of conflicted facts its witnesses
// use.
//
// A CQ is monotone, so on any subset of D that keeps every non-conflicted
// fact — every repair of a deletion-only repairing process, and every
// round of the practical scheme — a tuple is an answer exactly when it is
// certain or one of its witnesses lost no fact. ForEachAnswer reads those
// answers off the lineage without running the join again. This is the
// witness pass of the CAvSAT encoding (arXiv 1905.02828); the SAT
// certain-answer compiler maps the same witness sets to clauses.
type Lineage struct {
	// Candidates lists the tuples with at least one witness on D, in the
	// order the homomorphism search first met them.
	Candidates []LineageCandidate
}

// LineageCandidate is one candidate answer tuple of a Lineage.
type LineageCandidate struct {
	Tuple []intern.Sym
	// Certain reports a witness that uses no conflicted fact: the tuple
	// answers on every subset of D that keeps the non-conflicted facts.
	Certain bool
	// Witnesses lists the distinct witnesses of an uncertain tuple, each a
	// sorted set of indices into the conflicted-fact list, in the order the
	// search first met them. It is nil when Certain.
	Witnesses [][]int
}

// Lineage builds the witness lineage of q over d in one homomorphism pass.
// conflicted lists the facts of d that a repair may delete; a fact listed
// twice keeps its first index. It reports false unless q is a conjunctive
// query whose output variables all occur in the body: an output variable
// outside the body ranges over the active domain of each repair, which
// witnesses do not determine.
func (q *Query) Lineage(d *relation.Database, conflicted []relation.Fact) (*Lineage, bool) {
	atoms, unconstrained, ok := q.CQ()
	if !ok || len(unconstrained) > 0 {
		return nil, false
	}
	return q.lineage(atoms, d, conflicted, logic.NewSubst()), true
}

// TupleLineage is Lineage restricted to one tuple: the homomorphism search
// starts from the output variables bound to the tuple, so the lineage has
// at most one candidate, and none when the tuple has the wrong arity or
// names a constant no database holds (the tuple holds on no subset of d).
func (q *Query) TupleLineage(d *relation.Database, conflicted []relation.Fact, tuple []string) (*Lineage, bool) {
	atoms, unconstrained, ok := q.CQ()
	if !ok || len(unconstrained) > 0 {
		return nil, false
	}
	if len(tuple) != len(q.Out) {
		return &Lineage{}, true
	}
	seed := logic.NewSubst()
	for i, v := range q.Out {
		c, interned := intern.Lookup(tuple[i])
		if !interned {
			return &Lineage{}, true
		}
		seed[v.Sym()] = c
	}
	return q.lineage(atoms, d, conflicted, seed), true
}

// lineage runs the witness pass of Lineage from the seed substitution.
func (q *Query) lineage(atoms []logic.Atom, d *relation.Database, conflicted []relation.Fact, seed logic.Subst) *Lineage {
	index := make(map[relation.Fact]int, len(conflicted))
	for i, f := range conflicted {
		if _, dup := index[f]; !dup {
			index[f] = i
		}
	}
	l := &Lineage{}
	byTuple := map[string]int{}
	seen := map[string]bool{} // (candidate, witness) pairs already recorded
	tuple := make([]intern.Sym, len(q.Out))
	var args []intern.Sym
	var w []int
	var packBuf, keyBuf [64]byte
	relation.ForEachHom(atoms, d, seed, func(h logic.Subst) bool {
		for i, v := range q.Out {
			tuple[i], _ = h.Lookup(v.Sym())
		}
		k := intern.PackSyms(packBuf[:0], tuple)
		c, known := byTuple[string(k)]
		if !known {
			c = len(l.Candidates)
			byTuple[string(k)] = c
			l.Candidates = append(l.Candidates, LineageCandidate{Tuple: slices.Clone(tuple)})
		}
		cand := &l.Candidates[c]
		if cand.Certain {
			return true
		}
		w = w[:0]
		for _, a := range atoms {
			args = args[:0]
			for _, t := range a.Args {
				s := t.Sym()
				if t.IsVar() {
					s, _ = h.Lookup(s)
				}
				args = append(args, s)
			}
			f, _ := relation.LookupFact(a.Pred, args)
			if i, hit := index[f]; hit && !slices.Contains(w, i) {
				w = append(w, i)
			}
		}
		if len(w) == 0 {
			cand.Certain = true
			cand.Witnesses = nil
			return true
		}
		slices.Sort(w)
		wk := binary.LittleEndian.AppendUint32(keyBuf[:0], uint32(c))
		for _, i := range w {
			wk = binary.LittleEndian.AppendUint32(wk, uint32(i))
		}
		if !seen[string(wk)] {
			seen[string(wk)] = true
			cand.Witnesses = append(cand.Witnesses, slices.Clone(w))
		}
		return true
	})
	return l
}

// ForEachAnswer calls fn once with the index of every candidate that
// answers on D minus the dead conflicted facts: the certain candidates and
// those with a witness none of whose facts is dead. dead is indexed like
// the conflicted-fact list the lineage was built from. Candidates are
// visited in order.
func (l *Lineage) ForEachAnswer(dead []bool, fn func(c int)) {
	for c := range l.Candidates {
		if l.Candidates[c].Answers(dead) {
			fn(c)
		}
	}
}

// Answers reports whether the candidate answers on D minus the dead
// conflicted facts: it is certain or keeps a witness none of whose facts
// is dead.
func (c *LineageCandidate) Answers(dead []bool) bool {
	return c.Certain || SomeWitnessAlive(c.Witnesses, dead)
}

// SomeWitnessAlive reports whether one of the witnesses (index sets into
// a conflicted-fact list) has no dead fact.
func SomeWitnessAlive(witnesses [][]int, dead []bool) bool {
	for _, w := range witnesses {
		alive := true
		for _, i := range w {
			if dead[i] {
				alive = false
				break
			}
		}
		if alive {
			return true
		}
	}
	return false
}
