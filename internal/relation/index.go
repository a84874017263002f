package relation

import (
	"repro/internal/intern"
)

// This file implements the secondary argument indexes of sealed snapshots:
// for every predicate, every argument position, and every constant symbol,
// the packed list of facts carrying that constant at that position. The
// homomorphism search consults them to replace linear per-predicate scans
// with O(bucket) candidate enumeration whenever an atom argument is pinned
// by a constant or an already-bound variable, and the join planner reads
// real bucket cardinalities instead of guessing.
//
// Indexes live exclusively in the immutable snapshot, so they are built
// once per Seal and shared by every clone for free — exactly like the fact
// set itself. Reads on a database with a pending delta combine the
// snapshot buckets with a scan of the (small, walk-sized) added/removed
// slices; ForEachHom folds oversized deltas into a fresh snapshot before
// searching, so the delta scan stays bounded by autoSealFloor.

// predIndex is the secondary index of one predicate, one posIndex per
// argument position.
type predIndex struct {
	pos []posIndex
}

// posIndex indexes one argument position: spans maps each constant to its
// span number k, and the facts carrying the constant there are
// facts[start[k]:start[k+1]], a subslice of one packed array. Spans are
// numbered in first-occurrence order and filled in byPred order, so
// indexed enumeration visits survivors in the same relative order as a
// filtered scan of FactsByPred.
type posIndex struct {
	spans map[intern.Sym]int32
	start []int32
	facts []Fact
}

// bucket returns the facts carrying sym, nil when none does.
func (pi *posIndex) bucket(sym intern.Sym) []Fact {
	k, ok := pi.spans[sym]
	if !ok {
		return nil
	}
	return pi.span(k)
}

func (pi *posIndex) span(k int32) []Fact {
	lo, hi := pi.start[k], pi.start[k+1]
	return pi.facts[lo:hi:hi]
}

// buildPredIndex indexes the facts of one predicate. Facts of heterogeneous
// arity are indexed at every position they actually have; the arity check
// during unification filters the rest. prev, when non-nil, is the
// predicate's index in the previous snapshot; its span counts presize the
// maps, which a Seal of a mostly unchanged database would otherwise grow
// step by step.
func buildPredIndex(fs []Fact, prev *predIndex) *predIndex {
	maxAr := 0
	for _, f := range fs {
		if a := f.Arity(); a > maxAr {
			maxAr = a
		}
	}
	pi := &predIndex{pos: make([]posIndex, maxAr)}
	// spanOf[i] is the span of fs[i] at the current position (-1 when fs[i]
	// has no argument there), so the fill pass needs no second map probe.
	spanOf := make([]int32, len(fs))
	for j := range maxAr {
		hint := 0
		if prev != nil && j < len(prev.pos) {
			hint = len(prev.pos[j].spans)
		}
		spans := make(map[intern.Sym]int32, hint)
		var count []int32
		total := 0
		for i, f := range fs {
			args := f.Args()
			if j >= len(args) {
				spanOf[i] = -1
				continue
			}
			k, ok := spans[args[j]]
			if !ok {
				k = int32(len(count))
				spans[args[j]] = k
				count = append(count, 0)
			}
			count[k]++
			spanOf[i] = k
			total++
		}
		// Prefix sums turn the counts into span starts; count then serves
		// as each span's fill cursor.
		start := make([]int32, len(count)+1)
		for k, c := range count {
			start[k+1] = start[k] + c
			count[k] = start[k]
		}
		facts := make([]Fact, total)
		for i, f := range fs {
			if k := spanOf[i]; k >= 0 {
				facts[count[k]] = f
				count[k]++
			}
		}
		pi.pos[j] = posIndex{spans: spans, start: start, facts: facts}
	}
	return pi
}

// bucket returns the snapshot facts with sym at argument position pos of
// the predicate; nil when the snapshot holds no such fact. Delta facts are
// not included — callers on a dirty database must consult added/removed.
func (s *snapshot) bucket(pred intern.Sym, pos int, sym intern.Sym) []Fact {
	pi := s.idx[pred]
	if pi == nil || pos >= len(pi.pos) {
		return nil
	}
	return pi.pos[pos].bucket(sym)
}

// PredCount reports the number of facts with the given predicate without
// materializing a merged per-predicate view.
func (d *Database) PredCount(pred intern.Sym) int {
	n := len(d.snap.byPred[pred])
	if len(d.added) > 0 {
		n += d.added.countPred(pred)
	}
	if len(d.removed) > 0 {
		n -= d.removed.countPred(pred)
	}
	return n
}

// CountAt reports the number of facts with the given predicate whose
// argument at position pos is sym: the snapshot bucket size adjusted by a
// scan of the delta. It is exact; the join planner uses it as the
// cardinality of an index probe.
func (d *Database) CountAt(pred intern.Sym, pos int, sym intern.Sym) int {
	n := len(d.snap.bucket(pred, pos, sym))
	for _, f := range d.added {
		if f.Pred() == pred && pos < f.Arity() && f.Arg(pos) == sym {
			n++
		}
	}
	for _, f := range d.removed {
		if f.Pred() == pred && pos < f.Arity() && f.Arg(pos) == sym {
			n--
		}
	}
	return n
}

// avgBucket estimates the bucket size of an index probe at (pred, pos)
// whose probe symbol is not yet known (a variable bound only at evaluation
// time): the mean snapshot bucket size, capped by the predicate count.
func (d *Database) avgBucket(pred intern.Sym, pos int) int {
	total := d.PredCount(pred)
	if pi := d.snap.idx[pred]; pi != nil && pos < len(pi.pos) {
		if k := len(pi.pos[pos].spans); k > 0 {
			if est := (len(d.snap.byPred[pred]) + k - 1) / k; est < total {
				return est
			}
		}
	}
	return total
}

// ForEachAt enumerates the facts of pred carrying sym at argument position
// pos, in the relative order of a filtered FactsByPred scan; fn returning
// false stops early. On a sealed database this reads one index bucket;
// with a pending delta it folds added/removed facts, exactly like the
// indexed join probes. Exported for consumers whose per-atom statistics
// (e.g. the preference generator's support weights) would otherwise rescan
// the whole predicate.
func (d *Database) ForEachAt(pred intern.Sym, pos int, sym intern.Sym, fn func(Fact) bool) {
	d.forEachMatch(pred, pos, sym, fn)
}

// ForEachGroupAt enumerates, for every constant occurring at argument
// position pos of pred, the facts carrying it there: the group-by that the
// practical repair scheme uses to find key-violating groups. On a sealed
// database the groups are the snapshot's index buckets, handed out without
// copying (the callback must not modify them); with a pending delta the
// merged per-predicate view is grouped instead. Enumeration order is
// unspecified — callers needing determinism sort the groups themselves.
// fn returning false stops the enumeration.
func (d *Database) ForEachGroupAt(pred intern.Sym, pos int, fn func(sym intern.Sym, facts []Fact) bool) {
	if len(d.added) == 0 && len(d.removed) == 0 {
		if pi := d.snap.idx[pred]; pi != nil {
			if pos < len(pi.pos) {
				px := &pi.pos[pos]
				for s, k := range px.spans {
					if !fn(s, px.span(k)) {
						return
					}
				}
			}
			return
		}
	}
	groups := map[intern.Sym][]Fact{}
	var syms []intern.Sym
	for _, f := range d.FactsByPred(pred) {
		args := f.Args()
		if pos >= len(args) {
			continue
		}
		s := args[pos]
		if _, ok := groups[s]; !ok {
			syms = append(syms, s)
		}
		groups[s] = append(groups[s], f)
	}
	for _, s := range syms {
		if !fn(s, groups[s]) {
			return
		}
	}
}

// ForEachPredFact enumerates the facts with the given predicate — the
// snapshot's list minus removed facts, then the added delta, i.e. the same
// relative order as FactsByPred — without materializing a merged view, so
// scanning a predicate of a freshly cloned round database allocates
// nothing. fn returning false stops early; the return value reports whether
// enumeration ran to completion.
func (d *Database) ForEachPredFact(pred intern.Sym, fn func(Fact) bool) bool {
	for _, f := range d.snap.byPred[pred] {
		if len(d.removed) > 0 && d.removed.Has(f) {
			continue
		}
		if !fn(f) {
			return false
		}
	}
	if len(d.added) > 0 {
		for _, f := range d.added {
			if f.Pred() != pred {
				continue
			}
			if !fn(f) {
				return false
			}
		}
	}
	return true
}

// forEachMatch enumerates the facts with the given predicate carrying sym
// at argument position pos: the snapshot bucket (skipping removed facts)
// followed by the matching added facts, i.e. the same relative order as a
// filtered scan of FactsByPred. It reports whether enumeration completed
// (fn returning false stops it early).
func (d *Database) forEachMatch(pred intern.Sym, pos int, sym intern.Sym, fn func(Fact) bool) bool {
	for _, f := range d.snap.bucket(pred, pos, sym) {
		if len(d.removed) > 0 && d.removed.Has(f) {
			continue
		}
		if !fn(f) {
			return false
		}
	}
	for _, f := range d.added {
		if f.Pred() != pred {
			continue
		}
		if args := f.Args(); pos >= len(args) || args[pos] != sym {
			continue
		}
		if !fn(f) {
			return false
		}
	}
	return true
}
