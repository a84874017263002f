package repair

import (
	"slices"
	"strings"

	"repro/internal/constraint"
	"repro/internal/intern"
	"repro/internal/ops"
	"repro/internal/relation"
)

// State is a repairing sequence s together with the database D^s_i it
// produces and the bookkeeping needed to check the conditions of
// Definition 4 incrementally. States form a tree: the root is the empty
// sequence ε and each child extends its parent by one operation.
//
// States are immutable after creation, except that ChildInPlace hands a
// state's storage on to its child, that a DeferredChild builds its
// database and violations on first read, and that a Cursor's state moves
// with the cursor; Child produces new states. The database is
// copy-on-write (children share the instance's sealed snapshot and carry
// only their op deltas) and the bookkeeping sets are keyed by interned
// fact and violation ids, so spawning a child costs O(depth) small-integer
// map entries instead of O(|D|) string operations.
type State struct {
	inst   *Instance
	parent *State
	op     ops.Op // operation that produced this state (zero at root)
	// depth is int32 so that it packs with the two flags below: State
	// allocations, one per step of a walk under TGDs, stay in their size
	// class.
	depth     int32
	extsReady bool // extensions holds the valid extensions
	// deferred marks a DeferredChild whose db and violations are not built
	// yet (see materialize).
	deferred   bool
	db         *relation.Database     // D^s_i, owned by this state
	violations *constraint.Violations // V(D^s_i, Σ)
	// hist is the Definition 4 history, kept only when Σ has TGDs
	// (without them admissible is never consulted); nil is empty.
	hist       *history
	extensions []ops.Op // cached valid extensions (nil until computed)
	// key is a DeferredChild's conflict key, the one its creator holds
	// for it (see ConflictKey); empty on every other state.
	key string
	// cursor is set on the state a TGD-free Cursor hands out: its
	// operations, database and violations live in the cursor.
	cursor *Cursor
}

// history is a state's Definition 4 history under TGDs. It sits behind a
// pointer so that TGD-free states, which never read it, do not carry it.
type history struct {
	eliminated idSet            // violations eliminated at steps ≤ i
	added      relation.FactSet // facts inserted so far
	removed    relation.FactSet // facts deleted so far
}

// idSet is a sorted set of violation ids; cloning is a single copy and
// membership a binary search, so per-child bookkeeping is O(depth) words.
type idSet []uint64

func (s idSet) has(id uint64) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == id
}

// insert adds id in place, keeping the slice sorted.
func (s idSet) insert(id uint64) idSet {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s) && s[lo] == id {
		return s
	}
	s = append(s, 0)
	copy(s[lo+1:], s[lo:])
	s[lo] = id
	return s
}

func (s idSet) clone(extra int) idSet {
	out := make(idSet, len(s), len(s)+extra)
	copy(out, s)
	return out
}

// Instance returns the repairing context.
func (s *State) Instance() *Instance { return s.inst }

// Len reports the length of the sequence.
func (s *State) Len() int { return int(s.depth) }

// Ops returns the operations of the sequence in order.
func (s *State) Ops() []ops.Op {
	if s.cursor != nil {
		return slices.Clone(s.cursor.path)
	}
	out := make([]ops.Op, s.depth)
	for cur := s; cur.parent != nil; cur = cur.parent {
		out[cur.depth-1] = cur.op
	}
	return out
}

// Result returns the database produced by the sequence; callers must not
// modify it (use Result().Clone() to mutate). The first call on a
// DeferredChild builds it; on a Cursor's state it catches up with the
// steps taken since the last read.
func (s *State) Result() *relation.Database {
	switch {
	case s.cursor != nil:
		return s.cursor.result()
	case s.deferred:
		s.materialize()
	}
	return s.db
}

// idSearch returns the insertion position of id in the sorted slice
// (hand-rolled: the generic BinarySearch is not inlined, and this runs at
// every step of every walk).
func idSearch(ids []uint32, id uint32) int {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Violations returns V(D^s_i, Σ). The first call on a DeferredChild
// builds it; on a Cursor's state it catches up like Result.
func (s *State) Violations() *constraint.Violations {
	switch {
	case s.cursor != nil:
		return s.cursor.violations()
	case s.deferred:
		s.materialize()
	}
	return s.violations
}

// Consistent reports whether the current database satisfies Σ. A
// Cursor's state answers from its held bodies, building nothing.
func (s *State) Consistent() bool {
	if s.cursor != nil {
		return s.cursor.nheld == 0
	}
	return s.Violations().Empty()
}

// Key returns a canonical encoding of the sequence (the concatenated
// operation keys), identifying the Markov-chain state.
func (s *State) Key() string {
	opsList := s.Ops()
	parts := make([]string, len(opsList))
	for i, op := range opsList {
		parts[i] = op.Key()
	}
	return strings.Join(parts, "|")
}

// String renders the sequence like the paper's figures: "-(a,b), -(c,a)";
// the empty sequence prints as ε.
func (s *State) String() string {
	if s.depth == 0 {
		return "ε"
	}
	opsList := s.Ops()
	parts := make([]string, len(opsList))
	for i, op := range opsList {
		parts[i] = op.String()
	}
	return strings.Join(parts, ", ")
}

// Extensions returns every operation op such that s·op is a repairing
// sequence: op is justified at the current database, does not cancel an
// earlier operation, does not reintroduce an eliminated violation (req2),
// and keeps every earlier addition globally justified. The result is
// cached, deterministic, and canonically ordered; callers must not modify
// it.
func (s *State) Extensions() []ops.Op {
	if s.extsReady {
		return s.extensions
	}
	if s.parent == nil && s.inst != nil {
		// Root states are interchangeable — same sealed database, shared
		// violation set — so the enumeration is computed once per instance
		// and shared by every walk. Callers must not modify the slice
		// (which the cached contract already implies).
		s.extensions, s.extsReady = s.inst.rootExtensions(), true
		return s.extensions
	}
	s.extensions, s.extsReady = s.computeExtensions(), true
	return s.extensions
}

// computeExtensions enumerates the valid extensions from scratch.
func (s *State) computeExtensions() []ops.Op {
	// Without TGDs the operation space is deletion-only: every candidate
	// removes a non-empty subset of some current violation body, nothing is
	// ever inserted, and admissibility is automatic (no addition can be
	// cancelled, no deletion can reintroduce an EGD/DC violation). Steps
	// then derive a child's list from its parent's (deletionExtensions, or
	// a Cursor's and the DAG sweep's filter by conflict key), so this runs
	// only at the root and below a parent that never enumerated.
	deletionOnly := !s.inst.sigma.HasTGDs()

	// Gather candidates (possibly with duplicates when violation bodies
	// overlap), sort canonically, and dedup adjacent identical operations —
	// interned operations compare by pointer, so no per-state hash map is
	// needed.
	vios := s.Violations().ByID()
	candidates := make([]ops.Op, 0, 4*len(vios))
	for _, v := range vios {
		candidates = append(candidates, s.inst.justifiedDeletions(v)...)
		if v.Constraint.Kind() == constraint.TGD {
			if s.inst.opts.NullInsertions {
				if op, ok := ops.NullAddition(v, s.db); ok {
					candidates = append(candidates, op)
				}
			} else {
				candidates = append(candidates, ops.JustifiedAdditions(v, s.db, s.inst.base)...)
			}
		}
	}
	ops.SortOps(candidates)

	var valid []ops.Op
	var prev ops.Op
	for i, op := range candidates {
		if i > 0 && op.Equal(prev) {
			continue
		}
		prev = op
		if deletionOnly || s.admissible(op) {
			valid = append(valid, op)
		}
	}
	return valid
}

// deletionExtensions derives a TGD-free child's extensions from its
// parent's list exts, appending the kept operations to dst in the parent's
// canonical order (Child is its one caller: the tree engines' step). Every
// extension is a non-empty subset of a violation body (the justified
// deletions), and the child's violations are the parent's minus gone, so
// an operation stays iff it lies inside a surviving body. An operation
// that meets no body in gone stays unchecked: the body it came from lost
// no fact, so it survived. Only the operations that meet an eliminated
// body are re-checked, against the surviving bodies that share a fact
// with one.
func deletionExtensions(dst, exts []ops.Op, gone, survivors []constraint.Violation) []ops.Op {
	// touched holds the fact ids of the eliminated bodies, sorted and
	// distinct; alive[i] records whether touched[i] is still inside some
	// surviving body, and live collects those bodies.
	var touchedBuf [16]uint32
	touched := touchedBuf[:0]
	for _, v := range gone {
		for _, f := range v.BodyFacts() {
			touched = append(touched, f.ID())
		}
	}
	if len(touched) == 0 {
		return append(dst, exts...)
	}
	slices.Sort(touched)
	touched = slices.Compact(touched)
	lo, hi := touched[0], touched[len(touched)-1]
	var aliveBuf [16]bool
	alive := slices.Grow(aliveBuf[:0], len(touched))[:len(touched)]
	clear(alive)
	var liveBuf [16][]relation.Fact
	live := liveBuf[:0]
	for _, v := range survivors {
		body := v.BodyFacts()
		meets := false
		for _, f := range body {
			if id := f.ID(); id >= lo && id <= hi {
				if i := idSearch(touched, id); i < len(touched) && touched[i] == id {
					alive[i], meets = true, true
				}
			}
		}
		if meets {
			live = append(live, body)
		}
	}

scan:
	for _, op := range exts {
		facts := op.Facts()
		meets := false
		for _, f := range facts {
			if id := f.ID(); id >= lo && id <= hi {
				i := idSearch(touched, id)
				if i < len(touched) && touched[i] == id {
					if !alive[i] {
						continue scan // a deleted fact, or one in no surviving body
					}
					meets = true
				}
			}
		}
		if meets && len(facts) > 1 && !insideSome(facts, live) {
			continue
		}
		dst = append(dst, op)
	}
	return dst
}

// insideSome reports whether some body contains every fact of fs; both
// are a handful of facts, so linear scans of interned ids beat any set
// machinery.
func insideSome(fs []relation.Fact, bodies [][]relation.Fact) bool {
next:
	for _, body := range bodies {
		for _, f := range fs {
			if !slices.Contains(body, f) {
				continue next
			}
		}
		return true
	}
	return false
}

// admissible checks the non-local conditions of Definition 4 for appending
// op to s (local justification is already guaranteed by JustifiedOps).
func (s *State) admissible(op ops.Op) bool {
	var h history
	if s.hist != nil {
		h = *s.hist
	}
	// No cancellation: an inserted fact must never have been removed and
	// vice versa (condition 2).
	for _, f := range op.Facts() {
		if op.IsInsert() {
			if h.removed.Has(f) {
				return false
			}
		} else if h.added.Has(f) {
			return false
		}
	}

	// req2: no violation eliminated at an earlier step may reappear. The
	// current violation set is disjoint from the eliminated set (req2 held
	// so far), so only violations *introduced* by op can break it — and
	// most operations (e.g. any deletion under EGDs/DCs only) provably
	// introduce none, which the predicate check below detects without
	// touching the database.
	var predBuf [4]intern.Sym
	preds := predBuf[:0]
	for _, f := range op.Facts() {
		p := f.Pred()
		dup := false
		for _, q := range preds {
			if q == p {
				dup = true
				break
			}
		}
		if !dup {
			preds = append(preds, p)
		}
	}
	if s.inst.sigma.MayIntroduceViolations(preds, op.IsInsert()) {
		changed := op.Do(s.db)
		introduced := constraint.IntroducedViolations(s.db, s.inst.sigma, s.violations, changed, op.IsInsert())
		op.Undo(s.db, changed)
		for _, v := range introduced {
			if h.eliminated.has(v.ID()) {
				return false
			}
		}
	}

	// Global justification of additions (condition 3): appending a deletion
	// −G may strip the support of an earlier addition +F; every earlier
	// addition op_i must remain justified w.r.t. D^s_{i-1} − H where H is
	// the union of deletions applied after step i (now including G).
	if op.IsDelete() && len(h.added) > 0 {
		if !s.additionsStillJustified(op) {
			return false
		}
	}
	return true
}

// additionsStillJustified re-checks condition 3 of Definition 4 assuming
// the deletion del is appended. It replays the sequence from the initial
// database to recover each prefix D^s_{i-1}.
func (s *State) additionsStillJustified(del ops.Op) bool {
	seq := s.Ops()
	// suffixDeletions[i] = union of deleted fact sets over steps k with
	// k > i (1-based step numbering), plus del.
	cur := s.inst.initial.Clone()
	for i, op := range seq {
		if op.IsInsert() {
			// Build D^s_{i} − H with H = deletions after this step + del.
			reduced := cur.Clone()
			for _, later := range seq[i+1:] {
				if later.IsDelete() {
					reduced.DeleteAll(later.Facts())
				}
			}
			reduced.DeleteAll(del.Facts())
			if !ops.IsJustified(op, reduced, s.inst.sigma) {
				return false
			}
		}
		op.Do(cur)
	}
	return true
}

// Child returns the state reached by appending op; op must come from
// Extensions (or otherwise be a valid extension). The receiver is only
// read, so children of one state may be built concurrently.
func (s *State) Child(op ops.Op) *State {
	db := s.Result().Clone()
	changed := op.Do(db)
	if !s.inst.sigma.HasTGDs() {
		return s.deletionChild(op, db, changed)
	}
	after, gone := constraint.UpdateViolationsDiff(db, s.inst.sigma, s.violations, changed, op.IsInsert())

	h := new(history)
	if s.hist != nil {
		*h = *s.hist
	}
	h.eliminated = h.eliminated.clone(len(gone))
	for _, v := range gone {
		h.eliminated = h.eliminated.insert(v.ID())
	}
	if op.IsInsert() {
		h.added = h.added.Clone(op.Size())
		for _, f := range op.Facts() {
			h.added, _ = h.added.Insert(f)
		}
	} else {
		h.removed = h.removed.Clone(op.Size())
		for _, f := range op.Facts() {
			h.removed, _ = h.removed.Insert(f)
		}
	}

	return &State{
		inst:       s.inst,
		parent:     s,
		op:         op,
		depth:      s.depth + 1,
		db:         db,
		violations: after,
		hist:       h,
	}
}

// ChildInPlace is Child for walk-style exploration under TGDs, where the
// parent state is discarded after stepping: the child takes over the
// receiver's database and violation set and updates them in place, and
// extends the receiver's Definition 4 history in place. The receiver must
// not be used after the call (its database is set to nil to surface
// misuse early), and it hands its history on too. Without TGDs it is
// Child: TGD-free walks step a Cursor, which advances a conflict key
// instead of a database.
func (s *State) ChildInPlace(op ops.Op) *State {
	if !s.inst.sigma.HasTGDs() {
		return s.Child(op)
	}
	db := s.Result()
	changed := op.Do(db)
	after, gone := constraint.UpdateViolationsDiff(db, s.inst.sigma, s.violations, changed, op.IsInsert())

	h := s.hist
	if h == nil {
		h = new(history)
	}
	for _, v := range gone {
		h.eliminated = h.eliminated.insert(v.ID())
	}
	for _, f := range op.Facts() {
		if op.IsInsert() {
			h.added, _ = h.added.Insert(f)
		} else {
			h.removed, _ = h.removed.Insert(f)
		}
	}
	s.db, s.hist = nil, nil
	return &State{
		inst:       s.inst,
		parent:     s,
		op:         op,
		depth:      s.depth + 1,
		db:         db,
		violations: after,
		hist:       h,
	}
}

// deletionChild is Child's TGD-free step, once op has been applied to db
// (a copy of the receiver's). Every operation is a deletion, which can
// only remove violations and extensions: the child's violation set is a
// copy of the receiver's filtered by the EGD/DC deletion rule, and its
// extension list, when the receiver's is known, is the receiver's
// filtered by deletionExtensions. No Definition 4 history is kept:
// admissible is never consulted without TGDs.
func (s *State) deletionChild(op ops.Op, db *relation.Database, changed []relation.Fact) *State {
	vios := s.Violations().Clone()
	var goneBuf [8]constraint.Violation
	gone := vios.DeleteFacts(changed, goneBuf[:0])
	child := &State{
		inst:       s.inst,
		parent:     s,
		op:         op,
		depth:      s.depth + 1,
		db:         db,
		violations: vios,
	}
	if s.extsReady {
		dst := make([]ops.Op, 0, len(s.extensions))
		child.extensions, child.extsReady = deletionExtensions(dst, s.extensions, gone, vios.ByID()), true
	}
	return child
}

// DeferredChild returns the state reached by appending the deletion op to
// s, with conflict key key and extension list exts, without building its
// database or violation set: Σ must be TGD-free, key must be the child's
// conflict key (ConflictIndex.AppendChildKey derives it from s's), and
// exts exactly the child's valid extensions in canonical order
// (ConflictIndex.AppendExtensions derives them from key). Creation is
// O(1), so Ops, Key, String, Len, Extensions and ConflictKey cost what
// they cost on any state, and a generator that reads only those never
// pays for the rest. The first Result or Violations call builds both from
// the instance's root — the initial database minus the facts the sequence
// deleted, and the root violations minus those that lose a body fact —
// not through the parent chain, so no ancestor is ever built. That first
// call writes the state, so it must not race with another call on the
// same state; afterwards the state is as immutable as any other. The
// state owns exts.
func (s *State) DeferredChild(op ops.Op, exts []ops.Op, key string) *State {
	return &State{
		inst:       s.inst,
		parent:     s,
		op:         op,
		depth:      s.depth + 1,
		extensions: exts,
		extsReady:  true,
		deferred:   true,
		key:        key,
	}
}

// ConflictKey returns the state's conflict key (ConflictIndex); ok is false
// when Σ has TGDs. A Cursor's state reads the cursor's key and held-body
// bitset in place, a DeferredChild the key its creator gave it, and the
// root the index's root key, so none of them builds a database for it.
// Any other state (Child's) derives its key from its database.
func (s *State) ConflictKey() (_ ConflictKey, ok bool) {
	if c := s.cursor; c != nil {
		return ConflictKey{ix: c.ix, bytes: c.key, held: c.held}, true
	}
	ix, err := s.inst.Conflicts()
	if err != nil {
		return ConflictKey{}, false
	}
	ix.walkIndex()
	switch {
	case s.key != "":
		return ConflictKey{ix: ix, str: s.key}, true
	case s.parent == nil:
		return ConflictKey{ix: ix, str: ix.rootKey}, true
	}
	return ConflictKey{ix: ix, bytes: ix.appendKey(nil, s.Result())}, true
}

// materialize builds a DeferredChild's database and violation set from the
// root. Without TGDs the sequence's operations delete pairwise disjoint
// fact sets (a deleted fact is in no later violation body), and the EGD/DC
// deletion rule is order-free, so deleting their union at once from the
// root gives exactly what the step-by-step Child chain gives.
func (s *State) materialize() {
	var delBuf [16]relation.Fact
	deleted := delBuf[:0]
	for cur := s; cur.parent != nil; cur = cur.parent {
		deleted = append(deleted, cur.op.Facts()...)
	}
	db := s.inst.initial.Clone()
	db.DeleteAll(deleted)
	s.db, s.violations, s.deferred = db, s.inst.rootVios().WithoutFacts(deleted), false
}

// IsComplete reports whether the sequence cannot be extended.
func (s *State) IsComplete() bool { return len(s.Extensions()) == 0 }

// IsSuccessful reports whether the sequence is complete and its result
// satisfies Σ. For the constraint classes of the paper a consistent state
// has no justified operations, so consistency alone implies completeness.
func (s *State) IsSuccessful() bool { return s.Consistent() }

// IsFailing reports whether the sequence is complete but its result still
// violates Σ.
func (s *State) IsFailing() bool { return !s.Consistent() && s.IsComplete() }
