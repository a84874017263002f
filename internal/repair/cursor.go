package repair

import (
	"slices"

	"repro/internal/constraint"
	"repro/internal/ops"
	"repro/internal/relation"
)

// Cursor walks repairing sequences from the root one operation at a time,
// for walkers that discard a state once they step past it (the random
// walks of internal/sampling). Under TGDs a step is ChildInPlace, and the
// walk's Definition 4 history is the cursor's, reused from walk to walk.
//
// Without TGDs a state is its conflict key (ConflictIndex), and a step
// advances the key instead of a database: it clears the operation's bits,
// drops the root violation bodies that held them from a bitset of held
// bodies, and removes from the live extension list, in place, the
// operations those bodies owned that have no owner body left. That is
// O(extensions of the bodies the operation touches + live extensions
// after the first removed one), allocates nothing once the cursor's
// buffers have grown, and keeps the extensions in the root's canonical
// order, as Extensions gives them. The state the cursor hands out keeps
// its database and violation set pending: the first Result or Violations
// call after k steps catches it up in place by deleting the facts of
// those k operations (the first read of a walk starts from a clone of the
// sealed initial database or of the root violations), so a generator that
// reads only the extensions or the conflict key (State.ConflictKey, which
// reads the cursor's key and held-body bitset in place) builds nothing
// during a walk. Consistent reads the held bodies: a key is consistent
// exactly when it holds no root body.
//
// The state is valid until the next Step or Reset, which reuse it; it must
// not be stepped with Child. A Cursor is single-owner.
type Cursor struct {
	inst *Instance
	s    *State  // the current state
	hist history // the walk's Definition 4 history, under TGDs

	// The key walk, when Σ has no TGDs (ix != nil). st is the state the
	// cursor hands out; held is the bitset of the root bodies the key
	// still holds and nheld its popcount; extIdx[j] is the root index of
	// the live extension exts[j]; path lists the operations taken.
	ix     *ConflictIndex
	st     State
	key    []byte
	held   []uint64
	nheld  int
	exts   []ops.Op
	extIdx []int32
	path   []ops.Op
	drop   []int32 // scratch: bodies dropped by a step
	rm     []int32 // scratch: root indices of the extensions a step removes
	// The pending database and violation set: nil until first read in a
	// walk, then caught up with the first dbAt (viosAt) operations of path.
	db     *relation.Database
	dbAt   int
	vios   *constraint.Violations
	viosAt int
	facts  []relation.Fact
	gone   []constraint.Violation
}

// NewCursor returns a cursor at the root of the instance.
func (in *Instance) NewCursor() *Cursor {
	c := &Cursor{inst: in}
	if ix, err := in.Conflicts(); err == nil {
		ix.walkIndex()
		c.ix = ix
		c.st = State{inst: in, extsReady: true, cursor: c}
	}
	c.Reset()
	return c
}

// Key returns the conflict key of the current state (nil when Σ has
// TGDs). It is overwritten by the next Step or Reset.
func (c *Cursor) Key() []byte { return c.key }

// Reset moves the cursor back to the root and returns the root state.
func (c *Cursor) Reset() *State {
	if c.ix == nil {
		// The walk's Definition 4 history lives in the cursor, which every
		// ChildInPlace hands on, and reuses its storage walk after walk.
		c.hist = history{c.hist.eliminated[:0], c.hist.added[:0], c.hist.removed[:0]}
		c.s = c.inst.Root()
		c.s.hist = &c.hist
		return c.s
	}
	ix := c.ix
	c.key = ix.appendRootKey(c.key[:0])
	c.nheld = len(ix.bodyOff) - 1
	c.held = c.held[:0]
	for range (c.nheld + 63) / 64 {
		c.held = append(c.held, ^uint64(0))
	}
	root := c.inst.rootExtensions()
	c.exts = append(c.exts[:0], root...)
	c.extIdx = c.extIdx[:0]
	for j := range root {
		c.extIdx = append(c.extIdx, int32(j))
	}
	c.path = c.path[:0]
	c.db, c.dbAt, c.vios, c.viosAt = nil, 0, nil, 0
	c.st.depth, c.st.extensions = 0, c.exts
	c.s = &c.st
	return c.s
}

// Step appends op, which must be an extension of the current state, and
// returns the new current state.
func (c *Cursor) Step(op ops.Op) *State {
	if c.ix == nil {
		c.s = c.s.ChildInPlace(op)
		return c.s
	}
	ix := c.ix
	c.drop = c.drop[:0]
	for _, f := range op.Facts() {
		i := ix.bit(f.ID())
		if i < 0 || !Holds(c.key, i) {
			panic("repair: Cursor.Step with an operation that is not an extension: " + op.String())
		}
		c.key[i>>3] &^= 1 << (i & 7)
		for _, b := range ix.factBodies[ix.factOff[i]:ix.factOff[i+1]] {
			if w, m := b>>6, uint64(1)<<(b&63); c.held[w]&m != 0 {
				c.held[w] &^= m
				c.nheld--
				c.drop = append(c.drop, b)
			}
		}
	}
	// Only an extension of a dropped body can lose its last owner. rm
	// may name extensions an earlier step already removed.
	c.rm = c.rm[:0]
	for _, b := range c.drop {
		for _, j := range ix.bodyExts[ix.bodyExtOff[b]:ix.bodyExtOff[b+1]] {
			if !ix.owned(int(j), c.held) {
				c.rm = append(c.rm, j)
			}
		}
	}
	if len(c.drop) > 1 {
		slices.Sort(c.rm)
		c.rm = slices.Compact(c.rm)
	}
	// extIdx is ascending, so each removal is found by binary search and
	// the runs between removals move down with copy; the list before the
	// first removal stays where it is.
	w, j := 0, 0 // write and read positions
	for _, r := range c.rm {
		p := j + searchInt32(c.extIdx[j:], r)
		if w < j {
			copy(c.exts[w:], c.exts[j:p])
			copy(c.extIdx[w:], c.extIdx[j:p])
		}
		w, j = w+p-j, p
		if p < len(c.extIdx) && c.extIdx[p] == r {
			j++
		}
	}
	if j > w {
		n := copy(c.exts[w:], c.exts[j:])
		copy(c.extIdx[w:], c.extIdx[j:])
		c.exts, c.extIdx = c.exts[:w+n], c.extIdx[:w+n]
	}
	c.path = append(c.path, op)
	c.st.depth, c.st.extensions = int32(len(c.path)), c.exts
	return c.s
}

// result catches the pending database up with the path.
func (c *Cursor) result() *relation.Database {
	if c.db == nil {
		c.db, c.dbAt = c.inst.initial.Clone(), 0
	}
	for _, op := range c.path[c.dbAt:] {
		c.db.DeleteAll(op.Facts())
	}
	c.dbAt = len(c.path)
	return c.db
}

// violations catches the pending violation set up with the path. The
// EGD/DC deletion rule is order-free, so the pending operations' facts go
// in one pass.
func (c *Cursor) violations() *constraint.Violations {
	if c.vios == nil {
		c.vios, c.viosAt = c.inst.rootVios().Clone(), 0
	}
	if c.viosAt < len(c.path) {
		c.facts = c.facts[:0]
		for _, op := range c.path[c.viosAt:] {
			c.facts = append(c.facts, op.Facts()...)
		}
		c.gone = c.vios.DeleteFacts(c.facts, c.gone[:0])
		c.viosAt = len(c.path)
	}
	return c.vios
}

// searchInt32 returns the insertion position of v in the ascending slice
// (hand-rolled, as idSearch: the generic BinarySearch is not inlined).
func searchInt32(s []int32, v int32) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
