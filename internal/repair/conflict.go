package repair

import (
	"cmp"
	"errors"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/ops"
	"repro/internal/relation"
)

// ConflictIndex names the states of a TGD-free instance by the conflicted
// facts they still hold. Without TGDs every operation deletes facts of a
// current violation and no deletion creates a violation, so every state
// reachable from the root holds the initial database minus a set of the
// root's conflicted facts (the facts of the root violations). The index
// numbers those facts by ascending interned id — bit i of a key is the
// i-th — and a key is the packed bitset of the ones a state still holds:
// ⌈C/8⌉ bytes for C conflicted facts, bit i in byte i/8 at position i%8.
// Two states have equal keys exactly when they have equal databases.
//
// A state's violations are the root violations whose body it still holds
// (deletions only remove violations), and its extensions are the root
// extensions that lie inside one of those bodies, in the root's canonical
// order — the rule deletionExtensions applies step by step — so both are
// functions of the key. The index is immutable once built (the lists only
// a Cursor reads are added once, on its first use) and safe for concurrent
// use.
type ConflictIndex struct {
	inst *Instance
	// facts are the conflicted facts by ascending interned id: bit i
	// stands for facts[i].
	facts   []relation.Fact
	nbytes  int
	rootKey string // every bit set
	// bodyBits[bodyOff[b]:bodyOff[b+1]] are the bits of the b-th distinct
	// root violation body (the two orientations of an EGD match share one).
	bodyBits []int32
	bodyOff  []int32
	// owners[ownOff[j]:ownOff[j+1]] are the bodies holding every fact of
	// the j-th root extension.
	owners []int32
	ownOff []int32

	// The inverse lists only a Cursor reads, built on its first use:
	// factBodies[factOff[i]:factOff[i+1]] are the bodies holding bit i,
	// and bodyExts[bodyExtOff[b]:bodyExtOff[b+1]] the root extensions
	// body b owns, both ascending.
	walkOnce   sync.Once
	factBodies []int32
	factOff    []int32
	bodyExts   []int32
	bodyExtOff []int32

	// tables holds Table's entries, copied on write so that lookups take
	// no lock; tablesMu serializes the writers.
	tablesMu sync.Mutex
	tables   atomic.Pointer[map[TableKey]*table]
}

// table is one Table entry, built once.
type table struct {
	once sync.Once
	t    any
}

// errConflictTGDs is Conflicts' error under TGDs.
var errConflictTGDs = errors.New("repair: conflict keys need a TGD-free constraint set")

// Conflicts returns the instance's conflict index, building it on first
// use; every caller (the DAG sweeps, the sequence DAG, the estimator's
// walks) shares it. It fails when Σ has TGDs.
func (in *Instance) Conflicts() (*ConflictIndex, error) {
	if in.sigma.HasTGDs() {
		return nil, errConflictTGDs
	}
	in.conflictOnce.Do(func() { in.conflicts = newConflictIndex(in) })
	return in.conflicts, nil
}

// newConflictIndex indexes the root of a TGD-free instance.
func newConflictIndex(inst *Instance) *ConflictIndex {
	vios := inst.rootVios().ByID()
	ix := &ConflictIndex{inst: inst}
	for _, v := range vios {
		ix.facts = append(ix.facts, v.BodyFacts()...)
	}
	slices.SortFunc(ix.facts, func(a, b relation.Fact) int { return cmp.Compare(a.ID(), b.ID()) })
	ix.facts = slices.Compact(ix.facts)
	ix.nbytes = (len(ix.facts) + 7) / 8
	ix.rootKey = string(ix.appendRootKey(nil))

	// byFact[i] lists the bodies holding bit i, so a body is checked for
	// duplicates, and an extension for its owners, only against the
	// bodies of its first fact.
	byFact := make([][]int32, len(ix.facts))
	ix.bodyOff = []int32{0}
	for _, v := range vios {
		start := len(ix.bodyBits)
		for _, f := range v.BodyFacts() {
			ix.bodyBits = append(ix.bodyBits, int32(ix.bit(f.ID())))
		}
		bits := ix.bodyBits[start:]
		if slices.ContainsFunc(byFact[bits[0]], func(b int32) bool {
			return ix.inside(bits, b) && int(ix.bodyOff[b+1]-ix.bodyOff[b]) == len(bits)
		}) {
			ix.bodyBits = ix.bodyBits[:start] // an EGD match's other orientation
			continue
		}
		b := int32(len(ix.bodyOff) - 1)
		for _, i := range bits {
			byFact[i] = append(byFact[i], b)
		}
		ix.bodyOff = append(ix.bodyOff, int32(len(ix.bodyBits)))
	}

	exts := inst.rootExtensions()
	ix.ownOff = make([]int32, 1, len(exts)+1)
	var bits []int32
	for _, op := range exts {
		bits = bits[:0]
		for _, f := range op.Facts() {
			bits = append(bits, int32(ix.bit(f.ID())))
		}
		for _, b := range byFact[bits[0]] {
			if ix.inside(bits, b) {
				ix.owners = append(ix.owners, b)
			}
		}
		ix.ownOff = append(ix.ownOff, int32(len(ix.owners)))
	}
	return ix
}

// walkIndex builds the inverse lists that a Cursor and ConflictKey read,
// once.
func (ix *ConflictIndex) walkIndex() {
	ix.walkOnce.Do(func() {
		ix.factOff, ix.factBodies = invert(ix.bodyOff, ix.bodyBits, len(ix.facts))
		ix.bodyExtOff, ix.bodyExts = invert(ix.ownOff, ix.owners, len(ix.bodyOff)-1)
	})
}

// invert transposes the lists cols[off[r]:off[r+1]] of the rows r, whose
// entries lie in [0, n): it returns, for every column c, the ascending
// list rows[inv[c]:inv[c+1]] of the rows holding it.
func invert(off, cols []int32, n int) (inv, rows []int32) {
	inv = make([]int32, n+1)
	for _, c := range cols {
		inv[c+1]++
	}
	for c := range n {
		inv[c+1] += inv[c]
	}
	rows = make([]int32, len(cols))
	next := slices.Clone(inv[:n])
	for r := 0; r+1 < len(off); r++ {
		for _, c := range cols[off[r]:off[r+1]] {
			rows[next[c]] = int32(r)
			next[c]++
		}
	}
	return inv, rows
}

// inside reports whether body b holds every bit of bits.
func (ix *ConflictIndex) inside(bits []int32, b int32) bool {
	body := ix.bodyBits[ix.bodyOff[b]:ix.bodyOff[b+1]]
	for _, i := range bits {
		if !slices.Contains(body, i) {
			return false
		}
	}
	return true
}

// bit returns the index of a fact id among the conflicted facts, or -1.
func (ix *ConflictIndex) bit(id uint32) int {
	lo, hi := 0, len(ix.facts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ix.facts[mid].ID() < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ix.facts) && ix.facts[lo].ID() == id {
		return lo
	}
	return -1
}

// Bit returns the key bit of a conflicted fact, or -1 for a fact in no
// root violation body.
func (ix *ConflictIndex) Bit(f relation.Fact) int { return ix.bit(f.ID()) }

// Fact returns the conflicted fact of bit i.
func (ix *ConflictIndex) Fact(i int) relation.Fact { return ix.facts[i] }

// Bodies reports the number of distinct root violation bodies.
func (ix *ConflictIndex) Bodies() int { return len(ix.bodyOff) - 1 }

// Body returns the bits of the b-th distinct root violation body, in the
// order of its facts in the first root violation (by id) with that body;
// callers must not modify it.
func (ix *ConflictIndex) Body(b int) []int32 { return ix.bodyBits[ix.bodyOff[b]:ix.bodyOff[b+1]] }

// Root returns a root state of the indexed instance.
func (ix *ConflictIndex) Root() *State { return ix.inst.Root() }

// Conflicted reports the number of conflicted facts: the root key's
// popcount, and the depth of the level sweep over keys.
func (ix *ConflictIndex) Conflicted() int { return len(ix.facts) }

// RootKey returns the key of the root: every conflicted fact present.
func (ix *ConflictIndex) RootKey() string { return ix.rootKey }

// appendKey appends to dst the key of a state whose database is db: the
// conflicted facts db still holds.
func (ix *ConflictIndex) appendKey(dst []byte, db *relation.Database) []byte {
	start := len(dst)
	for range ix.nbytes {
		dst = append(dst, 0)
	}
	for i, f := range ix.facts {
		if db.Contains(f) {
			dst[start+(i>>3)] |= 1 << (i & 7)
		}
	}
	return dst
}

// TableKey names a table that a package above derives from a conflict
// index: Kind names the deriving code, Arg its parameter.
type TableKey struct{ Kind, Arg string }

// Table returns the table stored under key, building it with build on
// first use — once per key, whatever the number of concurrent callers.
// The index holds it, so it lives exactly as long as the instance; a
// lookup takes no lock and allocates nothing.
func (ix *ConflictIndex) Table(key TableKey, build func(*ConflictIndex) any) any {
	e := ix.table(key)
	e.once.Do(func() { e.t = build(ix) })
	return e.t
}

// table returns the entry for key, adding it on first use.
func (ix *ConflictIndex) table(key TableKey) *table {
	if m := ix.tables.Load(); m != nil {
		if e, ok := (*m)[key]; ok {
			return e
		}
	}
	ix.tablesMu.Lock()
	defer ix.tablesMu.Unlock()
	old := ix.tables.Load()
	if old != nil {
		if e, ok := (*old)[key]; ok {
			return e
		}
	}
	m := make(map[TableKey]*table, 1)
	if old != nil {
		maps.Copy(m, *old)
	}
	e := new(table)
	m[key] = e
	ix.tables.Store(&m)
	return e
}

// ConflictKey is a TGD-free state read as its conflict key: which
// conflicted facts it holds, which root violation bodies it holds whole,
// and so which facts are involved in its violations — everything
// State.Violations would give a generator about them, without a database
// or a violation set. A Cursor's key is read in place and valid until the
// cursor's next Step or Reset.
type ConflictKey struct {
	ix    *ConflictIndex
	str   string   // the key, unless bytes holds it
	bytes []byte   // a Cursor's or a derived key
	held  []uint64 // a Cursor's held-body bitset; nil: bodies are read off the key
}

// Index returns the conflict index that names the key's bits and bodies.
func (k *ConflictKey) Index() *ConflictIndex { return k.ix }

// Holds reports whether the state holds the conflicted fact of bit i.
func (k *ConflictKey) Holds(i int) bool {
	if k.bytes != nil {
		return Holds(k.bytes, i)
	}
	return Holds(k.str, i)
}

// HoldsBody reports whether the state holds every fact of root body b,
// that is, whether it still has that violation.
func (k *ConflictKey) HoldsBody(b int) bool {
	switch {
	case k.held != nil:
		return k.held[b>>6]&(1<<(b&63)) != 0
	case k.bytes != nil:
		return holdsBody(k.ix, k.bytes, b)
	}
	return holdsBody(k.ix, k.str, b)
}

// Involved reports whether the fact of bit i is involved in a violation
// of the state (is in V_Σ(D)): the state holds it inside a root body it
// holds whole.
func (k *ConflictKey) Involved(i int) bool {
	if !k.Holds(i) {
		return false
	}
	bodies := k.ix.factBodies[k.ix.factOff[i]:k.ix.factOff[i+1]]
	if k.held != nil {
		for _, b := range bodies {
			if k.held[b>>6]&(1<<(b&63)) != 0 {
				return true
			}
		}
		return false
	}
	for _, b := range bodies {
		if k.HoldsBody(int(b)) {
			return true
		}
	}
	return false
}

// appendRootKey appends the root key to dst.
func (ix *ConflictIndex) appendRootKey(dst []byte) []byte {
	start := len(dst)
	for range ix.nbytes {
		dst = append(dst, 0)
	}
	for i := range ix.facts {
		dst[start+(i>>3)] |= 1 << (i & 7)
	}
	return dst
}

// Holds reports whether the state named by key still holds the conflicted
// fact of bit i.
func Holds[K ~string | ~[]byte](key K, i int) bool { return key[i>>3]&(1<<(i&7)) != 0 }

// holdsBody reports whether key holds every fact of body b.
func holdsBody[K ~string | ~[]byte](ix *ConflictIndex, key K, b int) bool {
	for _, i := range ix.bodyBits[ix.bodyOff[b]:ix.bodyOff[b+1]] {
		if !Holds(key, int(i)) {
			return false
		}
	}
	return true
}

// Consistent reports whether the state named by key satisfies Σ: it holds
// no root violation body whole.
func (ix *ConflictIndex) Consistent(key []byte) bool {
	for b := range len(ix.bodyOff) - 1 {
		if holdsBody(ix, key, b) {
			return false
		}
	}
	return true
}

// Database returns a new database for the state named by key: the initial
// database minus the conflicted facts the key does not hold.
func (ix *ConflictIndex) Database(key []byte) *relation.Database {
	db := ix.inst.initial.Clone()
	for i, f := range ix.facts {
		if !Holds(key, i) {
			db.Delete(f)
		}
	}
	return db
}

// AppendExtensions appends to dst the extensions of the state whose key is
// key, in canonical order: the root extensions inside some root violation
// body the key still holds. They equal the Extensions of any state with
// that database.
func (ix *ConflictIndex) AppendExtensions(dst []ops.Op, key string) []ops.Op {
	// held is the bitset of the bodies the key still holds.
	nb := len(ix.bodyOff) - 1
	var heldBuf [4]uint64
	held := heldBuf[:]
	if nb > 64*len(heldBuf) {
		held = make([]uint64, (nb+63)/64)
	}
	someHeld := false
	for b := 0; b < nb; b++ {
		if holdsBody(ix, key, b) {
			held[b>>6] |= 1 << (b & 63)
			someHeld = true
		}
	}
	if !someHeld {
		return dst
	}
	for j, op := range ix.inst.rootExtensions() {
		if ix.owned(j, held) {
			dst = append(dst, op)
		}
	}
	return dst
}

// owned reports whether some owner body of the j-th root extension is set
// in the body bitset held.
func (ix *ConflictIndex) owned(j int, held []uint64) bool {
	for _, b := range ix.owners[ix.ownOff[j]:ix.ownOff[j+1]] {
		if held[b>>6]&(1<<(b&63)) != 0 {
			return true
		}
	}
	return false
}

// AppendChildKey appends to dst the key of the state reached from key by
// the deletion op. ok is false when op deletes a fact that is not a
// conflicted fact held by key — never the case for an extension of key's
// state — and dst is then returned unchanged.
func (ix *ConflictIndex) AppendChildKey(dst []byte, key string, op ops.Op) (_ []byte, ok bool) {
	if op.IsInsert() {
		return dst, false
	}
	start := len(dst)
	dst = append(dst, key...)
	for _, f := range op.Facts() {
		i := ix.bit(f.ID())
		if i < 0 || !Holds(key, i) {
			return dst[:start], false
		}
		dst[start+(i>>3)] &^= 1 << (i & 7)
	}
	return dst, true
}
