package repair

import (
	"fmt"
	"slices"

	"repro/internal/ops"
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
// functions of the key. The index is immutable once built and safe for
// concurrent use.
type ConflictIndex struct {
	root *State
	// ids are the conflicted fact ids, ascending: bit i stands for ids[i].
	ids    []uint32
	nbytes int
	// bodyBits[bodyOff[b]:bodyOff[b+1]] are the bits of the b-th distinct
	// root violation body (the two orientations of an EGD match share one).
	bodyBits []int32
	bodyOff  []int32
	// owners[ownOff[j]:ownOff[j+1]] are the bodies holding every fact of
	// the j-th root extension.
	owners []int32
	ownOff []int32
}

// NewConflictIndex indexes the root of a TGD-free instance.
func NewConflictIndex(inst *Instance) (*ConflictIndex, error) {
	if inst.sigma.HasTGDs() {
		return nil, fmt.Errorf("repair: conflict keys need a TGD-free constraint set")
	}
	root := inst.Root()
	vios := root.Violations().ByID()
	ix := &ConflictIndex{root: root}
	for _, v := range vios {
		for _, f := range v.BodyFacts() {
			ix.ids = append(ix.ids, f.ID())
		}
	}
	slices.Sort(ix.ids)
	ix.ids = slices.Compact(ix.ids)
	ix.nbytes = (len(ix.ids) + 7) / 8

	// factBodies[i] lists the bodies holding bit i, so a body is checked
	// for duplicates, and an extension for its owners, only against the
	// bodies of its first fact.
	factBodies := make([][]int32, len(ix.ids))
	ix.bodyOff = []int32{0}
	for _, v := range vios {
		start := len(ix.bodyBits)
		for _, f := range v.BodyFacts() {
			ix.bodyBits = append(ix.bodyBits, int32(ix.bit(f.ID())))
		}
		bits := ix.bodyBits[start:]
		if slices.ContainsFunc(factBodies[bits[0]], func(b int32) bool {
			return ix.inside(bits, b) && int(ix.bodyOff[b+1]-ix.bodyOff[b]) == len(bits)
		}) {
			ix.bodyBits = ix.bodyBits[:start] // an EGD match's other orientation
			continue
		}
		b := int32(len(ix.bodyOff) - 1)
		for _, i := range bits {
			factBodies[i] = append(factBodies[i], b)
		}
		ix.bodyOff = append(ix.bodyOff, int32(len(ix.bodyBits)))
	}

	exts := root.Extensions()
	ix.ownOff = make([]int32, 1, len(exts)+1)
	var bits []int32
	for _, op := range exts {
		bits = bits[:0]
		for _, f := range op.Facts() {
			bits = append(bits, int32(ix.bit(f.ID())))
		}
		for _, b := range factBodies[bits[0]] {
			if ix.inside(bits, b) {
				ix.owners = append(ix.owners, b)
			}
		}
		ix.ownOff = append(ix.ownOff, int32(len(ix.owners)))
	}
	return ix, nil
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
	if i, ok := slices.BinarySearch(ix.ids, id); ok {
		return i
	}
	return -1
}

// Root returns the root state the index was built from.
func (ix *ConflictIndex) Root() *State { return ix.root }

// Conflicted reports the number of conflicted facts: the root key's
// popcount, and the depth of the level sweep over keys.
func (ix *ConflictIndex) Conflicted() int { return len(ix.ids) }

// RootKey returns the key of the root: every conflicted fact present.
func (ix *ConflictIndex) RootKey() string {
	key := make([]byte, ix.nbytes)
	for i := range ix.ids {
		key[i>>3] |= 1 << (i & 7)
	}
	return string(key)
}

// has reports whether bit i is set in key.
func has(key string, i int32) bool { return key[i>>3]&(1<<(i&7)) != 0 }

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
		in := true
		for _, i := range ix.bodyBits[ix.bodyOff[b]:ix.bodyOff[b+1]] {
			if !has(key, i) {
				in = false
				break
			}
		}
		if in {
			held[b>>6] |= 1 << (b & 63)
			someHeld = true
		}
	}
	if !someHeld {
		return dst
	}
	for j, op := range ix.root.Extensions() {
		for _, b := range ix.owners[ix.ownOff[j]:ix.ownOff[j+1]] {
			if held[b>>6]&(1<<(b&63)) != 0 {
				dst = append(dst, op)
				break
			}
		}
	}
	return dst
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
		if i < 0 || !has(key, int32(i)) {
			return dst[:start], false
		}
		dst[start+(i>>3)] &^= 1 << (i & 7)
	}
	return dst, true
}
