package relation

import (
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/intern"
	"repro/internal/logic"
)

// snapshot is an immutable, fully indexed set of facts shared between
// copy-on-write databases. Once published by Seal it is never mutated, so
// any number of databases (and goroutines) may read it concurrently.
type snapshot struct {
	facts   map[Fact]struct{}
	byPred  map[intern.Sym][]Fact
	idx     map[intern.Sym]*predIndex // secondary argument indexes (index.go)
	domSyms []intern.Sym              // sorted by symbol id
	domCnt  []int32                   // parallel occurrence counts
	size    int

	// sorted caches the canonical fact order, computed once per snapshot
	// and shared by every sealed database over it; Facts on a sealed
	// database copies it instead of re-sorting.
	sortedOnce sync.Once
	sorted     []Fact

	// ids caches the facts' interned ids in ascending id order, computed
	// once per snapshot; AppendFactIDs merges a database's delta against it
	// instead of re-enumerating and re-sorting the whole fact set.
	idsOnce sync.Once
	ids     []uint32

	// byKey caches the facts with their keys in key order and keyLen the
	// keys' total length, computed once per snapshot on the first Key call
	// (Seal, which resident writers run every few hundred ingests, never
	// pays for it); Key merges a database's delta against them instead of
	// sorting every key.
	byKeyOnce sync.Once
	byKey     []keyedFact
	keyLen    int
}

// keyedFact is a fact with its key.
type keyedFact struct {
	key string
	f   Fact
}

// sortedFacts returns the snapshot's facts in canonical order; the shared
// slice must not be modified.
func (s *snapshot) sortedFacts() []Fact {
	s.sortedOnce.Do(func() {
		out := make([]Fact, 0, s.size)
		for _, fs := range s.byPred {
			out = append(out, fs...)
		}
		SortFacts(out)
		s.sorted = out
	})
	return s.sorted
}

// sortedIDs returns the snapshot's fact ids sorted ascending; the shared
// slice must not be modified.
func (s *snapshot) sortedIDs() []uint32 {
	s.idsOnce.Do(func() {
		out := make([]uint32, 0, s.size)
		for f := range s.facts {
			out = append(out, f.id)
		}
		slices.Sort(out)
		s.ids = out
	})
	return s.ids
}

// keyOrder returns the snapshot's facts with their keys, sorted by key,
// and the total length of the keys; the shared slice must not be
// modified.
func (s *snapshot) keyOrder() ([]keyedFact, int) {
	s.byKeyOnce.Do(func() {
		out := make([]keyedFact, 0, s.size)
		n := 0
		for f := range s.facts {
			k := f.Key()
			out = append(out, keyedFact{k, f})
			n += len(k)
		}
		slices.SortFunc(out, func(a, b keyedFact) int { return strings.Compare(a.key, b.key) })
		s.byKey, s.keyLen = out, n
	})
	return s.byKey, s.keyLen
}

var emptySnapshot = &snapshot{}

func (s *snapshot) domRef(c intern.Sym) int32 {
	lo, hi := 0, len(s.domSyms)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.domSyms[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.domSyms) && s.domSyms[lo] == c {
		return s.domCnt[lo]
	}
	return 0
}

// FactSet is a fact set kept sorted by interned id: membership is a binary
// search, mutation a memmove, and cloning a single copy. It is the delta
// representation of the copy-on-write Database and the bookkeeping set of
// repair states — such sets stay small (one operation per walk step), so
// this beats hash maps on both allocation count and locality.
type FactSet []Fact

func (s FactSet) search(f Fact) (int, bool) {
	id := f.ID()
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].ID() < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s) && s[lo] == f
}

// Has reports membership.
func (s FactSet) Has(f Fact) bool {
	_, ok := s.search(f)
	return ok
}

// Insert adds f, keeping the slice sorted; it reports whether the set
// changed. As with append, the caller must use the returned slice.
func (s FactSet) Insert(f Fact) (FactSet, bool) {
	i, ok := s.search(f)
	if ok {
		return s, false
	}
	s = append(s, Fact{})
	copy(s[i+1:], s[i:])
	s[i] = f
	return s, true
}

// Remove deletes f, reporting whether the set changed.
func (s FactSet) Remove(f Fact) (FactSet, bool) {
	i, ok := s.search(f)
	if !ok {
		return s, false
	}
	copy(s[i:], s[i+1:])
	return s[:len(s)-1], true
}

// Clone returns an independent copy with room for extra insertions.
func (s FactSet) Clone(extra int) FactSet {
	if len(s) == 0 && extra == 0 {
		return nil
	}
	out := make(FactSet, len(s), len(s)+extra)
	copy(out, s)
	return out
}

func (s FactSet) countPred(p intern.Sym) int {
	n := 0
	for _, f := range s {
		if f.Pred() == p {
			n++
		}
	}
	return n
}

// domCounts tracks per-constant occurrence deltas as parallel sorted
// slices.
type domCounts struct {
	syms []intern.Sym
	cnt  []int32
}

func (d *domCounts) adjust(c intern.Sym, by int32) {
	lo, hi := 0, len(d.syms)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if d.syms[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(d.syms) && d.syms[lo] == c {
		d.cnt[lo] += by
		return
	}
	d.syms = append(d.syms, 0)
	copy(d.syms[lo+1:], d.syms[lo:])
	d.syms[lo] = c
	d.cnt = append(d.cnt, 0)
	copy(d.cnt[lo+1:], d.cnt[lo:])
	d.cnt[lo] = by
}

// mergedView caches the merged per-predicate fact list of a dirty
// predicate; walks touch one or two predicates, so a tiny slice suffices.
type mergedView struct {
	pred  intern.Sym
	facts []Fact
}

// Database is a finite set of facts with per-predicate indexes. It
// implements the fact-source contract of the homomorphism search so that
// joins run directly against it.
//
// A Database is an immutable shared snapshot plus a private delta (facts
// added and removed since the snapshot, kept in small sorted slices).
// Clone copies only the delta, so the child states of a repairing walk
// cost O(|delta|) words instead of O(|D|) map entries. Seal collapses the
// delta into a fresh snapshot; repairing instances seal once so every walk
// starts from an O(1)-cloneable database, and bulk loading auto-seals
// geometrically so construction stays near-linear.
//
// A sealed Database (empty delta) is safe for concurrent readers until the
// next write. A Database with a pending delta is single-owner: even read
// methods may populate internal caches (merged per-predicate views), so it
// must not be shared across goroutines — walkers clone their own.
type Database struct {
	snap    *snapshot
	added   FactSet
	removed FactSet
	merged  []mergedView
	size    int
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{snap: emptySnapshot}
}

// FromFacts builds a database containing the given facts (duplicates are
// collapsed, as databases are sets).
func FromFacts(fs ...Fact) *Database {
	d := NewDatabase()
	for _, f := range fs {
		d.Insert(f)
	}
	return d
}

// Size reports the number of facts.
func (d *Database) Size() int { return d.size }

// Contains reports whether the fact is present.
func (d *Database) Contains(f Fact) bool {
	if len(d.removed) > 0 && d.removed.Has(f) {
		return false
	}
	if len(d.added) > 0 && d.added.Has(f) {
		return true
	}
	_, ok := d.snap.facts[f]
	return ok
}

// ContainsAtom reports whether the ground atom is present as a fact. Atoms
// naming facts that were never interned are absent by construction, so the
// lookup never grows the fact table.
func (d *Database) ContainsAtom(a logic.Atom) bool {
	f, ok := LookupFactFromAtom(a)
	if !ok {
		return false
	}
	return d.Contains(f)
}

func (d *Database) invalidate(f Fact) {
	p := f.Pred()
	for i := range d.merged {
		if d.merged[i].pred == p {
			d.merged[i] = d.merged[len(d.merged)-1]
			d.merged = d.merged[:len(d.merged)-1]
			break
		}
	}
}

// domDelta derives the per-constant occurrence delta from the fact delta;
// deltas are one walk's worth of facts, so this is cheaper to recompute on
// the rare domain query than to maintain on every clone and write.
func (d *Database) domDelta() domCounts {
	var dc domCounts
	for _, f := range d.added {
		for _, c := range f.Args() {
			dc.adjust(c, 1)
		}
	}
	for _, f := range d.removed {
		for _, c := range f.Args() {
			dc.adjust(c, -1)
		}
	}
	return dc
}

// autoSealThreshold keeps bulk loading near-linear: once the delta reaches
// both the floor and half the database size, the delta is folded into a
// fresh snapshot. Walk-sized deltas never reach the floor.
const autoSealFloor = 256

func (d *Database) maybeAutoSeal() {
	if n := len(d.added) + len(d.removed); n >= autoSealFloor && 2*n >= d.size {
		d.Seal()
	}
}

// Insert adds a fact; inserting an existing fact is a no-op. It reports
// whether the database changed.
func (d *Database) Insert(f Fact) bool {
	if len(d.removed) > 0 {
		if next, ok := d.removed.Remove(f); ok {
			// Reinsert of a snapshot fact: cancel the removal.
			d.removed = next
			d.invalidate(f)
			d.size++
			return true
		}
	}
	if _, ok := d.snap.facts[f]; ok {
		return false
	}
	next, ok := d.added.Insert(f)
	if !ok {
		return false
	}
	d.added = next
	d.invalidate(f)
	d.size++
	d.maybeAutoSeal()
	return true
}

// Delete removes a fact; deleting an absent fact is a no-op. It reports
// whether the database changed.
func (d *Database) Delete(f Fact) bool {
	if len(d.added) > 0 {
		if next, ok := d.added.Remove(f); ok {
			d.added = next
			d.invalidate(f)
			d.size--
			return true
		}
	}
	if _, ok := d.snap.facts[f]; !ok {
		return false
	}
	next, ok := d.removed.Insert(f)
	if !ok {
		return false
	}
	d.removed = next
	d.invalidate(f)
	d.size--
	d.maybeAutoSeal()
	return true
}

// FactsByPred returns the facts with the given predicate. The returned
// slice must not be modified. When the predicate's delta is empty this is
// the snapshot's shared slice (zero copies); otherwise a merged view is
// built once and cached until the predicate changes again.
func (d *Database) FactsByPred(pred intern.Sym) []Fact {
	if len(d.added) == 0 && len(d.removed) == 0 {
		return d.snap.byPred[pred]
	}
	nAdd, nRem := d.added.countPred(pred), d.removed.countPred(pred)
	if nAdd == 0 && nRem == 0 {
		return d.snap.byPred[pred]
	}
	for i := range d.merged {
		if d.merged[i].pred == pred {
			return d.merged[i].facts
		}
	}
	base := d.snap.byPred[pred]
	out := make([]Fact, 0, len(base)+nAdd-nRem)
	if nRem == 0 {
		out = append(out, base...)
	} else {
		for _, f := range base {
			if !d.removed.Has(f) {
				out = append(out, f)
			}
		}
	}
	if nAdd > 0 {
		for _, f := range d.added {
			if f.Pred() == pred {
				out = append(out, f)
			}
		}
	}
	d.merged = append(d.merged, mergedView{pred: pred, facts: out})
	return out
}

// FactsByPredName is FactsByPred addressed by predicate name.
func (d *Database) FactsByPredName(pred string) []Fact {
	sym, ok := intern.Lookup(pred)
	if !ok {
		return nil
	}
	return d.FactsByPred(sym)
}

// AtomsByPred returns the facts with the given predicate as ground atoms.
func (d *Database) AtomsByPred(pred intern.Sym) []logic.Atom {
	fs := d.FactsByPred(pred)
	out := make([]logic.Atom, len(fs))
	for i, f := range fs {
		out[i] = f.Atom()
	}
	return out
}

// forEach calls fn for every fact of the database, in no particular order.
func (d *Database) forEach(fn func(Fact)) {
	if len(d.removed) == 0 {
		for f := range d.snap.facts {
			fn(f)
		}
	} else {
		for f := range d.snap.facts {
			if !d.removed.Has(f) {
				fn(f)
			}
		}
	}
	for _, f := range d.added {
		fn(f)
	}
}

// Facts returns all facts in canonical order. On a sealed database the
// order is served from the snapshot's cached sort.
func (d *Database) Facts() []Fact {
	if d.Sealed() {
		cached := d.snap.sortedFacts()
		out := make([]Fact, len(cached))
		copy(out, cached)
		return out
	}
	out := make([]Fact, 0, d.size)
	d.forEach(func(f Fact) { out = append(out, f) })
	SortFacts(out)
	return out
}

// Predicates returns the sorted list of predicate names with at least one
// fact.
func (d *Database) Predicates() []string {
	seen := map[intern.Sym]bool{}
	var syms []intern.Sym
	d.forEach(func(f Fact) {
		p := f.Pred()
		if !seen[p] {
			seen[p] = true
			syms = append(syms, p)
		}
	})
	intern.SortSyms(syms)
	return intern.Names(syms)
}

// DomSyms returns the active domain dom(D) as symbols, sorted by symbol id
// (deterministic within a process). The domain is maintained incrementally
// — inserts and deletes adjust per-constant reference counts — so this
// never rescans the fact set.
func (d *Database) DomSyms() []intern.Sym {
	if len(d.added) == 0 && len(d.removed) == 0 {
		// No deltas: the snapshot's (all-positive) domain is the answer.
		return d.snap.domSyms
	}
	syms, _ := d.mergedDom()
	return syms
}

// mergedDom merges the snapshot's per-constant occurrence counts with the
// delta's, keeping the constants that still occur: the domain and counts
// of the database as it stands, in one linear merge.
func (d *Database) mergedDom() ([]intern.Sym, []int32) {
	dc := d.domDelta()
	ss, sc := d.snap.domSyms, d.snap.domCnt
	syms := make([]intern.Sym, 0, len(ss)+len(dc.syms))
	cnt := make([]int32, 0, len(ss)+len(dc.syms))
	keep := func(s intern.Sym, n int32) {
		if n > 0 {
			syms = append(syms, s)
			cnt = append(cnt, n)
		}
	}
	i, j := 0, 0
	for i < len(ss) || j < len(dc.syms) {
		switch {
		case j >= len(dc.syms) || (i < len(ss) && ss[i] < dc.syms[j]):
			keep(ss[i], sc[i])
			i++
		case i >= len(ss) || dc.syms[j] < ss[i]:
			keep(dc.syms[j], dc.cnt[j])
			j++
		default:
			keep(ss[i], sc[i]+dc.cnt[j])
			i++
			j++
		}
	}
	return syms, cnt
}

// Dom returns the active domain dom(D): the sorted set of constant names
// appearing in the database.
func (d *Database) Dom() []string {
	names := intern.Names(d.DomSyms())
	sort.Strings(names)
	return names
}

// HasConst reports whether the constant occurs in the database: a binary
// search of the snapshot domain plus a scan of the (tiny) fact delta.
func (d *Database) HasConst(c intern.Sym) bool {
	n := d.snap.domRef(c)
	for _, f := range d.added {
		for _, a := range f.Args() {
			if a == c {
				n++
			}
		}
	}
	for _, f := range d.removed {
		for _, a := range f.Args() {
			if a == c {
				n--
			}
		}
	}
	return n > 0
}

// Clone returns an independent copy of the database. The snapshot is
// shared; only the delta is copied, so cloning mid-walk states is
// O(|delta|) and cloning a sealed database is O(1).
func (d *Database) Clone() *Database {
	return &Database{
		snap:    d.snap,
		added:   d.added.Clone(2),
		removed: d.removed.Clone(2),
		size:    d.size,
	}
}

// Seal collapses the delta into a fresh immutable snapshot — including the
// per-predicate argument indexes the homomorphism search probes — after
// which Clone is O(1) and reads never consult delta slices. Sealing an
// unchanged database is a no-op. The caller must be the only writer.
func (d *Database) Seal() {
	if len(d.added) == 0 && len(d.removed) == 0 {
		return
	}
	snap := &snapshot{
		facts:  make(map[Fact]struct{}, d.size),
		byPred: make(map[intern.Sym][]Fact, len(d.snap.byPred)+2),
		idx:    make(map[intern.Sym]*predIndex, len(d.snap.byPred)+2),
		size:   d.size,
	}
	keep := func(f Fact) {
		snap.facts[f] = struct{}{}
		p := f.Pred()
		snap.byPred[p] = append(snap.byPred[p], f)
	}
	// Each predicate keeps its old order minus the removed facts, then gains
	// the added ones in id order — the order FactsByPred serves before the
	// seal — so the layout, and every homomorphism order read off it, is a
	// function of the insert/delete history, never of a map walk.
	for _, fs := range d.snap.byPred {
		for _, f := range fs {
			if len(d.removed) == 0 || !d.removed.Has(f) {
				keep(f)
			}
		}
	}
	for _, f := range d.added {
		keep(f)
	}
	for p, fs := range snap.byPred {
		snap.idx[p] = buildPredIndex(fs, d.snap.idx[p])
	}
	// The domain counts are the old snapshot's plus the delta's, merged in
	// one pass instead of recounted fact by fact.
	snap.domSyms, snap.domCnt = d.mergedDom()
	d.snap = snap
	d.added = nil
	d.removed = nil
	d.merged = nil
}

// DeltaSize reports the number of facts in the copy-on-write delta; for
// diagnostics and tests.
func (d *Database) DeltaSize() int { return len(d.added) + len(d.removed) }

// Sealed reports whether the database is an unmodified snapshot (empty
// delta). A sealed database is safe for concurrent readers; an unsealed one
// is single-owner, because even read methods may populate internal caches.
func (d *Database) Sealed() bool { return len(d.added) == 0 && len(d.removed) == 0 }

// Compact folds the delta into a fresh snapshot once it exceeds limit
// facts, reporting whether it sealed. Long-lived writers that publish
// snapshots per update call this instead of Seal: small deltas stay O(delta)
// to clone and publish, and the occasional O(|D|) fold keeps the delta —
// and hence every later Clone — bounded. The caller must be the only
// writer.
func (d *Database) Compact(limit int) bool {
	if d.DeltaSize() <= limit {
		return false
	}
	d.Seal()
	return true
}

// Equal reports whether two databases contain exactly the same facts.
func (d *Database) Equal(o *Database) bool {
	if d.size != o.size {
		return false
	}
	eq := true
	d.forEach(func(f Fact) {
		if eq && !o.Contains(f) {
			eq = false
		}
	})
	return eq
}

// SubsetOf reports whether every fact of d is in o.
func (d *Database) SubsetOf(o *Database) bool {
	if d.size > o.size {
		return false
	}
	ok := true
	d.forEach(func(f Fact) {
		if ok && !o.Contains(f) {
			ok = false
		}
	})
	return ok
}

// Key returns a canonical encoding of the database contents, suitable for
// grouping repairs that arise from different repairing sequences. The
// encoding matches the string-keyed predecessor byte for byte (sorted fact
// keys joined by ';'), so persisted groupings remain valid. The snapshot's
// facts are sorted by key once per snapshot; a call merges the delta into
// that order, skipping the removed facts and sorting only the added ones.
func (d *Database) Key() string {
	base, n := d.snap.keyOrder()
	added := make([]string, len(d.added))
	for i, f := range d.added {
		added[i] = f.Key()
		n += len(added[i])
	}
	sort.Strings(added)
	var b strings.Builder
	b.Grow(n + len(base) + len(added))
	sep := false
	write := func(k string) {
		if sep {
			b.WriteByte(';')
		}
		b.WriteString(k)
		sep = true
	}
	ai := 0
	for _, e := range base {
		if len(d.removed) > 0 && d.removed.Has(e.f) {
			continue
		}
		for ; ai < len(added) && added[ai] < e.key; ai++ {
			write(added[ai])
		}
		write(e.key)
	}
	for _, k := range added[ai:] {
		write(k)
	}
	return b.String()
}

// AppendFactIDs appends the interned ids of the database's facts to buf in
// ascending id order and returns the extended slice. The snapshot's sorted
// ids are cached once and merged against the (id-sorted) delta, so the call
// is a linear weave with no per-fact hashing or string work — the building
// block of IDKey.
func (d *Database) AppendFactIDs(buf []uint32) []uint32 {
	base := d.snap.sortedIDs()
	if len(d.added) == 0 && len(d.removed) == 0 {
		return append(buf, base...)
	}
	ai, ri := 0, 0
	for _, id := range base {
		if ri < len(d.removed) && d.removed[ri].id == id {
			ri++
			continue
		}
		for ai < len(d.added) && d.added[ai].id < id {
			buf = append(buf, d.added[ai].id)
			ai++
		}
		buf = append(buf, id)
	}
	for ; ai < len(d.added); ai++ {
		buf = append(buf, d.added[ai].id)
	}
	return buf
}

// AppendIDKey appends the binary encoding of a fact-id list to dst: each id
// packed as 4 big-endian bytes, so byte-lexicographic key order coincides
// with numeric id order. Callers pass ascending ids (AppendFactIDs order)
// to obtain canonical set keys.
func AppendIDKey(dst []byte, ids []uint32) []byte {
	for _, id := range ids {
		dst = append(dst, byte(id>>24), byte(id>>16), byte(id>>8), byte(id))
	}
	return dst
}

// IDKey returns a compact binary identity of the database: the facts'
// interned ids, sorted ascending and packed 4 bytes each (AppendIDKey).
// Two databases have equal IDKeys exactly when they contain the same facts
// — interned ids are in bijection with fact content — so IDKey groups
// states precisely like Key while costing one linear id weave instead of
// per-fact string materialization and a string sort. The encoding is
// process-local (interned ids depend on interning order): use it for
// in-memory merge maps, and Key for anything persisted, displayed, or
// compared across processes.
func (d *Database) IDKey() string {
	buf := make([]uint32, 0, d.size)
	buf = d.AppendFactIDs(buf)
	return string(AppendIDKey(make([]byte, 0, 4*len(buf)), buf))
}

// String renders the database as a sorted fact set.
func (d *Database) String() string { return FactsString(d.Facts()) }

// InsertAll inserts every fact of the slice, reporting how many were new.
func (d *Database) InsertAll(fs []Fact) int {
	n := 0
	for _, f := range fs {
		if d.Insert(f) {
			n++
		}
	}
	return n
}

// DeleteAll deletes every fact of the slice, reporting how many were
// present.
func (d *Database) DeleteAll(fs []Fact) int {
	n := 0
	for _, f := range fs {
		if d.Delete(f) {
			n++
		}
	}
	return n
}

// SymmetricDiff returns ∆(d, o) = (d − o) ∪ (o − d) as two slices: the
// facts only in d, and the facts only in o.
func (d *Database) SymmetricDiff(o *Database) (onlyD, onlyO []Fact) {
	d.forEach(func(f Fact) {
		if !o.Contains(f) {
			onlyD = append(onlyD, f)
		}
	})
	o.forEach(func(f Fact) {
		if !d.Contains(f) {
			onlyO = append(onlyO, f)
		}
	})
	SortFacts(onlyD)
	SortFacts(onlyO)
	return onlyD, onlyO
}
