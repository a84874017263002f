package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/intern"
	"repro/internal/relation"
)

// This file computes the structural cache key of a conflict component: a
// canonical form of its fact set up to injective renaming of constants.
// Two components get the same key exactly when one is a renaming of the
// other, however their constants are named and however their facts sort,
// so N isomorphic islands cost one exploration.
//
// The form comes from individualization–refinement, the scheme of
// practical graph-canonization tools, run over the constants of the
// component:
//
//   - Colour refinement. Constants start with one colour. Each round
//     colours every fact by its predicate and the colours of its
//     arguments, then recolours every constant by its old colour plus the
//     multiset of (fact colour, argument position) over its occurrences.
//     Colours are 64-bit hashes of those signatures and cells are ordered
//     by colour, so the order is isomorphism-invariant. Refinement stops
//     at the first round that adds no cell. Hashing only groups and
//     orders; a collision could coarsen a partition and cost search, but
//     the procedure stays a function of the structure, and leaves are
//     compared exactly.
//   - Individualization. While some cell holds several constants, each
//     member of the first such cell in turn gets a colour of its own and
//     the partition is refined again. Every branch ends in a discrete
//     partition, which labels the constants 0..m−1 in colour order; the
//     labelling whose relabelled fact set, as a sorted tuple list, is
//     lexicographically smallest is the canonical one.
//   - Automorphism pruning. A candidate is skipped when its transposition
//     with an already-tried sibling maps the fact set onto itself, which
//     leaves one branch per level on a key group. A pruned subtree holds
//     exactly the forms of an explored one, so the minimum is unchanged.
//
// The key packs the sorted interned ids of the canonical facts, so equal
// keys mean equal canonical fact sets, and hence isomorphic components;
// no hash is ever trusted. The search visits at most canonLeafBudget
// leaves and canonWorkBudget refinement work. Past either, the component
// falls back to the first-occurrence renaming over its sorted fact list:
// still sound, since its key too is a set of canonical fact ids, but not
// shared with isomorphic components whose constants sort differently.

// canonLeafBudget is the fixed number of search leaves after which
// canonicalize gives up on the canonical form. Tests lower it to force the
// fallback; nothing else changes it.
var canonLeafBudget = 64

// canonWorkBudget caps the argument slots and constants all refinement
// rounds of one call may visit. Refinement takes up to one round per
// constant, so a long chain component would cost time quadratic in its
// size; such components are far beyond exact exploration anyway, and
// take the fallback key in linear time instead.
const canonWorkBudget = 1 << 22

// canonStats reports the search work of one canonicalize call.
type canonStats struct {
	// leaves counts the discrete partitions compared, nodes the
	// refinements run (the root plus one per individualization).
	leaves, nodes int
	// fallback is set when a budget ran out and the key is the
	// first-occurrence one.
	fallback bool
}

// canonSyms is the process-wide table of canonical constants ⟨0⟩, ⟨1⟩, …
// substituted for a component's constants by label. Readers load a
// snapshot without locking; canonMu only serializes growth.
var (
	canonMu   sync.Mutex
	canonSyms atomic.Pointer[[]intern.Sym]
)

// canonSymTable returns a snapshot of the canonical constant table with at
// least n entries, growing it once if needed.
func canonSymTable(n int) []intern.Sym {
	if t := canonSyms.Load(); t != nil && len(*t) >= n {
		return *t
	}
	canonMu.Lock()
	defer canonMu.Unlock()
	var cur []intern.Sym
	if t := canonSyms.Load(); t != nil {
		cur = *t
	}
	if len(cur) >= n {
		return cur
	}
	next := make([]intern.Sym, n)
	copy(next, cur)
	for i := len(cur); i < n; i++ {
		next[i] = intern.S(fmt.Sprintf("⟨%d⟩", i))
	}
	canonSyms.Store(&next)
	return next
}

// canonRenaming returns the forward renaming (original constant →
// canonical constant) of the inverse table canonicalize returns.
func canonRenaming(inv []intern.Sym) map[intern.Sym]intern.Sym {
	table := canonSymTable(len(inv))
	ren := make(map[intern.Sym]intern.Sym, len(inv))
	for i, orig := range inv {
		ren[orig] = table[i]
	}
	return ren
}

var canonPool = sync.Pool{New: func() any { return new(canonState) }}

// canonicalize renames the constants of a sorted fact list to canonical
// constants. It returns the canonical facts (aligned by index with the
// input), the structural cache key, the inverse renaming (canonical
// index → original constant), and the search statistics. The key is a
// pure function of the fact set up to constant renaming, except for
// components past a search budget, whose first-occurrence key is a
// function of the sorted list.
func canonicalize(facts []relation.Fact) (canon []relation.Fact, key string, inv []intern.Sym, st canonStats) {
	cs := canonPool.Get().(*canonState)
	defer canonPool.Put(cs)
	cs.load(facts)
	label, ok := cs.search(&st)
	if !ok {
		st.fallback = true
		label = cs.firstOccurrence()
	}

	table := canonSymTable(len(cs.syms))
	inv = make([]intern.Sym, len(cs.syms))
	for c, l := range label {
		inv[l] = cs.syms[c]
	}
	canon = make([]relation.Fact, len(facts))
	ids := cs.ids[:0]
	var buf [8]intern.Sym
	for i, f := range facts {
		args := buf[:0]
		for _, a := range cs.arg[cs.off[i]:cs.off[i+1]] {
			args = append(args, table[label[a]])
		}
		cf := relation.FactOf(f.Pred(), args)
		canon[i] = cf
		ids = append(ids, cf.ID())
	}
	slices.Sort(ids)
	cs.ids = ids
	cs.key = relation.AppendIDKey(cs.key[:0], ids)
	return canon, string(cs.key), inv, st
}

// canonState is the reusable scratch of one canonicalize call. The
// component is held as integers: fact i has predicate pred[i] and
// argument slots off[i]..off[i+1] of arg, each slot holding a local
// constant index into syms.
type canonState struct {
	syms     []intern.Sym // distinct constants, in first-occurrence order
	pred     []intern.Sym
	off      []int32
	arg      []int32
	slotFact []int32  // slot → fact
	fseed    []uint64 // per-fact hash seed from predicate and arity
	raw      []intern.Sym
	index    map[intern.Sym]int32
	// Constant c occurs in the slots occ[occOff[c]:occOff[c+1]].
	occOff []int32
	occ    []int32

	// Refinement scratch.
	fcol   []uint64 // fact colours
	next   []uint64 // constant colours of the next round
	sorted []uint64 // sorted colours, for counting and ordering cells
	forder []int32  // fact permutation
	label  []int32

	// Search state.
	st       *canonStats
	budget   int
	work     int
	overflow bool
	levels   [][]uint64 // colouring per depth
	cells    [][]int32  // target-cell members per depth
	tried    [][]int32  // explored members per depth
	byTuple  []int32    // facts sorted by local tuple, for membership tests
	tuple    []int32
	twin     []int32 // union-find over constants proven interchangeable
	code     []uint64
	bestCode []uint64
	best     []int32 // labelling of the best leaf, once haveBest
	haveBest bool

	ids []uint32
	key []byte
}

// resize returns s with length n, reusing its storage when large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// load converts the facts into the integer form, numbering the constants
// in first-occurrence order.
func (cs *canonState) load(facts []relation.Fact) {
	cs.pred = cs.pred[:0]
	cs.off = append(cs.off[:0], 0)
	raw := cs.raw[:0]
	for _, f := range facts {
		cs.pred = append(cs.pred, f.Pred())
		raw = append(raw, f.Args()...)
		cs.off = append(cs.off, int32(len(raw)))
	}
	cs.raw = raw
	slots := len(raw)
	cs.arg = resize(cs.arg, slots)
	cs.slotFact = resize(cs.slotFact, slots)
	cs.fseed = resize(cs.fseed, len(facts))
	for i, p := range cs.pred {
		lo, hi := cs.off[i], cs.off[i+1]
		for s := lo; s < hi; s++ {
			cs.slotFact[s] = int32(i)
		}
		cs.fseed[i] = uint64(p)*hashMul + uint64(hi-lo)
	}
	if cs.index == nil {
		cs.index = map[intern.Sym]int32{}
	}
	clear(cs.index)
	cs.syms = cs.syms[:0]
	for s, a := range raw {
		c, ok := cs.index[a]
		if !ok {
			c = int32(len(cs.syms))
			cs.syms = append(cs.syms, a)
			cs.index[a] = c
		}
		cs.arg[s] = c
	}

	m := len(cs.syms)
	cs.occOff = resize(cs.occOff, m+1)
	clear(cs.occOff)
	for _, c := range cs.arg {
		cs.occOff[c+1]++
	}
	for c := 0; c < m; c++ {
		cs.occOff[c+1] += cs.occOff[c]
	}
	cs.occ = resize(cs.occ, slots)
	cur := resize(cs.label, m)
	copy(cur, cs.occOff[:m])
	for s, c := range cs.arg {
		cs.occ[cur[c]] = int32(s)
		cur[c]++
	}
	cs.label = cur
	cs.byTuple = cs.byTuple[:0]
	cs.twin = resize(cs.twin, m)
	for c := range cs.twin {
		cs.twin[c] = int32(c)
	}
	cs.haveBest, cs.overflow = false, false
}

// firstOccurrence returns the fallback labelling: constants in
// first-occurrence order over the fact list, which is the local numbering.
func (cs *canonState) firstOccurrence() []int32 {
	label := resize(cs.label, len(cs.syms))
	for c := range label {
		label[c] = int32(c)
	}
	cs.label = label
	return label
}

// search runs individualization–refinement and returns the canonical
// labelling (constant → label); ok is false when a budget ran out.
func (cs *canonState) search(st *canonStats) (label []int32, ok bool) {
	cs.st, cs.budget, cs.work = st, canonLeafBudget, 0
	root := cs.level(0, len(cs.syms))
	clear(root)
	cs.dfs(0, root, cs.refine(root))
	return cs.best, !cs.overflow
}

// level returns the colouring buffer of depth d.
func (cs *canonState) level(d, m int) []uint64 {
	for len(cs.levels) <= d {
		cs.levels = append(cs.levels, nil)
		cs.cells = append(cs.cells, nil)
		cs.tried = append(cs.tried, nil)
	}
	cs.levels[d] = resize(cs.levels[d], m)
	return cs.levels[d]
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// hashMul is the 64-bit golden-ratio multiplier.
const hashMul = 0x9e3779b97f4a7c15

// combine folds v into the running hash h, order-sensitively.
func combine(h, v uint64) uint64 { return mix64(h*hashMul ^ v) }

// cellCount returns the number of distinct colours in col, leaving them
// sorted in cs.sorted.
func (cs *canonState) cellCount(col []uint64) int {
	cs.sorted = append(cs.sorted[:0], col...)
	slices.Sort(cs.sorted)
	k := 0
	for i, c := range cs.sorted {
		if i == 0 || c != cs.sorted[i-1] {
			k++
		}
	}
	return k
}

// refine refines the colouring col in place until a round adds no cell
// and returns the number of cells; it stops early, flagging overflow,
// when the work budget runs out.
func (cs *canonState) refine(col []uint64) int {
	cs.st.nodes++
	m := len(col)
	k := cs.cellCount(col)
	cs.fcol = resize(cs.fcol, len(cs.pred))
	cs.next = resize(cs.next, m)
	for k < m {
		if cs.work += len(cs.arg) + m; cs.work > canonWorkBudget {
			cs.overflow = true
			return k
		}
		// One finalizing mix per fact and per constant; the steps in
		// between only need to be order- and position-sensitive.
		for f := range cs.fcol {
			h := cs.fseed[f]
			for _, a := range cs.arg[cs.off[f]:cs.off[f+1]] {
				h = (h ^ col[a]) * hashMul
			}
			cs.fcol[f] = mix64(h)
		}
		for c := range cs.next {
			// A sum over occurrences is a multiset hash; the odd
			// multiplier tells argument positions apart.
			var acc uint64
			for _, s := range cs.occ[cs.occOff[c]:cs.occOff[c+1]] {
				f := cs.slotFact[s]
				acc += cs.fcol[f] * (2*uint64(s-cs.off[f]) + 1)
			}
			cs.next[c] = combine(col[c], acc)
		}
		copy(col, cs.next)
		nk := cs.cellCount(col)
		if nk == k {
			break
		}
		k = nk
	}
	return k
}

// dfs explores the search node at depth d whose refined colouring col
// has k cells.
func (cs *canonState) dfs(d int, col []uint64, k int) {
	m := len(col)
	if cs.overflow {
		return
	}
	if k == m {
		if cs.st.leaves >= cs.budget {
			cs.overflow = true
			return
		}
		cs.leaf(col)
		return
	}
	// Target the non-singleton cell of least colour; refine left the
	// colours sorted in cs.sorted.
	i := 1
	for cs.sorted[i] != cs.sorted[i-1] {
		i++
	}
	target := cs.sorted[i]
	members := cs.cells[d][:0]
	for x, c := range col {
		if c == target {
			members = append(members, int32(x))
		}
	}
	cs.cells[d] = members
	tried := cs.tried[d][:0]
	child := cs.level(d+1, m)
	for _, u := range members {
		if cs.overflow {
			return
		}
		if cs.pruned(u, tried) {
			continue
		}
		copy(child, col)
		child[u] = combine(col[u], uint64(m))
		cs.dfs(d+1, child, cs.refine(child))
		tried = append(tried, u)
		cs.tried[d] = tried
	}
}

// cmpFacts orders facts a and b by predicate, arity, and the labels of
// their arguments in position order.
func (cs *canonState) cmpFacts(label []int32, a, b int32) int {
	if c := cmp.Compare(cs.pred[a], cs.pred[b]); c != 0 {
		return c
	}
	x, y := cs.arg[cs.off[a]:cs.off[a+1]], cs.arg[cs.off[b]:cs.off[b+1]]
	if c := cmp.Compare(len(x), len(y)); c != 0 {
		return c
	}
	for i := range x {
		if c := cmp.Compare(label[x[i]], label[y[i]]); c != 0 {
			return c
		}
	}
	return 0
}

// sortFacts leaves the fact indices in forder sorted by cmpFacts under
// label.
func (cs *canonState) sortFacts(label []int32) {
	cs.forder = resize(cs.forder, len(cs.pred))
	for i := range cs.forder {
		cs.forder[i] = int32(i)
	}
	slices.SortFunc(cs.forder, func(a, b int32) int { return cs.cmpFacts(label, a, b) })
}

// leaf labels the constants of the discrete colouring col by colour rank
// and keeps the labelling if its relabelled fact set is the least so far.
func (cs *canonState) leaf(col []uint64) {
	cs.st.leaves++
	m := len(col)
	label := resize(cs.label, m)
	for x, c := range col {
		l, _ := slices.BinarySearch(cs.sorted, c)
		label[x] = int32(l)
	}
	cs.label = label
	// The form is the relabelled facts in (predicate, arity, labels)
	// order, each fact a word for predicate and arity followed by one per
	// label.
	cs.sortFacts(label)
	code := cs.code[:0]
	for _, f := range cs.forder {
		code = append(code, uint64(cs.pred[f])<<32|uint64(cs.off[f+1]-cs.off[f]))
		for _, a := range cs.arg[cs.off[f]:cs.off[f+1]] {
			code = append(code, uint64(label[a]))
		}
	}
	cs.code = code
	if !cs.haveBest || slices.Compare(code, cs.bestCode) < 0 {
		cs.haveBest = true
		cs.bestCode = append(cs.bestCode[:0], code...)
		cs.best = append(cs.best[:0], label...)
	}
}

// pruned reports whether candidate u is interchangeable with an
// already-tried sibling: their transposition maps the fact set onto itself.
func (cs *canonState) pruned(u int32, tried []int32) bool {
	// Twins — constants whose transposition is an automorphism — form
	// equivalence classes (the transpositions compose), so a proven pair
	// is remembered for every later level.
	tu := find(cs.twin, u)
	for _, v := range tried {
		tv := find(cs.twin, v)
		if tu == tv {
			return true
		}
		if cs.swapIsAuto(u, v) {
			cs.twin[tu] = tv
			return true
		}
	}
	return false
}

// find returns the root of x in the union-find forest uf, halving paths.
func find(uf []int32, x int32) int32 {
	for uf[x] != x {
		uf[x] = uf[uf[x]]
		x = uf[x]
	}
	return x
}

// swapIsAuto reports whether exchanging constants u and v maps the fact
// set onto itself. Only facts mentioning u or v move; the facts are
// distinct, so mapping each into the set maps the set onto itself.
func (cs *canonState) swapIsAuto(u, v int32) bool {
	if len(cs.byTuple) == 0 {
		ident := resize(cs.tuple, len(cs.syms))
		for x := range ident {
			ident[x] = int32(x)
		}
		cs.sortFacts(ident)
		cs.byTuple = append(cs.byTuple[:0], cs.forder...)
	}
	for _, c := range [2]int32{u, v} {
		for _, s := range cs.occ[cs.occOff[c]:cs.occOff[c+1]] {
			f := cs.slotFact[s]
			cs.tuple = cs.tuple[:0]
			for _, a := range cs.arg[cs.off[f]:cs.off[f+1]] {
				switch a {
				case u:
					a = v
				case v:
					a = u
				}
				cs.tuple = append(cs.tuple, a)
			}
			if !cs.hasFact(cs.pred[f], cs.tuple) {
				return false
			}
		}
	}
	return true
}

// hasFact reports whether the component holds pred(args) over local
// constant indices.
func (cs *canonState) hasFact(pred intern.Sym, args []int32) bool {
	_, found := slices.BinarySearchFunc(cs.byTuple, args, func(f int32, args []int32) int {
		if c := cmp.Compare(cs.pred[f], pred); c != 0 {
			return c
		}
		x := cs.arg[cs.off[f]:cs.off[f+1]]
		if c := cmp.Compare(len(x), len(args)); c != 0 {
			return c
		}
		return slices.Compare(x, args)
	})
	return found
}
