package abc

import (
	"cmp"
	"slices"
)

// This file holds the partition's fact→island index: a persistent trie
// keyed by the dense interned fact id (relation.Fact.ID). Interior nodes
// branch on trieBits bits of the id, most significant first; the nodes one
// level above the bottom point to leaves, whose slots hold the islands. A
// lookup is one array step per level, and the number of levels grows only
// with the largest id ever indexed (four levels cover a million facts).
//
// Nodes are immutable once published. with applies a batch of slot
// assignments by path copying: every node on a path from the root to an
// assigned slot is copied exactly once per batch, however many of the
// batch's ids share it, and every other node is shared with the trie the
// batch was applied to — so partitions from successive updates answer
// independently, and an old partition stays valid for as long as a reader
// holds it.

const (
	trieBits = 5
	trieFan  = 1 << trieBits
	trieMask = trieFan - 1
)

// trieNode is an interior node. Nodes at shift trieBits use leaves, all
// others kids.
type trieNode struct {
	kids   [trieFan]*trieNode
	leaves [trieFan]*trieLeaf
}

type trieLeaf struct {
	isl [trieFan]*Island
}

// trieEntry assigns an island (nil to clear the slot) to a fact id.
type trieEntry struct {
	id  uint32
	isl *Island
}

// factTrie is a trie root: the interior node at the top and its shift, the
// bit offset the root branches on. It indexes ids below 1<<(shift+trieBits).
type factTrie struct {
	root  *trieNode
	shift uint
}

func newFactTrie() factTrie { return factTrie{shift: trieBits} }

// get returns the island at id, or nil.
func (t factTrie) get(id uint32) *Island {
	if uint64(id)>>(t.shift+trieBits) != 0 {
		return nil
	}
	n := t.root
	for s := t.shift; n != nil; s -= trieBits {
		i := (id >> s) & trieMask
		if s == trieBits {
			if l := n.leaves[i]; l != nil {
				return l.isl[id&trieMask]
			}
			return nil
		}
		n = n.kids[i]
	}
	return nil
}

// with returns the trie with the entries applied; of several entries for
// one id the last wins. It sorts es by id in place. t is not modified.
func (t factTrie) with(es []trieEntry) factTrie {
	if len(es) == 0 {
		return t
	}
	slices.SortStableFunc(es, func(a, b trieEntry) int { return cmp.Compare(a.id, b.id) })
	// Grow until the largest id fits: each new root holds the old one as
	// its first child, so existing paths keep their ids.
	for uint64(es[len(es)-1].id)>>(t.shift+trieBits) != 0 {
		if t.root != nil {
			t.root = &trieNode{kids: [trieFan]*trieNode{t.root}}
		}
		t.shift += trieBits
	}
	t.root = t.root.with(t.shift, es)
	return t
}

// with returns a copy of n (nil for an absent node) at shift s with the
// entries applied, or nil when the copy would index nothing.
func (n *trieNode) with(s uint, es []trieEntry) *trieNode {
	c := new(trieNode)
	if n != nil {
		*c = *n
	}
	for len(es) > 0 {
		i := (es[0].id >> s) & trieMask
		j := 1
		for j < len(es) && (es[j].id>>s)&trieMask == i {
			j++
		}
		if s == trieBits {
			c.leaves[i] = c.leaves[i].with(es[:j])
		} else {
			c.kids[i] = c.kids[i].with(s-trieBits, es[:j])
		}
		es = es[j:]
	}
	if c.kids == ([trieFan]*trieNode{}) && c.leaves == ([trieFan]*trieLeaf{}) {
		return nil
	}
	return c
}

func (l *trieLeaf) with(es []trieEntry) *trieLeaf {
	c := new(trieLeaf)
	if l != nil {
		*c = *l
	}
	for _, e := range es {
		c.isl[e.id&trieMask] = e.isl
	}
	if c.isl == ([trieFan]*Island{}) {
		return nil
	}
	return c
}

// forEach calls fn with every occupied slot, in id order.
func (t factTrie) forEach(fn func(id uint32, isl *Island)) {
	t.root.forEach(t.shift, 0, fn)
}

func (n *trieNode) forEach(s uint, prefix uint32, fn func(uint32, *Island)) {
	if n == nil {
		return
	}
	for i := range trieFan {
		base := prefix | uint32(i)<<s
		if s == trieBits {
			if l := n.leaves[i]; l != nil {
				for k, isl := range l.isl {
					if isl != nil {
						fn(base|uint32(k), isl)
					}
				}
			}
			continue
		}
		n.kids[i].forEach(s-trieBits, base, fn)
	}
}
