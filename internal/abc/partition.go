package abc

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/constraint"
	"repro/internal/relation"
)

// This file adds the resident, incrementally-maintained form of the
// conflict components: a Partition keeps the components of the conflict
// hypergraph together with the violations that induce them, and Update
// re-partitions only the region reachable from a violation-set delta.
//
// Soundness of the delta scope: an update changes the component structure
// only through the facts it touches — the changed facts themselves plus the
// body facts of every eliminated or introduced violation
// (constraint.TouchedFacts). A component containing no touched fact keeps
// exactly its violation set (an eliminated violation's body is touched, so
// it cannot belong to such a component) and no introduced violation can
// attach to it (introduced bodies are touched too), so the component — and
// anything a higher layer derived from its fact set — carries over
// verbatim. The affected region (components containing a touched fact) is
// re-union-found in isolation over its surviving violations plus the
// introduced ones.
//
// A partition is persistent and sized by its churn: the violations live in
// the islands (there is no flat set beside them), the fact→island index is
// a path-copying trie (trie.go) that an Update copies only along the
// touched facts' paths, and the island count and violation count are
// maintained rather than recounted. The smallest-fact order of all islands
// is the one O(islands) view, and it is built lazily, once per partition,
// for the callers that list every island.

// Island is one connected component of the conflict hypergraph, resident
// across updates. Islands are immutable once published by NewPartition or
// Update: an update that touches an island replaces it rather than mutating
// it, so partitions from successive updates share unaffected islands. An
// island's violations are kept ID-sorted.
type Island struct {
	// Facts are the island's facts, sorted; islands partition the conflict
	// facts, so each fact belongs to exactly one island.
	Facts []relation.Fact
	// vios are the violations whose bodies live in this island.
	vios []constraint.Violation

	// Payload is an opaque slot for a higher layer to attach what it derived
	// from the island's fact set (core attaches the component's local
	// semantics). Because unaffected islands are shared by pointer across
	// updates, a payload set once is carried — and may be reused — across
	// every later partition in the lineage. Set it before the partition is
	// shared between goroutines and never mutate it afterwards.
	Payload any
}

// Violations returns the violations inducing the island; the slice is
// shared and must not be modified.
func (isl *Island) Violations() []constraint.Violation { return isl.vios }

// Partition is the component partition of the conflict hypergraph, designed
// for residency: it is the one store of the violations it was built from
// (each island holds its own), IslandOf answers fact→island in a fixed
// number of array steps on a persistent trie, and Update re-partitions only
// the components touched by a violation-set delta, returning the next
// partition without invalidating this one. Partitions are immutable;
// successive Updates share unaffected islands and trie nodes, so long-lived
// readers of an old partition stay consistent. Nothing in an Update is
// proportional to the number of islands: the smallest-fact order of
// Islands is computed on first use, once per partition.
type Partition struct {
	idx        factTrie
	islands    int
	violations int

	orderOnce sync.Once
	order     []*Island
}

// NewPartition builds the partition of V(D,Σ) from scratch. The islands
// are the components of ConflictGraph.Components over the same violation
// set, in the same deterministic order (sorted by smallest fact).
func NewPartition(vs *constraint.Violations) *Partition {
	islands := componentsOf(vs.ByID())
	p := &Partition{islands: len(islands), order: islands}
	facts := 0
	for _, isl := range islands {
		facts += len(isl.Facts)
		p.violations += len(isl.vios)
	}
	p.idx = newFactTrie().with(indexEntries(make([]trieEntry, 0, facts), islands))
	return p
}

// componentsOf groups ID-sorted violations into islands by union-find over
// their body facts: each island's facts sorted, its violations ID-sorted
// (every violation's body is connected, so it lands in the island of its
// first body fact), and the islands ordered by smallest fact.
func componentsOf(vios []constraint.Violation) []*Island {
	idx := map[relation.Fact]int32{}
	var facts []relation.Fact
	var parent []int32
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	indexOf := func(f relation.Fact) int32 {
		if i, ok := idx[f]; ok {
			return i
		}
		i := int32(len(facts))
		idx[f] = i
		facts = append(facts, f)
		parent = append(parent, i)
		return i
	}
	for _, v := range vios {
		body := v.BodyFacts()
		if len(body) == 0 {
			continue
		}
		ra := find(indexOf(body[0]))
		for _, f := range body[1:] {
			if rb := find(indexOf(f)); ra != rb {
				parent[rb] = ra
			}
		}
	}
	// Roots are indices into the parent array, so a flat slice replaces a
	// root→island map on this hot path.
	byRoot := make([]*Island, len(facts))
	var order []*Island
	for i, f := range facts {
		r := find(int32(i))
		isl := byRoot[r]
		if isl == nil {
			isl = &Island{}
			byRoot[r] = isl
			order = append(order, isl)
		}
		isl.Facts = append(isl.Facts, f)
	}
	for _, isl := range order {
		relation.SortFacts(isl.Facts)
	}
	sortIslands(order)
	for _, v := range vios {
		if body := v.BodyFacts(); len(body) > 0 {
			isl := byRoot[find(idx[body[0]])]
			isl.vios = append(isl.vios, v)
		}
	}
	return order
}

// sortIslands orders islands by smallest fact.
func sortIslands(islands []*Island) {
	slices.SortFunc(islands, func(a, b *Island) int { return relation.CompareFacts(a.Facts[0], b.Facts[0]) })
}

// indexEntries appends a trie entry mapping every fact of the islands to
// its island.
func indexEntries(es []trieEntry, islands []*Island) []trieEntry {
	for _, isl := range islands {
		for _, f := range isl.Facts {
			es = append(es, trieEntry{f.ID(), isl})
		}
	}
	return es
}

// Islands returns the islands ordered by smallest fact; the slice is shared
// and must not be modified. A partition made by Update sorts its islands on
// the first call — O(islands log islands), once — so only callers that list
// every island pay for the order. Safe for concurrent readers.
func (p *Partition) Islands() []*Island {
	p.orderOnce.Do(func() {
		if p.order != nil || p.islands == 0 {
			return
		}
		order := make([]*Island, 0, p.islands)
		p.idx.forEach(func(id uint32, isl *Island) {
			if isl.Facts[0].ID() == id {
				order = append(order, isl)
			}
		})
		sortIslands(order)
		p.order = order
	})
	return p.order
}

// Len reports the number of islands.
func (p *Partition) Len() int { return p.islands }

// NumViolations reports the number of violations the islands hold.
func (p *Partition) NumViolations() int { return p.violations }

// Violations returns the violations of every island as one ID-sorted set,
// built on each call: for tests and diagnostics, not for the write path.
func (p *Partition) Violations() *constraint.Violations {
	all := make([]constraint.Violation, 0, p.violations)
	for _, isl := range p.Islands() {
		all = append(all, isl.vios...)
	}
	return constraint.ViolationsOf(all)
}

// Components returns the islands as bare fact sets, matching
// ConflictGraph.Components.
func (p *Partition) Components() [][]relation.Fact {
	islands := p.Islands()
	out := make([][]relation.Fact, len(islands))
	for i, isl := range islands {
		out[i] = isl.Facts
	}
	return out
}

// IslandOf returns the island containing the fact, or nil when the fact is
// in no violation. Safe for concurrent readers.
func (p *Partition) IslandOf(f relation.Fact) *Island {
	return p.idx.get(f.ID())
}

// Update derives the partition after a violation-set transition: eliminated
// and introduced are the violations an update that changed the given facts
// removed from and added to the violation set this partition holds (as
// constraint.UpdateViolationsDelta reports them, say). It re-partitions
// only the affected region and returns the next partition plus the island
// churn: fresh lists the islands created by this update (their Payload is
// nil) and removed the islands of p that dissolved, both ordered by
// smallest fact. Islands outside the region are shared by pointer —
// Payload and all — and p itself remains valid. When the delta leaves the
// partition untouched (clean inserts or deletes), Update returns p with no
// churn. The cost is proportional to the region, not to the partition.
func (p *Partition) Update(eliminated, introduced []constraint.Violation, changed []relation.Fact) (next *Partition, fresh, removed []*Island) {
	touched := constraint.TouchedFacts(changed, eliminated, introduced)
	for _, f := range touched {
		if isl := p.IslandOf(f); isl != nil && !slices.Contains(removed, isl) {
			removed = append(removed, isl)
		}
	}
	if len(removed) == 0 && len(introduced) == 0 {
		return p, nil, nil
	}

	// The region's violations: the affected islands' violations minus the
	// eliminated ones, plus the introduced ones (introduced bodies are
	// touched, so they cannot reach outside the region).
	elim := make(map[uint64]bool, len(eliminated))
	for _, v := range eliminated {
		elim[v.ID()] = true
	}
	var region []constraint.Violation
	for _, isl := range removed {
		for _, v := range isl.vios {
			if !elim[v.ID()] {
				region = append(region, v)
			}
		}
	}
	region = append(region, introduced...)
	slices.SortFunc(region, func(a, b constraint.Violation) int { return cmp.Compare(a.ID(), b.ID()) })
	region = slices.CompactFunc(region, func(a, b constraint.Violation) bool { return a.ID() == b.ID() })

	// Re-union-find the region in isolation, then point its old facts at
	// nothing and its new ones at their fresh islands in one path-copying
	// pass (for an id in both, the later entry wins).
	fresh = componentsOf(region)
	sortIslands(removed)
	next = &Partition{islands: p.islands - len(removed) + len(fresh), violations: p.violations}
	var es []trieEntry
	for _, isl := range removed {
		next.violations -= len(isl.vios)
		for _, f := range isl.Facts {
			es = append(es, trieEntry{f.ID(), nil})
		}
	}
	for _, isl := range fresh {
		next.violations += len(isl.vios)
	}
	next.idx = p.idx.with(indexEntries(es, fresh))
	return next, fresh, removed
}
