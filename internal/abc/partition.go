package abc

import (
	"sort"

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

// Island is one connected component of the conflict hypergraph, resident
// across updates. Islands are immutable once published by NewPartition or
// Update: an update that touches an island replaces it rather than mutating
// it, so partitions from successive updates share unaffected islands.
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

// factLayer is one layer of the partition's persistent fact→island index: a
// small overlay map over an immutable parent chain. A nil island value is a
// tombstone (the fact left the conflict region). Layers are immutable once
// published; Update pushes an overlay sized by the affected region, and the
// chain is folded into a single base map when it grows past maxIndexDepth,
// keeping lookups bounded and the amortized per-update cost proportional to
// the region.
type factLayer struct {
	m      map[uint32]*Island
	parent *factLayer
	depth  int
}

const maxIndexDepth = 16

func (l *factLayer) lookup(id uint32) *Island {
	for ; l != nil; l = l.parent {
		if isl, ok := l.m[id]; ok {
			return isl
		}
	}
	return nil
}

// Partition is the component partition of the conflict hypergraph, designed
// for residency: IslandOf answers fact→island in O(index depth) map probes,
// and Update re-partitions only the components touched by a violation-set
// delta, returning the next partition without invalidating this one.
// Partitions are immutable; successive Updates share unaffected islands and
// index layers, so long-lived readers of an old partition stay consistent.
type Partition struct {
	islands []*Island
	idx     *factLayer
}

// NewPartition builds the partition of V(D,Σ) from scratch. The islands
// are the components of ConflictGraph.Components over the same violation
// set, in the same deterministic order (sorted by smallest fact).
func NewPartition(vs *constraint.Violations) *Partition {
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
	all := vs.ByID()
	for _, v := range all {
		body := v.BodyFacts()
		if len(body) == 0 {
			continue
		}
		ra := find(indexOf(body[0]))
		for _, f := range body[1:] {
			rb := find(indexOf(f))
			if ra != rb {
				parent[rb] = ra
			}
		}
	}
	islands := islandsFromUnionFind(facts, parent, find, idx, all)
	base := make(map[uint32]*Island, len(facts))
	for _, isl := range islands {
		for _, f := range isl.Facts {
			base[f.ID()] = isl
		}
	}
	return &Partition{islands: islands, idx: &factLayer{m: base}}
}

// islandsFromUnionFind groups the facts by union-find root into islands
// (each sorted, islands ordered by smallest fact) and distributes the
// violations: every violation's body is connected, so it lands in the
// island of its first body fact. idx is the caller's fact→union-find-slot
// map, shared so it is not rebuilt here.
func islandsFromUnionFind(facts []relation.Fact, parent []int32, find func(int32) int32, idx map[relation.Fact]int32, vios []constraint.Violation) []*Island {
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
	sort.Slice(order, func(i, j int) bool {
		return relation.CompareFacts(order[i].Facts[0], order[j].Facts[0]) < 0
	})
	for _, v := range vios {
		body := v.BodyFacts()
		if len(body) == 0 {
			continue
		}
		isl := byRoot[find(idx[body[0]])]
		isl.vios = append(isl.vios, v)
	}
	return order
}

// Islands returns the islands ordered by smallest fact; the slice is shared
// and must not be modified.
func (p *Partition) Islands() []*Island { return p.islands }

// Len reports the number of islands.
func (p *Partition) Len() int { return len(p.islands) }

// Components returns the islands as bare fact sets, matching
// ConflictGraph.Components.
func (p *Partition) Components() [][]relation.Fact {
	out := make([][]relation.Fact, len(p.islands))
	for i, isl := range p.islands {
		out[i] = isl.Facts
	}
	return out
}

// IslandOf returns the island containing the fact, or nil when the fact is
// in no violation. Safe for concurrent readers.
func (p *Partition) IslandOf(f relation.Fact) *Island {
	return p.idx.lookup(f.ID())
}

// Update derives the partition after a violation-set transition: eliminated
// and introduced are the delta reported by constraint.UpdateViolationsDelta
// for an update that changed the given facts, applied to the database this
// partition was built from. It re-partitions only the affected region and
// returns the next partition plus the island churn: fresh lists the islands
// created by this update (their Payload is nil) and removed the islands of
// p that dissolved, both ordered by smallest fact. Islands outside the
// region are shared by pointer — Payload and all — and p itself remains
// valid. When the delta leaves the partition untouched (clean inserts or
// deletes), Update returns p with no churn.
func (p *Partition) Update(eliminated, introduced []constraint.Violation, changed []relation.Fact) (next *Partition, fresh, removed []*Island) {
	touched := constraint.TouchedFacts(changed, eliminated, introduced)
	seenIsl := map[*Island]bool{}
	var affected []*Island
	for _, f := range touched {
		if isl := p.IslandOf(f); isl != nil && !seenIsl[isl] {
			seenIsl[isl] = true
			affected = append(affected, isl)
		}
	}
	if len(affected) == 0 && len(introduced) == 0 {
		return p, nil, nil
	}

	// The region's violations: the affected islands' violations minus the
	// eliminated ones, plus the introduced ones (introduced bodies are
	// touched, so they cannot reach outside the region).
	elim := make(map[uint64]bool, len(eliminated))
	for _, v := range eliminated {
		elim[v.ID()] = true
	}
	seenV := map[uint64]bool{}
	var region []constraint.Violation
	for _, isl := range affected {
		for _, v := range isl.vios {
			if id := v.ID(); !elim[id] && !seenV[id] {
				seenV[id] = true
				region = append(region, v)
			}
		}
	}
	for _, v := range introduced {
		if id := v.ID(); !seenV[id] {
			seenV[id] = true
			region = append(region, v)
		}
	}

	// Re-union-find the region in isolation.
	idx := map[relation.Fact]int32{}
	var facts []relation.Fact
	var parent []int32
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
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
	for _, v := range region {
		body := v.BodyFacts()
		if len(body) == 0 {
			continue
		}
		ra := find(indexOf(body[0]))
		for _, f := range body[1:] {
			rb := find(indexOf(f))
			if ra != rb {
				parent[rb] = ra
			}
		}
	}
	fresh = islandsFromUnionFind(facts, parent, find, idx, region)

	removed = affected
	sort.Slice(removed, func(i, j int) bool {
		return relation.CompareFacts(removed[i].Facts[0], removed[j].Facts[0]) < 0
	})

	// Merge: p.islands minus removed is sorted, fresh is sorted, and islands
	// are disjoint fact sets, so a linear merge keeps smallest-fact order.
	merged := make([]*Island, 0, len(p.islands)-len(removed)+len(fresh))
	fi := 0
	for _, isl := range p.islands {
		if seenIsl[isl] {
			continue
		}
		for fi < len(fresh) && relation.CompareFacts(fresh[fi].Facts[0], isl.Facts[0]) < 0 {
			merged = append(merged, fresh[fi])
			fi++
		}
		merged = append(merged, isl)
	}
	merged = append(merged, fresh[fi:]...)

	overlay := make(map[uint32]*Island)
	for _, isl := range removed {
		for _, f := range isl.Facts {
			overlay[f.ID()] = nil
		}
	}
	for _, isl := range fresh {
		for _, f := range isl.Facts {
			overlay[f.ID()] = isl
		}
	}
	layer := &factLayer{m: overlay, parent: p.idx, depth: p.idx.depth + 1}
	next = &Partition{islands: merged, idx: layer}
	if layer.depth > maxIndexDepth {
		base := make(map[uint32]*Island)
		for _, isl := range merged {
			for _, f := range isl.Facts {
				base[f.ID()] = isl
			}
		}
		next.idx = &factLayer{m: base}
	}
	return next, fresh, removed
}
