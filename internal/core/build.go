package core

import (
	"fmt"

	"repro/internal/abc"
	"repro/internal/constraint"
	"repro/internal/markov"
	"repro/internal/relation"
)

// This file holds the per-island pieces of ComputeFactoredDelta: a
// buildScope fixes the exploration configuration of one build (a
// from-scratch ComputeFactored call or one resident-server publication),
// opens one structural-cache accounting window, and explores islands from
// the build's worker pool; updateUntouched maintains the untouched core
// across a delta. Explorations are pure functions of the island's fact
// set, so the scheduling — which goroutine, which order — never leaks into
// the result.

// buildScope groups the component explorations of one factored build:
// explore each fresh island from any goroutine, then settle the
// deterministic cache accounting with accounting over the results in
// island order.
type buildScope struct {
	sigma      *constraint.Set
	g          LocalGenerator
	opt        markov.ExploreOptions
	structural bool
	cache      *SemanticsCache
	call       uint64
}

// newBuildScope opens a build scope; opt is used as-is for every
// exploration. The structural semantics cache engages for a structural
// generator, a constant-free Σ, and no FactoredOptions.NoCache.
func newBuildScope(sigma *constraint.Set, g LocalGenerator, opt markov.ExploreOptions, fopt FactoredOptions) *buildScope {
	sc := &buildScope{sigma: sigma, g: g, opt: opt}
	if !fopt.NoCache {
		if sg, ok := g.(StructuralGenerator); ok && sg.StructuralWeights() && len(sigma.ConstSyms()) == 0 {
			sc.structural = true
			sc.cache = fopt.Cache
			if sc.cache == nil {
				sc.cache = NewSemanticsCache()
			}
			sc.call = sc.cache.begin()
		}
	}
	return sc
}

// explored is one island's exploration result: the component plus the
// bookkeeping accounting needs to split the scope's cache traffic.
type explored struct {
	comp  *Component
	key   string
	entry *cacheEntry
}

// explore builds the Component of one conflict island: on the structural
// path the island is renamed to its canonical form up to constant
// renaming and the shared canonical semantics is explored at most once
// per shape, however the island's constants are named (concurrent
// isomorphic explorations coalesce on the cache entry; an island past the
// canonicalization search budget keeps a first-occurrence key, which may
// cost a second exploration of its shape); otherwise the island is explored
// directly, seeded with the violations it already carries. Safe for
// concurrent use by multiple goroutines of the same scope.
func (sc *buildScope) explore(isl *abc.Island) (explored, error) {
	facts := isl.Facts
	c := &Component{Facts: facts}
	if sc.structural {
		canonFacts, key, inv, _ := canonicalize(facts)
		e := sc.cache.entry(key, sc.call)
		// The exploration runs on the canonical instance — a pure
		// function of the cache key — so every isomorphic component
		// observes the identical shared semantics regardless of which
		// one arrived first.
		e.once.Do(func() {
			e.sem, e.err = computeComponent(sc.sigma, sc.g, sc.opt, canonFacts, renameViolations(isl.Violations(), canonRenaming(inv)))
		})
		if e.err != nil {
			return explored{}, fmt.Errorf("component %s: %w", relation.FactsString(facts), e.err)
		}
		c.canon = e.sem
		c.canonFacts, c.inv = canonFacts, inv
		return explored{comp: c, key: key, entry: e}, nil
	}
	sem, err := computeComponent(sc.sigma, sc.g, sc.opt, facts, constraint.ViolationsOf(isl.Violations()))
	if err != nil {
		return explored{}, fmt.Errorf("component %s: %w", relation.FactsString(facts), err)
	}
	c.sem = sem
	return explored{comp: c}, nil
}

// accounting returns the deterministic cache hit/miss split of the
// scope's explorations, listed in deterministic island order: the first
// exploration of each distinct shape is a miss if the shape entered the
// cache under this scope's window and a hit if an earlier build left it
// there; every repeat of a shape is a hit. The split is a pure function
// of the explored islands and the cache's pre-build contents, whatever
// the goroutine scheduling was. Zero under a non-structural scope.
func (sc *buildScope) accounting(results []explored) (hits, misses int) {
	if !sc.structural {
		return 0, 0
	}
	distinct := make(map[string]bool, len(results))
	for _, e := range results {
		if e.entry == nil {
			continue
		}
		if distinct[e.key] {
			hits++
			continue
		}
		distinct[e.key] = true
		if e.entry.call == sc.call {
			misses++
		} else {
			hits++
		}
	}
	return hits, misses
}

// rollback removes the shapes this scope added to the cache, failed
// explorations included, so a failed build leaves the cache as it found
// it: the shape count and the hit/miss split of later builds never show
// the failure, and a later build of a failed shape explores it again.
func (sc *buildScope) rollback() {
	if sc.structural {
		sc.cache.drop(sc.call)
	}
}

// untouchedCompactLimit bounds the copy-on-write delta an incrementally
// maintained untouched core may accumulate before it is folded into a fresh
// snapshot; see relation.Database.Compact.
const untouchedCompactLimit = 4096

// updateUntouched derives the post-delta untouched core from the
// previous one in O(delta + touched region): the fact delta is applied,
// the facts of dissolved islands return when they are still present and
// conflict-free under the post-delta partition, and the facts the fresh
// islands claimed are evicted. db is the post-delta database and part
// its partition; removed and fresh are the island churn between the
// previous build's partition and part.
func updateUntouched(prev, db *relation.Database, part *abc.Partition, ops []FactDelta, removed, fresh []*abc.Island) *relation.Database {
	untouched := prev.Clone()
	for _, op := range ops {
		if op.Insert {
			untouched.Insert(op.Fact)
		} else {
			untouched.Delete(op.Fact)
		}
	}
	for _, isl := range removed {
		for _, f := range isl.Facts {
			if db.Contains(f) && part.IslandOf(f) == nil {
				untouched.Insert(f)
			}
		}
	}
	for _, isl := range fresh {
		for _, f := range isl.Facts {
			untouched.Delete(f)
		}
	}
	untouched.Compact(untouchedCompactLimit)
	return untouched
}
