package markov

import (
	"errors"
	"fmt"
	"math/big"
	"runtime"
	"sort"
	"sync"

	"repro/internal/ops"
	"repro/internal/prob"
	"repro/internal/relation"
	"repro/internal/repair"
)

// This file implements the DAG-collapsed exact engine. The sequence tree of
// Definition 5 distinguishes states by their whole history, so it is
// factorial in the number of operations; but for a Collapsible chain
// (memoryless generator, TGD-free constraints) states with equal databases
// are interchangeable, and the tree quotients into a DAG whose nodes are
// the distinct reachable sub-databases. The engine accumulates each node's
// incoming path mass π (and the number of sequences reaching it) and pushes
// mass along edges computed once per node, instead of once per sequence
// prefix.
//
// Topological order comes for free: every operation of a TGD-free chain is
// a deletion, so each edge strictly shrinks the database and the nodes
// partition into levels by database size. A node's mass is complete once
// every strictly larger level has been processed, so the engine sweeps
// sizes downward.
//
// States are merged by the packed binary Database.IDKey encoding, derived
// incrementally: each state caches its sorted fact ids (repair.FactIDs) and
// a child's key is the parent's minus the deleted entry — one binary search
// plus two packed runs (State.AppendChildIDKey), never a re-enumeration of
// the database. The human-readable Database.Key() appears only at the
// presentation boundary: DAGLeaf.Key is converted once per absorbing
// database when the leaf is emitted.
//
// Each level is processed in three phases by sweep, which ExploreDAG and
// BuildSequenceDAG share. Phase 1 (parallel): every frontier node resolves
// its edges via stepRats and derives each edge's packed
// child key into a per-node byte arena — no child states yet. Phase 2
// (sequential, sorted-key order): edges are merged into child nodes,
// accumulating π with the small-rational fast path (prob.Rat) and sequence
// counts, and recording, for every *distinct* new child database, the
// deterministic (first in merge order) parent edge that creates it. Phase 3
// (parallel): only those creator edges materialize child states via
// repair.Child — one state per distinct database instead of one per edge.
// Phase 2's merge order is independent of scheduling and exact rational
// arithmetic is order-insensitive, so the result is bit-identical for every
// worker count. Once a level is merged its non-absorbing states are
// dropped, so retained memory tracks the live frontier (plus the witness
// chains pinned by it), not the whole DAG.
//
// The propagated per-leaf sequence counts are load-bearing beyond
// statistics: the sequence-uniform semantics (core.ComputeDAGMode with
// SequenceUniform) weighs each repair by Sequences/ΣSequences, and
// seqdag.go runs the same downward sweep, then the mirror-image upward
// pass over the recorded structure to sample complete sequences uniformly.

// ErrNotCollapsible is returned when ExploreDAG is asked to collapse a
// chain whose states are not interchangeable by database: a generator that
// does not declare Markovian memorylessness, or a constraint set with TGDs
// (whose histories prune extensions). Callers should fall back to Explore.
var ErrNotCollapsible = errors.New("markov: chain does not collapse to a DAG; use the sequence-tree engine")

// DAGLeaf is one absorbing database of the chain: a witness
// absorbing state (one representative sequence producing the database), the
// database's canonical string key (converted from the engine's packed merge
// key once, here, so consumers need not re-encode the database), the total
// hitting mass, and the number of absorbing sequences the sequence tree
// would enumerate for it.
type DAGLeaf struct {
	State     *repair.State
	Key       string // State.Result().Key()
	Pi        *big.Rat
	Sequences *big.Int
	// SeqsByLength[l] counts the absorbing sequences of length l producing
	// this database; Σ_l SeqsByLength[l] = Sequences. It is populated only
	// when ExploreOptions.TrackLengths is set (nil otherwise).
	SeqsByLength []*big.Int
}

// DAG summarizes an exact exploration: the result of both ExploreDAG and
// the sequence-tree walk Explore.
type DAG struct {
	// Leaves lists the absorbing databases in deterministic order, one
	// entry per distinct result (leaves are merged by database identity, so
	// no two entries share a database).
	Leaves []DAGLeaf
	// States counts the states visited, including the root: distinct
	// databases for ExploreDAG, sequences for Explore.
	States int
	// Edges counts the positive-probability transitions explored.
	Edges int
	// Sequences is the total number of absorbing sequences of the
	// underlying tree (Σ leaf sequence counts) — the size of the
	// exploration the collapse avoided.
	Sequences *big.Int
}

// dagNode accumulates a distinct state's incoming mass until its level is
// processed. Nodes are carved from slabs (takeNode) and recycled through a
// free list once their level is merged — absorbing nodes included, whose
// accumulators are copied out into the emitted DAGLeaf first — so nothing
// a node owns outlives the exploration and the embedded seqs big.Int keeps
// its storage across reuses.
type dagNode struct {
	state *repair.State
	// key is the node's packed id key — the same string the level map is
	// keyed by, so retaining it costs a pointer (seqdag.go relies on this
	// sharing for its child references).
	key  string
	pi   prob.Rat
	seqs big.Int
	// seqsByLen[l] counts the sequences of length l reaching the node; only
	// maintained under ExploreOptions.TrackLengths.
	seqsByLen []*big.Int
}

// expansion is phase 1's per-node result: the node's outgoing edges and the
// packed id key of each edge's child database, derived incrementally from
// the parent (no child state is materialized here). keyOff[j]:keyOff[j+1]
// bounds edge j's key in arena; arena, keyOff and the generator's weight
// buffer are reused across levels.
type expansion struct {
	edges   []ratEdge
	weights []int64
	keyOff  []int
	arena   []byte
	err     error
}

// childKey returns edge j's packed child database key.
func (exp *expansion) childKey(j int) []byte {
	return exp.arena[exp.keyOff[j]:exp.keyOff[j+1]]
}

// creator records the deterministic (parent, op) edge chosen to materialize
// a distinct child database's state in phase 3.
type creator struct {
	parent *dagNode
	child  *dagNode
	op     ops.Op
}

// ExploreDAG explores the support of a Collapsible chain M_Σ(D) merged by
// database and returns its absorbing databases with exact hitting
// probabilities. The leaf masses sum to exactly 1 (Proposition 3 survives
// the quotient: merging states preserves total mass). opt.MaxStates bounds
// the number of distinct databases; opt.Workers sizes the per-level worker
// pool. The result is bit-identical for every worker count.
func ExploreDAG(inst *repair.Instance, g Generator, opt ExploreOptions) (*DAG, error) {
	dag := &DAG{Sequences: new(big.Int)}
	// total accumulates the emitted leaf mass for the Proposition 3 sanity
	// check, entirely on the small-rational fast path.
	var total prob.Rat
	var err error
	dag.States, dag.Edges, err = sweep(inst, g, opt, func(n *dagNode, edges []ratEdge) {
		if len(edges) > 0 {
			return
		}
		// Absorbing: convert the packed merge key to the canonical string
		// key — the engine's only legacy-key encoding, once per distinct
		// absorbing database — and copy the accumulators out, so the node
		// itself can be recycled.
		dag.Leaves = append(dag.Leaves, DAGLeaf{
			State: n.state, Key: n.state.Result().Key(), Pi: n.pi.Big(),
			Sequences: new(big.Int).Set(&n.seqs), SeqsByLength: n.seqsByLen,
		})
		dag.Sequences.Add(dag.Sequences, &n.seqs)
		total.Add(&n.pi)
	}, func(n, cn *dagNode, e *ratEdge) {
		cn.pi.AddMulRat(&n.pi, &e.p)
		cn.seqs.Add(&cn.seqs, &n.seqs)
		if opt.TrackLengths {
			// Every edge is one operation: sequences of length l at the
			// parent extend to length l+1 at the child.
			for len(cn.seqsByLen) < len(n.seqsByLen)+1 {
				cn.seqsByLen = append(cn.seqsByLen, new(big.Int))
			}
			for l, cnt := range n.seqsByLen {
				cn.seqsByLen[l+1].Add(cn.seqsByLen[l+1], cnt)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if !total.IsOne() {
		return nil, fmt.Errorf("%w: hitting distribution sums to %s", ErrNotWellDefined, total.Big().RatString())
	}
	return dag, nil
}

// sweep is the downward level sweep shared by ExploreDAG and
// BuildSequenceDAG: it merges the states of a Collapsible chain by
// database and processes the levels in decreasing size, in the three
// phases described at the top of this file. visit is called once per
// distinct database, in sweep order, with its node and resolved edges
// (none at an absorbing database); edge is then called once per edge with
// the child node the edge reaches. Both run sequentially, so they may
// accumulate into the nodes freely. The root starts with mass 1 and one
// (empty) sequence. sweep returns the number of distinct databases and of
// edges.
func sweep(inst *repair.Instance, g Generator, opt ExploreOptions,
	visit func(n *dagNode, edges []ratEdge), edge func(n, child *dagNode, e *ratEdge)) (states, edges int, err error) {
	if !Collapsible(inst, g) {
		return 0, 0, fmt.Errorf("%w (generator %s)", ErrNotCollapsible, g.Name())
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	root := inst.Root()
	rootSize := root.Result().Size()
	rootKey := string(relation.AppendIDKey(make([]byte, 0, 4*rootSize), root.FactIDs()))
	rootNode := &dagNode{state: root, key: rootKey, pi: prob.RatOne()}
	rootNode.seqs.SetInt64(1)
	if opt.TrackLengths {
		rootNode.seqsByLen = []*big.Int{big.NewInt(1)} // the empty sequence
	}
	// levels[n] holds the pending nodes whose database has n facts; edges
	// only shrink the database, so sizes range over [0, rootSize] and a
	// slice indexed by size replaces a map of levels.
	levels := make([]map[string]*dagNode, rootSize+1)
	levels[rootSize] = map[string]*dagNode{rootKey: rootNode}
	states = 1

	// Per-level scratch, reused across the sweep: the sorted frontier, its
	// expansions (each with its key arena), the new-database creator list,
	// and the dagNode free list.
	var (
		nodes    []*dagNode
		exps     []expansion
		creators []creator
		arena    nodeArena
	)

	for size := rootSize; size >= 0; size-- {
		level := levels[size]
		levels[size] = nil
		if len(level) == 0 {
			continue
		}
		nodes = nodes[:0]
		for _, n := range level {
			nodes = append(nodes, n)
		}
		// Sequential merge in sorted-key order: deterministic leaf order
		// and mass accumulation independent of scheduling.
		sort.Slice(nodes, func(i, j int) bool { return nodes[i].key < nodes[j].key })

		exps = expandLevel(g, nodes, exps, workers)

		creators = creators[:0]
		for i, n := range nodes {
			exp := &exps[i]
			if exp.err != nil {
				return 0, 0, exp.err
			}
			visit(n, exp.edges)
			for j := range exp.edges {
				e := &exp.edges[j]
				ck := exp.childKey(j)
				csize := len(ck) / 4
				if csize >= size {
					// Cannot happen for a TGD-free chain (every op deletes);
					// guard the topological order rather than corrupt masses.
					return 0, 0, fmt.Errorf("%w: operation %s grew the database", ErrNotCollapsible, e.op)
				}
				edges++
				lvl := levels[csize]
				if lvl == nil {
					lvl = map[string]*dagNode{}
					levels[csize] = lvl
				}
				cn, ok := lvl[string(ck)] // compiles to a no-alloc lookup
				if !ok {
					cn = arena.take()
					cn.key = string(ck) // the one key allocation per distinct database
					lvl[cn.key] = cn
					creators = append(creators, creator{parent: n, child: cn, op: e.op})
					states++
					if opt.MaxStates > 0 && states > opt.MaxStates {
						return 0, 0, ErrStateBudget
					}
				}
				edge(n, cn, e)
			}
		}

		materializeStates(creators, workers)

		// The level is merged: recycle every node and drop its state, so
		// peak memory tracks the frontier. (Whatever the callers keep of a
		// node was copied out or detached in visit.)
		for _, n := range nodes {
			n.state = nil
			n.key = ""
			n.pi = prob.Rat{}
			n.seqs.SetInt64(0)
			n.seqsByLen = nil
			arena.free = append(arena.free, n)
		}
	}
	return states, edges, nil
}

// nodeArena hands out dagNodes from a free list (recycled merged levels)
// or geometrically growing slabs: tiny chains — the factored engine
// explores thousands of few-state components — pay for a handful of
// nodes, while large frontiers amortize to one allocation per slab. Nodes
// never escape the exploration (leaves copy their accumulators out), so
// pinning a slab until the run ends costs nothing extra.
type nodeArena struct {
	free []*dagNode
	slab []dagNode
	size int
}

func (a *nodeArena) take() *dagNode {
	if n := len(a.free); n > 0 {
		nd := a.free[n-1]
		a.free = a.free[:n-1]
		return nd
	}
	if len(a.slab) == 0 {
		switch {
		case a.size == 0:
			a.size = 8
		case a.size < 256:
			a.size *= 4
		}
		a.slab = make([]dagNode, a.size)
	}
	nd := &a.slab[0]
	a.slab = a.slab[1:]
	return nd
}

// expandLevel is phase 1: every node of the frontier resolves its edges via
// stepRats and derives each edge's packed child database key into the
// node's reused arena. Nodes are independent — each worker owns its node
// and only reads the shared instance caches — so the level fans out over
// the worker pool. exps is scratch from the previous level; it is grown as
// needed and returned.
func expandLevel(g Generator, nodes []*dagNode, exps []expansion, workers int) []expansion {
	if cap(exps) < len(nodes) {
		exps = append(exps[:cap(exps)], make([]expansion, len(nodes)-cap(exps))...)
	}
	exps = exps[:len(nodes)]
	parallel(len(nodes), workers, func(i int) {
		n, exp := nodes[i], &exps[i]
		exp.err = nil
		exp.arena = exp.arena[:0]
		exp.keyOff = append(exp.keyOff[:0], 0)
		edges, weights, err := stepRats(g, n.state, exp.edges[:0], exp.weights)
		exp.edges, exp.weights = edges, weights
		if err != nil {
			exp.err = err
			return
		}
		for i := range edges {
			exp.arena = n.state.AppendChildIDKey(exp.arena, edges[i].op)
			exp.keyOff = append(exp.keyOff, len(exp.arena))
		}
	})
	return exps
}

// materializeStates is phase 3: each distinct new child database gets its
// state from its recorded creator edge. Creators may share a parent state;
// repair.Child only reads the parent (its id and extension caches were
// warmed single-owner in phase 1), so the fan-out is safe. After the pool
// drains, every new state's sorted fact ids — exactly the decode of its
// packed merge key — are carved from one per-level arena and seeded with
// SetFactIDs, so the next level's key derivations never write lazily (and
// never allocate per state).
func materializeStates(creators []creator, workers int) {
	parallel(len(creators), workers, func(i int) {
		c := &creators[i]
		c.child.state = c.parent.state.Child(c.op)
	})
	total := 0
	for i := range creators {
		total += len(creators[i].child.key) / 4
	}
	arena := make([]uint32, 0, total)
	for i := range creators {
		start := len(arena)
		k := creators[i].child.key
		for j := 0; j+4 <= len(k); j += 4 {
			arena = append(arena, uint32(k[j])<<24|uint32(k[j+1])<<16|uint32(k[j+2])<<8|uint32(k[j+3]))
		}
		creators[i].child.state.SetFactIDs(arena[start:len(arena):len(arena)])
	}
}

// parallel runs do(i) for every i in [0, n) on min(workers, n) goroutines.
// Narrow batches (the first and last few levels of every chain, and all of
// a small chain) are cheaper to run inline than to fan out.
func parallel(n, workers int, do func(i int)) {
	const minParallel = 16
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < minParallel {
		for i := 0; i < n; i++ {
			do(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				do(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
