package markov

import (
	"errors"
	"fmt"
	"math/big"
	"runtime"
	"slices"
	"strings"
	"sync"

	"repro/internal/ops"
	"repro/internal/prob"
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
// Without TGDs every operation deletes facts of a current violation and no
// deletion creates one, so every reachable database is the initial one
// minus a set of the root's conflicted facts. A node is therefore named by
// its conflict key (repair.ConflictIndex): the bitset of the conflicted
// facts it still holds. An edge's child key is the parent's with the
// operation's bits cleared, and a node's extensions are the root's
// filtered by the key, so no edge and no interior node ever needs a
// database. Topological order comes for free: each edge clears at least
// one bit, so the nodes partition into levels by popcount, and a node's
// mass is complete once every higher level has been processed; the engine
// sweeps the levels downward.
//
// Each level is processed in two phases by sweep, which ExploreDAG and
// BuildSequenceDAG share, over sorted chunks of the frontier (128 nodes
// per worker), so the phase 1 buffers stay a chunk's size. Phase 1
// (parallel): every frontier node gets its state — the
// repair.State.DeferredChild of its creator edge, holding the node's key
// and the key's extension list but no database — resolves its edges via
// stepRats and writes each edge's child key into its worker's byte arena.
// Phase 2 (sequential, sorted-key order): edges are merged into child
// nodes, accumulating π with the small-rational fast path (prob.Rat) and
// sequence counts with the small-integer one (prob.Count), and recording,
// for every *distinct* new child, the deterministic (first in merge order)
// edge that creates it. A deferred state builds its database and
// violations from the root on first read, so generators that look only at
// the extensions (uniform, uniform-deletions) or the conflict key
// (preference) build none at interior nodes, and absorbing databases are
// built once, when their leaf is emitted — the only place the
// human-readable Database.Key() is computed. Phase 2's merge order is
// independent of scheduling and exact arithmetic is order-insensitive, so
// the result is bit-identical for every worker count. Once a level is
// merged its nodes are recycled, so retained memory tracks the live
// frontier (plus the witness chains pinned by it), not the whole DAG.
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
	State *repair.State
	Key   string // State.Result().Key()
	// Pi is the hitting mass; it is nil from ExploreDAGMode under
	// SequenceUniform, which computes no walk mass.
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

// ErrPanicked is returned when a generator (or anything else a frontier
// expansion or an estimator walk runs) panics: the DAG sweep and the
// estimators of internal/sampling recover the panic on the worker and fail
// the call with an error naming the state or the walk, whatever the
// worker count.
var ErrPanicked = errors.New("markov: panic while stepping the chain")

// dagNode accumulates a distinct state's incoming mass until its level is
// processed. Nodes are carved from slabs (nodeArena) and recycled through a
// free list once their level is merged — absorbing nodes included, whose
// accumulators are copied out into the emitted DAGLeaf first — so nothing
// a node owns outlives the exploration.
type dagNode struct {
	// state is nil until phase 1 builds it from the creator edge
	// (parent, op); the root starts with its state.
	state  *repair.State
	parent *repair.State
	op     ops.Op
	// key is the node's conflict key — the same string the level map is
	// keyed by, so retaining it costs a pointer (seqdag.go relies on this
	// sharing for its child references).
	key  string
	pi   prob.Rat
	seqs prob.Count
	// seqsByLen[l] counts the sequences of length l reaching the node; only
	// maintained under ExploreOptions.TrackLengths.
	seqsByLen []*big.Int
}

// expansion is phase 1's per-node result: the node's outgoing edges are
// wks[w].edges[lo:hi], and edge k's child conflict key is the k-th key of
// wks[w].keys.
type expansion struct {
	w, lo, hi int
	err       error
}

// worker is one phase 1 goroutine's storage. Expansions append their edges
// and child keys here instead of into per-node buffers, so a chunk of a
// level costs no allocation once the buffers have grown; edges and keys
// are reset per chunk, weights and exts per node. slab is never reused:
// the extension lists of new states are carved from it and stay with the
// states.
type worker struct {
	edges   []ratEdge
	weights []int64
	exts    []ops.Op
	keys    []byte
	slab    []ops.Op
	slabLen int
}

// carve copies exts into slab storage owned by the caller from now on.
func (wk *worker) carve(exts []ops.Op) []ops.Op {
	if len(exts) == 0 {
		return nil
	}
	if len(wk.slab) < len(exts) {
		// Grow geometrically, as nodeArena does: the factored engine runs
		// thousands of few-state sweeps.
		switch {
		case wk.slabLen == 0:
			wk.slabLen = 64
		case wk.slabLen < 4096:
			wk.slabLen *= 4
		}
		wk.slab = make([]ops.Op, max(wk.slabLen, len(exts)))
	}
	out := wk.slab[:len(exts):len(exts)]
	copy(out, exts)
	wk.slab = wk.slab[len(exts):]
	return out
}

// ExploreDAG explores the support of a Collapsible chain M_Σ(D) merged by
// database and returns its absorbing databases with exact hitting
// probabilities. The leaf masses sum to exactly 1 (Proposition 3 survives
// the quotient: merging states preserves total mass). opt.MaxStates bounds
// the number of distinct databases; opt.Workers sizes the per-level worker
// pool. The result is bit-identical for every worker count. It is
// ExploreDAGMode under WalkInduced.
func ExploreDAG(inst *repair.Instance, g Generator, opt ExploreOptions) (*DAG, error) {
	return ExploreDAGMode(inst, g, opt, WalkInduced)
}

// ExploreDAGMode is ExploreDAG for the semantics mode that will read the
// result. Under SequenceUniform, whose probabilities are sequence-count
// ratios, the sweep propagates only the support and the sequence counts:
// it resolves no edge probability and accumulates no walk mass, so every
// DAGLeaf.Pi is nil and the Proposition 3 check is left to the
// walk-induced sweep. Every state's generator output is validated either
// way.
func ExploreDAGMode(inst *repair.Instance, g Generator, opt ExploreOptions, mode SemanticsMode) (*DAG, error) {
	mass := mode != SequenceUniform
	dag := &DAG{Sequences: new(big.Int)}
	// total accumulates the emitted leaf mass for the Proposition 3 sanity
	// check, entirely on the small-rational fast path.
	var total prob.Rat
	var err error
	dag.States, dag.Edges, err = sweep(inst, g, opt, mass, func(n *dagNode, edges []ratEdge) {
		if len(edges) > 0 {
			return
		}
		// Absorbing: build the database (the deferred state's first read)
		// and its canonical string key, once per distinct absorbing
		// database, and copy the accumulators out, so the node itself can
		// be recycled.
		seqs := n.seqs.Big()
		leaf := DAGLeaf{
			State: n.state, Key: n.state.Result().Key(),
			Sequences: seqs, SeqsByLength: n.seqsByLen,
		}
		if mass {
			leaf.Pi = n.pi.Big()
			total.Add(&n.pi)
		}
		dag.Leaves = append(dag.Leaves, leaf)
		dag.Sequences.Add(dag.Sequences, seqs)
	}, func(n, cn *dagNode, e *ratEdge) {
		if mass {
			cn.pi.AddMulRat(&n.pi, &e.p)
		}
		cn.seqs.Add(&n.seqs)
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
	if mass && !total.IsOne() {
		return nil, fmt.Errorf("%w: hitting distribution sums to %s", ErrNotWellDefined, total.Big().RatString())
	}
	return dag, nil
}

// sweep is the downward level sweep shared by ExploreDAG and
// BuildSequenceDAG: it merges the states of a Collapsible chain by
// conflict key and processes the levels in decreasing popcount, in the two
// phases described at the top of this file. visit is called once per
// distinct database, in sweep order, with its node and resolved edges
// (none at an absorbing database); edge is then called once per edge with
// the child node the edge reaches. Both run sequentially, so they may
// accumulate into the nodes freely. The root starts with mass 1 and one
// (empty) sequence. Without mass the edges carry no probability (see
// stepRats). sweep returns the number of distinct databases and of edges.
func sweep(inst *repair.Instance, g Generator, opt ExploreOptions, mass bool,
	visit func(n *dagNode, edges []ratEdge), edge func(n, child *dagNode, e *ratEdge)) (states, edges int, err error) {
	if !Collapsible(inst, g) {
		return 0, 0, fmt.Errorf("%w (generator %s)", ErrNotCollapsible, g.Name())
	}
	ix, err := inst.Conflicts()
	if err != nil {
		return 0, 0, err
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	rootKey := ix.RootKey()
	rootNode := &dagNode{state: ix.Root(), key: rootKey, pi: prob.RatOne(), seqs: prob.CountOne()}
	if opt.TrackLengths {
		rootNode.seqsByLen = []*big.Int{big.NewInt(1)} // the empty sequence
	}
	// levels[n] holds the pending nodes that still hold n conflicted facts
	// (the popcount of their key); edges only clear bits, so a slice
	// indexed by popcount replaces a map of levels.
	top := ix.Conflicted()
	levels := make([]map[string]*dagNode, top+1)
	levels[top] = map[string]*dagNode{rootKey: rootNode}
	states = 1

	// Per-level scratch, reused across the sweep: the sorted frontier, its
	// expansions, the phase 1 workers' buffers, and the dagNode free list.
	var (
		nodes []*dagNode
		exps  []expansion
		arena nodeArena
	)
	wks := make([]worker, workers)
	keyLen := len(rootKey)
	chunk := 128 * workers

	for held := top; held >= 0; held-- {
		level := levels[held]
		levels[held] = nil
		if len(level) == 0 {
			continue
		}
		nodes = nodes[:0]
		for _, n := range level {
			nodes = append(nodes, n)
		}
		// Sequential merge in sorted-key order: deterministic leaf order
		// and mass accumulation independent of scheduling.
		slices.SortFunc(nodes, func(a, b *dagNode) int { return strings.Compare(a.key, b.key) })

		// The level runs in sorted chunks, each expanded in parallel and
		// then merged: the merge order is the sorted order whatever the
		// chunking, and the workers' buffers stay a chunk's size.
		for lo := 0; lo < len(nodes); lo += chunk {
			part := nodes[lo:min(lo+chunk, len(nodes))]
			exps = expandChunk(ix, g, mass, part, exps, wks)
			for i, n := range part {
				exp := &exps[i]
				if exp.err != nil {
					return 0, 0, exp.err
				}
				wk := &wks[exp.w]
				out := wk.edges[exp.lo:exp.hi]
				visit(n, out)
				for j := range out {
					e := &out[j]
					k := (exp.lo + j) * keyLen
					ck := wk.keys[k : k+keyLen]
					edges++
					// The op deletes e.op.Size() held facts (AppendChildKey
					// checked each one).
					cheld := held - e.op.Size()
					lvl := levels[cheld]
					if lvl == nil {
						// Sized like the parent level: neighbouring levels
						// are of comparable width, and growing a map
						// rehashes every key.
						lvl = make(map[string]*dagNode, len(nodes))
						levels[cheld] = lvl
					}
					cn, ok := lvl[string(ck)] // compiles to a no-alloc lookup
					if !ok {
						cn = arena.take()
						cn.key = string(ck) // the one key allocation per distinct database
						cn.parent, cn.op = n.state, e.op
						lvl[cn.key] = cn
						states++
						if opt.MaxStates > 0 && states > opt.MaxStates {
							return 0, 0, ErrStateBudget
						}
					}
					edge(n, cn, e)
				}
			}
		}

		// The level is merged: recycle every node, so peak memory tracks
		// the frontier. (Whatever the callers keep of a node was copied out
		// or detached in visit.)
		for _, n := range nodes {
			*n = dagNode{}
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

// expandChunk is phase 1 for a chunk of the frontier: every node gets its
// deferred state from its creator edge, resolves its edges via stepRats
// and writes each edge's child conflict key, into the buffers of the
// worker that runs it. Nodes are independent — each worker owns its node
// and only reads the shared instance caches and the conflict index — so
// the chunk fans out over the worker pool. A panic is recovered into the
// node's error on whichever goroutine runs it. exps is scratch from the
// previous chunk; it is grown as needed and returned.
func expandChunk(ix *repair.ConflictIndex, g Generator, mass bool, nodes []*dagNode, exps []expansion, wks []worker) []expansion {
	if cap(exps) < len(nodes) {
		exps = append(exps[:cap(exps)], make([]expansion, len(nodes)-cap(exps))...)
	}
	exps = exps[:len(nodes)]
	for i := range wks {
		wks[i].edges, wks[i].keys = wks[i].edges[:0], wks[i].keys[:0]
	}
	parallel(len(nodes), len(wks), func(w, i int) {
		n, exp, wk := nodes[i], &exps[i], &wks[w]
		*exp = expansion{w: w, lo: len(wk.edges), hi: len(wk.edges)}
		defer func() {
			if r := recover(); r != nil {
				at := n.state
				if at == nil {
					at = n.parent
				}
				exp.err = fmt.Errorf("%w at state %q: %v", ErrPanicked, at, r)
			}
		}()
		if n.state == nil {
			wk.exts = ix.AppendExtensions(wk.exts[:0], n.key)
			n.state = n.parent.DeferredChild(n.op, wk.carve(wk.exts), n.key)
			n.parent, n.op = nil, ops.Op{}
		}
		var err error
		wk.edges, wk.weights, err = stepRats(g, n.state, mass, wk.edges, wk.weights)
		if err != nil {
			exp.err = err
			return
		}
		for _, e := range wk.edges[exp.lo:] {
			var ok bool
			if wk.keys, ok = ix.AppendChildKey(wk.keys, n.key, e.op); !ok {
				// Cannot happen for a TGD-free chain (every extension
				// deletes held conflicted facts); guard the level order
				// rather than corrupt masses.
				exp.err = fmt.Errorf("%w: operation %s deletes no held conflicted fact", ErrNotCollapsible, e.op)
				return
			}
		}
		exp.hi = len(wk.edges)
	})
	return exps
}

// parallel runs do(w, i) for every i in [0, n) on min(workers, n)
// goroutines, w numbering the goroutine that runs i (0 on the inline
// path). Narrow batches (the first and last few levels of every chain, and
// all of a small chain) are cheaper to run inline than to fan out.
func parallel(n, workers int, do func(w, i int)) {
	const minParallel = 16
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < minParallel {
		for i := 0; i < n; i++ {
			do(0, i)
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
				do(w, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
