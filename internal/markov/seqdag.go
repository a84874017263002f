package markov

import (
	"fmt"
	"math/big"
	"math/rand"

	"repro/internal/ops"
	"repro/internal/prob"
	"repro/internal/repair"
)

// This file implements uniform sequence sampling over the collapsed chain:
// the classic counting-to-sampling reduction. ExploreDAG propagates path
// counts *downward* (how many sequences reach a node); sampling uniformly
// needs the opposite quantity — the number of complete sequences *below*
// each node — so BuildSequenceDAG records the DAG's structure during the
// downward sweep and then fills completion counts in a second, upward
// sweep. A walk that steps from node v to child c with probability
// C(c)/ΣC(c') draws each complete sequence of the support with probability
// exactly 1/C(root): every draw is an exact uniform sample, so Hoeffding's
// inequality applies to estimates built from them (unlike the importance-
// sampling fallback in internal/sampling, which has no such guarantee).

// SequenceDAG is a collapsible chain indexed for uniform sequence
// sampling: one node per distinct reachable sub-database, each carrying its
// outgoing operations and the exact number of complete sequences reachable
// through every edge. Build it once with BuildSequenceDAG; Sample is then
// cheap (one walk down the DAG) and safe for concurrent callers.
type SequenceDAG struct {
	inst *repair.Instance
	// nodes is keyed by the conflict key of each distinct database
	// (repair.ConflictIndex), the same merge key ExploreDAG uses; root is
	// the root's.
	nodes map[string]*seqNode
	root  string
	total *big.Int
	// states and edges mirror DAG.States / DAG.Edges.
	states, edges int
}

// seqNode is one distinct database of the collapsed chain. counts[i] is
// C(child of ops[i]), the number of complete sequences continuing through
// that edge; count is Σ counts, or 1 at absorbing nodes (the empty
// continuation). childKeys[i] references the packed key string the nodes
// map already holds, so retaining it costs a pointer, not a copy.
type seqNode struct {
	ops       []ops.Op
	childKeys []string
	counts    []*big.Int
	count     *big.Int
}

// BuildSequenceDAG explores the support of a Collapsible chain M_Σ(D) and
// indexes it for uniform sequence sampling. It returns ErrNotCollapsible
// for chains the DAG cannot represent (Compute-style callers should fall
// back to importance sampling or the tree). opt.MaxStates bounds the number
// of distinct databases; opt.Workers sizes the per-level expansion pool
// (the index is identical for every worker count — counts are exact
// integers and the merge is key-ordered). The downward pass is ExploreDAG's
// level sweep, recording each node's edges; the upward pass then fills in
// the completion counts.
func BuildSequenceDAG(inst *repair.Instance, g Generator, opt ExploreOptions) (*SequenceDAG, error) {
	sd := &SequenceDAG{inst: inst, nodes: map[string]*seqNode{}}
	// Node keys in sweep (decreasing-size) order, replayed reversed by the
	// upward count sweep.
	var order []string
	var cur *seqNode
	var err error
	sd.states, sd.edges, err = sweep(inst, g, opt, func(n *dagNode, edges []ratEdge) {
		order = append(order, n.key)
		cur = &seqNode{
			ops:       make([]ops.Op, 0, len(edges)),
			childKeys: make([]string, 0, len(edges)),
		}
		sd.nodes[n.key] = cur
	}, func(_, cn *dagNode, e *ratEdge) {
		cur.ops = append(cur.ops, e.op)
		cur.childKeys = append(cur.childKeys, cn.key)
	})
	if err != nil {
		return nil, err
	}

	// Upward sweep: every child sits on a strictly smaller level, hence
	// later in order, so its count is final before its parents read it.
	for i := len(order) - 1; i >= 0; i-- {
		n := sd.nodes[order[i]]
		if len(n.ops) == 0 {
			n.count = big.NewInt(1)
			continue
		}
		n.counts = make([]*big.Int, len(n.ops))
		n.count = new(big.Int)
		for j, ck := range n.childKeys {
			c := sd.nodes[ck]
			n.counts[j] = c.count
			n.count.Add(n.count, c.count)
		}
	}
	sd.root = order[0]
	sd.total = sd.nodes[sd.root].count
	return sd, nil
}

// Total returns C(root), the number of complete sequences of the support —
// the denominator of the sequence-uniform semantics. It equals
// DAG.Sequences of ExploreDAG on the same chain. Callers must not modify
// the returned value.
func (sd *SequenceDAG) Total() *big.Int { return sd.total }

// States returns the number of distinct databases indexed.
func (sd *SequenceDAG) States() int { return sd.states }

// Edges returns the number of support transitions indexed.
func (sd *SequenceDAG) Edges() int { return sd.edges }

// Sample draws one complete repairing sequence uniformly at random from the
// chain's support and returns its absorbing state. Each of the Total()
// complete sequences is drawn with probability exactly 1/Total(): the walk
// steps into each child with probability proportional to the number of
// completions below it, which telescopes to the uniform distribution over
// complete sequences. One RNG draw is consumed per step. Safe for
// concurrent callers with distinct RNGs.
func (sd *SequenceDAG) Sample(rng *rand.Rand) (*repair.State, error) {
	s := sd.inst.Root()
	n := sd.nodes[sd.root]
	for len(n.ops) > 0 {
		i := prob.PickBigInt(rng, n.counts)
		next := sd.nodes[n.childKeys[i]]
		if next == nil {
			return nil, fmt.Errorf("markov: sequence DAG is missing node %x", n.childKeys[i])
		}
		// The walk never revisits the parent, so the state's database is
		// transferred, not cloned.
		s = s.ChildInPlace(n.ops[i])
		n = next
	}
	return s, nil
}
