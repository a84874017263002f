package markov

import (
	"fmt"
	"math"
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
	root  *seqNode
	total *big.Int
	// states and edges mirror DAG.States / DAG.Edges.
	states, edges int
}

// seqNode is one distinct database of the collapsed chain, named by its
// conflict key (repair.ConflictIndex), the same merge key ExploreDAG uses.
// kids[i] is the node the edge ops[i] reaches and count the node's
// completion count C: Σ C(kids[i]), or 1 at absorbing nodes (the empty
// continuation). The edge weights C(kids[i]) are held as int64s with
// their total when they fit (ws), and as big.Ints otherwise (big).
type seqNode struct {
	key   string
	ops   []ops.Op
	kids  []*seqNode
	count prob.Count
	ws    []int64
	total uint64
	big   []*big.Int
}

// BuildSequenceDAG explores the support of a Collapsible chain M_Σ(D) and
// indexes it for uniform sequence sampling. It returns ErrNotCollapsible
// for chains the DAG cannot represent (Compute-style callers should fall
// back to importance sampling or the tree). opt.MaxStates bounds the number
// of distinct databases; opt.Workers sizes the per-level expansion pool
// (the index is identical for every worker count — counts are exact
// integers and the merge is key-ordered). The downward pass is ExploreDAG's
// level sweep without walk masses, recording each node's edges; the upward
// pass then fills in the completion counts.
func BuildSequenceDAG(inst *repair.Instance, g Generator, opt ExploreOptions) (*SequenceDAG, error) {
	sd := &SequenceDAG{}
	nodes := map[string]*seqNode{}
	// Nodes in sweep (decreasing-size) order, replayed reversed by the
	// upward count sweep; kidKeys[i] are the child keys of order[i].
	var order []*seqNode
	var kidKeys [][]string
	var err error
	sd.states, sd.edges, err = sweep(inst, g, opt, false, func(n *dagNode, edges []ratEdge) {
		cur := &seqNode{key: n.key, ops: make([]ops.Op, 0, len(edges))}
		nodes[n.key] = cur
		order = append(order, cur)
		kidKeys = append(kidKeys, make([]string, 0, len(edges)))
	}, func(_, cn *dagNode, e *ratEdge) {
		cur := order[len(order)-1]
		cur.ops = append(cur.ops, e.op)
		kidKeys[len(kidKeys)-1] = append(kidKeys[len(kidKeys)-1], cn.key)
	})
	if err != nil {
		return nil, err
	}

	// Upward sweep: every child sits on a strictly smaller level, hence
	// later in order, so its count is final before its parents read it.
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if len(n.ops) == 0 {
			n.count = prob.CountOne()
			continue
		}
		n.kids = make([]*seqNode, len(n.ops))
		for j, ck := range kidKeys[i] {
			c := nodes[ck]
			if c == nil {
				return nil, fmt.Errorf("markov: sequence DAG is missing node %x", ck)
			}
			n.kids[j] = c
			n.count.Add(&c.count)
		}
		n.setWeights()
	}
	sd.root = order[0]
	sd.total = sd.root.count.Big()
	return sd, nil
}

// setWeights fills the node's edge weights from its children's counts:
// int64s and their total when every count fits in an int64 and the total
// in a uint64 — the range where prob.PickIntSum returns the index
// prob.PickBigInt would — and big.Ints otherwise.
func (n *seqNode) setWeights() {
	ws := make([]int64, len(n.kids))
	var total uint64
	for i, c := range n.kids {
		v, ok := c.count.Uint64()
		sum := total + v
		if !ok || v > math.MaxInt64 || sum < total {
			n.big = make([]*big.Int, len(n.kids))
			for j, c := range n.kids {
				n.big[j] = c.count.Big()
			}
			return
		}
		ws[i], total = int64(v), sum
	}
	n.ws, n.total = ws, total
}

// pick draws the index of the next edge with probability proportional to
// its completion count, consuming one RNG draw.
func (n *seqNode) pick(rng *rand.Rand) int {
	if n.big != nil {
		return prob.PickBigInt(rng, n.big)
	}
	return prob.PickIntSum(rng, n.ws, n.total)
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
// chain's support and appends the conflict key of its absorbing state to
// dst. Each of the Total() complete sequences is drawn with probability
// exactly 1/Total(): the walk steps into each child with probability
// proportional to the number of completions below it, which telescopes to
// the uniform distribution over complete sequences. The walk visits node
// keys only, and consumes one RNG draw per step. Safe for concurrent
// callers with distinct RNGs.
func (sd *SequenceDAG) Sample(rng *rand.Rand, dst []byte) []byte {
	n := sd.root
	for len(n.ops) > 0 {
		n = n.kids[n.pick(rng)]
	}
	return append(dst, n.key...)
}
