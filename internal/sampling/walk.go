package sampling

import (
	"errors"
	"math"
	"math/big"
	"math/rand"

	"repro/internal/markov"
	"repro/internal/ops"
	"repro/internal/prob"
	"repro/internal/repair"
)

// ErrWalkBudget is returned when a random walk exceeds the configured step
// budget; by Proposition 2 repairing sequences are finite and polynomial,
// so hitting this indicates a misconfigured budget rather than divergence.
var ErrWalkBudget = errors.New("sampling: walk exceeded the step budget")

// Walk performs one random walk down the repairing Markov chain from ε to
// an absorbing state and returns the final state. maxSteps ≤ 0 means
// unbounded (termination is guaranteed by Proposition 2).
//
// Generators that expose integer weights (markov.IntWeighter) step without
// any big.Rat arithmetic; the sampled edges are identical to the exact
// path's for the same seed. Other generators, and weights that fail
// markov.CheckedIntWeights, go through markov.Step.
func Walk(inst *repair.Instance, g markov.Generator, rng *rand.Rand, maxSteps int) (*repair.State, error) {
	end, err := newStepper(inst, g, false, maxSteps).walk(rng)
	return end.s, err
}

// memoEntries caps the entries one worker's walk tree keeps: one per kept
// node, plus one per support edge of an inner node and one per answer of
// a leaf. Past the cap, walks still descend the nodes already kept — the
// shallow ones, which every walk passes — and step live below them.
// Tests lower it; 0 turns the memo off.
var memoEntries = 1 << 12

// stepper draws the walks of one estimator worker (or of one Walk call).
// A walk starts at ε and steps until it reaches an absorbing state. In
// walk mode it picks an extension with the generator's probabilities:
// prob.PickInt over the integer weights, prob.Pick over markov.Step's
// rationals (the same index from the same draw). In uniform mode it is
// the SNIS proposal of uniform.go: it picks uniformly among the support
// (the extensions with positive weight) and adds log k, the support
// size, to the walk's log weight.
//
// A live step advances the worker's repair.Cursor: without TGDs it moves
// a conflict key and filters the live extension list, building a
// database or violation set only if the generator or the answerer reads
// one; under TGDs it is ChildInPlace.
//
// With a memo, a walk first descends the worker's walk tree, where every
// kept node already holds its support, weights and child slots, so a
// step there costs only its draw. At the first position the tree does
// not hold, the walk rebuilds the state by replaying the path's ops from
// the root on the cursor and continues live, keeping a node for every
// position it passes while the entry budget lasts. A kept node's content
// is a pure function of its path and the draws are exactly the live
// walk's, so memoized and live walks end in the same place.
type stepper struct {
	gen      markov.Generator
	uniform  bool
	maxSteps int
	cur      *repair.Cursor
	ws       []int64   // weight scratch of live steps
	support  []ops.Op  // support scratch of live uniform steps
	memo     *walkMemo // nil: every step is live
}

// newStepper returns a stepper without a walk tree.
func newStepper(inst *repair.Instance, g markov.Generator, uniform bool, maxSteps int) *stepper {
	return &stepper{gen: g, uniform: uniform, maxSteps: maxSteps, cur: inst.NewCursor()}
}

// walkMemo is one worker's walk tree: a prefix tree of the chain, built
// lazily and keyed by the ops along each path (a node's child slots are
// aligned with its support).
type walkMemo struct {
	root *walkNode
	left int      // entries the tree may still keep
	path []ops.Op // ops taken so far while the walk descends kept nodes
	ans  *answerer
	dead []bool // the worker's answerer scratch
}

// walkNode is a kept position of the walk tree. An inner node holds the
// support of its state in canonical order, their integer weights (walk
// mode only; the positive weights alone pick the same index as the full
// list), and one child slot per support edge. A leaf (an absorbing state)
// holds whether the sequence is successful and, if so, the packed keys
// and names of the query's answers on its result.
type walkNode struct {
	ops     []ops.Op
	ws      []int64
	kids    []*walkNode
	success bool
	keys    []string
	tuples  [][]string
}

// walkEnd is where a walk stopped: a leaf of the walk tree, or (off the
// tree) the live absorbing state s with, without TGDs, its conflict key.
// A count-guided uniform draw ends at a key alone. logW is the SNIS log
// weight Σ log kᵢ of a uniform-mode walk.
type walkEnd struct {
	leaf    *walkNode
	s       *repair.State
	key     []byte
	success bool
	logW    float64
}

// stepper returns the stepper of one worker of e's run, answering kept
// leaves through ans with the worker's scratch dead. It keeps a walk tree
// only where a live step is expensive — under TGDs, where every state
// enumerates its additions and checks Definition 4 against the whole
// sequence — and where the generator has integer weights to keep.
// TGD-free steps are cheap key steps whose prefixes are mostly distinct,
// so a tree there would only cost memory.
func (e *Estimator) stepper(ans *answerer, dead []bool, uniform bool) *stepper {
	st := newStepper(e.Inst, e.Gen, uniform, e.MaxSteps)
	if _, ok := e.Gen.(markov.IntWeighter); ok && memoEntries > 0 && e.Inst.Sigma().HasTGDs() {
		st.memo = &walkMemo{left: memoEntries, ans: ans, dead: dead}
	}
	return st
}

// walk draws one walk with rng.
func (st *stepper) walk(rng *rand.Rand) (walkEnd, error) {
	var end walkEnd
	var s *repair.State // the live state; nil while the walk descends kept nodes
	var node *walkNode  // the kept node at the walk's position, if any
	var slot **walkNode // where the position's node is kept; nil off the tree
	if m := st.memo; m != nil {
		slot, node = &m.root, m.root
		m.path = m.path[:0]
	} else {
		s = st.cur.Reset()
	}
	for steps := 0; ; steps++ {
		if node == nil {
			if s == nil {
				s = st.memo.replay(st.cur)
			}
			exts := s.Extensions()
			if len(exts) == 0 {
				if slot != nil {
					end.leaf = st.memo.leaf(s, slot)
					end.success = end.leaf.success
				} else {
					end.s, end.key, end.success = s, st.cur.Key(), s.IsSuccessful()
				}
				return end, nil
			}
			ws, total, ok, err := markov.CheckedIntWeights(st.gen, s, exts, st.ws[:0])
			st.ws = ws
			if err != nil {
				return end, err
			}
			if !ok {
				op, err := st.stepExact(s, rng, steps, &end.logW)
				if err != nil {
					return end, err
				}
				s, slot = st.cur.Step(op), nil
				continue
			}
			if slot != nil {
				node = st.memo.keep(exts, ws, st.uniform)
				*slot = node
			}
			if node == nil {
				if st.maxSteps > 0 && steps >= st.maxSteps {
					return end, ErrWalkBudget
				}
				s, slot = st.cur.Step(st.pickLive(rng, exts, ws, total, &end.logW)), nil
				continue
			}
		}
		if len(node.ops) == 0 {
			end.leaf, end.success = node, node.success
			return end, nil
		}
		if st.maxSteps > 0 && steps >= st.maxSteps {
			return end, ErrWalkBudget
		}
		var i int
		if st.uniform {
			end.logW += math.Log(float64(len(node.ops)))
			i = rng.Intn(len(node.ops))
		} else {
			i = prob.PickInt(rng, node.ws)
		}
		op := node.ops[i]
		slot = &node.kids[i]
		node = *slot
		if s != nil {
			s = st.cur.Step(op)
		} else {
			st.memo.path = append(st.memo.path, op)
		}
	}
}

// pickLive draws the next op of a live step from integer weights that
// passed markov.CheckedIntWeights with the given total.
func (st *stepper) pickLive(rng *rand.Rand, exts []ops.Op, ws []int64, total int64, logW *float64) ops.Op {
	if !st.uniform {
		return exts[prob.PickIntSum(rng, ws, uint64(total))]
	}
	st.support = st.support[:0]
	for i, w := range ws {
		if w > 0 {
			st.support = append(st.support, exts[i])
		}
	}
	*logW += math.Log(float64(len(st.support)))
	return st.support[rng.Intn(len(st.support))]
}

// stepExact draws the next op through markov.Step, for generators without
// valid integer weights. s has extensions, so Step returns at least one
// edge or an error.
func (st *stepper) stepExact(s *repair.State, rng *rand.Rand, steps int, logW *float64) (ops.Op, error) {
	edges, err := markov.Step(st.gen, s)
	if err != nil {
		return ops.Op{}, err
	}
	if st.maxSteps > 0 && steps >= st.maxSteps {
		return ops.Op{}, ErrWalkBudget
	}
	if st.uniform {
		*logW += math.Log(float64(len(edges)))
		return edges[rng.Intn(len(edges))].Op, nil
	}
	weights := make([]*big.Rat, len(edges))
	for i, e := range edges {
		weights[i] = e.P
	}
	return edges[prob.Pick(rng, weights)].Op, nil
}

// replay rebuilds the state at the end of the current path on the
// cursor. Under TGDs (the only place a walk tree is kept) a cursor step
// is ChildInPlace, which maintains the violation set and the Definition 4
// history but never enumerates extensions, which the kept nodes along the
// path already hold, so a replay costs no more than the live steps it
// stands for.
func (m *walkMemo) replay(cur *repair.Cursor) *repair.State {
	s := cur.Reset()
	for _, op := range m.path {
		s = cur.Step(op)
	}
	return s
}

// keep returns a new inner node for a state with extensions exts and
// validated weights ws, or nil when the budget cannot hold it.
func (m *walkMemo) keep(exts []ops.Op, ws []int64, uniform bool) *walkNode {
	k := 0
	for _, w := range ws {
		if w > 0 {
			k++
		}
	}
	if m.left < 1+k {
		return nil
	}
	m.left -= 1 + k
	n := &walkNode{ops: make([]ops.Op, 0, k), kids: make([]*walkNode, k)}
	if !uniform {
		n.ws = make([]int64, 0, k)
	}
	for i, w := range ws {
		if w > 0 {
			n.ops = append(n.ops, exts[i])
			if !uniform {
				n.ws = append(n.ws, w)
			}
		}
	}
	return n
}

// leaf returns the leaf of the absorbing state s, with the query's answers
// on its result, and keeps it in slot when the budget can hold it.
func (m *walkMemo) leaf(s *repair.State, slot **walkNode) *walkNode {
	n := &walkNode{success: s.IsSuccessful()}
	if n.success {
		n.keys, n.tuples = m.ans.appendAnswers(walkEnd{s: s}, m.dead, nil, nil)
	}
	if cost := 1 + len(n.keys); m.left >= cost {
		m.left -= cost
		*slot = n
	}
	return n
}
