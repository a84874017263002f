package markov

import (
	"errors"
	"fmt"
	"math/big"

	"repro/internal/ops"
	"repro/internal/prob"
	"repro/internal/repair"
)

// Generator assigns transition probabilities to the valid extensions of a
// repairing sequence; it is the computational core of a repairing Markov
// chain generator M_Σ. Implementations live in internal/generators.
//
// Transitions receives the current state s and its valid extensions (as
// enumerated by the repair package, never empty) and returns one
// probability per extension, aligned by index. The probabilities must be
// non-negative and sum to exactly 1; extensions assigned probability zero
// are simply absent from the chain's support. Assigning zero to every
// extension of a non-complete state would make the state absorbing without
// being complete, violating Definition 5, and is reported as an error by
// the chain machinery.
type Generator interface {
	// Name identifies the generator in reports and CLI flags.
	Name() string
	// Transitions returns the transition probabilities for the extensions
	// of s.
	Transitions(s *repair.State, exts []ops.Op) ([]*big.Rat, error)
}

// ErrNotWellDefined is returned when a generator's probabilities do not
// form a valid repairing Markov chain at some state.
var ErrNotWellDefined = errors.New("markov: generator does not define a repairing Markov chain")

// Markovian is an optional capability interface for generators whose
// transition probabilities depend only on the state's current database (and
// its extensions, themselves a function of the database in the
// deletion-only regime) — not on how the state was reached. For such
// generators two states with equal Database.Key() are interchangeable: they
// have the same extensions, the same transition probabilities, and the same
// futures, so the sequence tree of Definition 5 collapses into a DAG whose
// size is the number of distinct reachable sub-databases instead of the
// number of repairing sequences. ExploreDAG exploits this; Collapsible
// reports when it applies.
//
// All shipped generators (uniform, uniform-deletions, preference, trust)
// are memoryless: their weights are computed from s.Result() alone.
// History-dependent generators simply do not implement the interface and
// keep the exact tree walk.
//
// Implementing Markovian also opts the generator into parallel frontier
// expansion: ExploreDAG calls Transitions (and walkers call IntWeights)
// from concurrent goroutines, so implementations must be safe for
// concurrent calls — stateless, or synchronized around any internal
// scratch state.
type Markovian interface {
	Generator
	// Memoryless documents (and asserts) that Transitions is a pure
	// function of (s.Result(), exts); implementations return true.
	Memoryless() bool
}

// Collapsible reports whether the chain M_Σ(D) may be explored as a DAG of
// distinct databases: the generator must be memoryless AND the constraint
// set must be TGD-free. The second condition makes the *state space* itself
// memoryless: without TGDs every operation is a deletion, so a state's
// valid extensions are determined by its violation set (a function of the
// database) and the history bookkeeping of Definition 4 (cancellation,
// req2, global justification of additions) never prunes anything. Repair
// states therefore keep no such history without TGDs, and a walk step
// advances a conflict key (repair.Cursor). With TGDs, states reaching the
// same database along different histories can have different futures,
// and only the sequence tree is sound.
func Collapsible(inst *repair.Instance, g Generator) bool {
	m, ok := g.(Markovian)
	return ok && m.Memoryless() && !inst.Sigma().HasTGDs()
}

// IntWeighter is an optional fast path for generators whose transition
// probabilities are ratios of small integer weights (uniform choice,
// count-based importance, ...). IntWeights appends one non-negative weight
// per extension to dst and returns the extended slice, so a walker reuses
// one buffer for all its steps; the transition probability of extension i
// is weights[i] / Σ weights, which sums to 1 by construction. Implementations
// return ok = false to fall back to the exact Transitions path (e.g. when
// weights are inherently rational). Random walks use this to step without
// any big.Rat arithmetic — the sampled edge is identical to the one the
// exact path picks from the same RNG draw — and ExploreDAG resolves edges
// through it (stepRats); both go through CheckedIntWeights, which validates
// the weights first. The sequence-tree walk (Explore, BuildTree)
// deliberately keeps Transitions, so the tree ≡ DAG equivalence suite
// cross-checks the two weight paths against each other.
type IntWeighter interface {
	IntWeights(s *repair.State, exts []ops.Op, dst []int64) (weights []int64, ok bool, err error)
}

// Step validates and returns the outgoing edges of a state under a
// generator: the valid extensions with positive probability. A complete
// state has no outgoing edges (it is absorbing).
func Step(g Generator, s *repair.State) ([]Edge, error) {
	exts := s.Extensions()
	if len(exts) == 0 {
		return nil, nil
	}
	ps, err := g.Transitions(s, exts)
	if err != nil {
		return nil, fmt.Errorf("generator %s at state %q: %w", g.Name(), s, err)
	}
	if len(ps) != len(exts) {
		return nil, fmt.Errorf("%w: generator %s returned %d probabilities for %d extensions",
			ErrNotWellDefined, g.Name(), len(ps), len(exts))
	}
	var edges []Edge
	// Equal-weight fast path (the uniform generator shares one Rat across
	// all edges): the sum is p·k, checked with a single multiplication
	// instead of k GCD-normalizing additions.
	if prob.AllEqual(ps) && ps[0].Sign() > 0 {
		if !prob.IsOne(prob.MulInt64(ps[0], int64(len(ps)))) {
			return nil, fmt.Errorf("%w: probabilities at state %q sum to %s, want 1",
				ErrNotWellDefined, s, prob.MulInt64(ps[0], int64(len(ps))).RatString())
		}
		edges = make([]Edge, len(exts))
		for i := range exts {
			edges[i] = Edge{Op: exts[i], P: ps[i]}
		}
		return edges, nil
	}
	total := new(big.Rat)
	for i, p := range ps {
		if p.Sign() < 0 {
			return nil, fmt.Errorf("%w: negative probability %s for %s", ErrNotWellDefined, p, exts[i])
		}
		total.Add(total, p)
		if p.Sign() > 0 {
			edges = append(edges, Edge{Op: exts[i], P: p})
		}
	}
	if !prob.IsOne(total) {
		return nil, fmt.Errorf("%w: probabilities at state %q sum to %s, want 1",
			ErrNotWellDefined, s, total.RatString())
	}
	return edges, nil
}

// Edge is a positive-probability transition of the chain.
type Edge struct {
	Op ops.Op
	P  *big.Rat
}

// ratEdge is an Edge with its probability held as a small-rational
// (prob.Rat) value instead of a *big.Rat pointer. The DAG engine resolves
// edges in this form so the per-node hot loop touches no big.Rat at all
// for integer-weighted generators.
type ratEdge struct {
	op ops.Op
	p  prob.Rat
}

// CheckedIntWeights resolves the transition weights of s through g's
// IntWeighter fast path, appending one weight per extension of s to dst,
// and validates them: ok reports that the weights form a distribution —
// one per extension, none negative, a positive total that fits in int64 —
// whose probabilities w_i/total are exactly the rationals Transitions
// would return. ok = false covers a generator without the fast path, one
// that declines (IntWeights returns ok = false), and weights failing any
// check; callers then fall back to Step, which reports an ill-defined
// generator as ErrNotWellDefined. The DAG engine (stepRats) and the
// random walkers share this check, so a bad generator gets the same error
// from every engine. IntWeights errors propagate.
func CheckedIntWeights(g Generator, s *repair.State, exts []ops.Op, dst []int64) (ws []int64, total int64, ok bool, err error) {
	iw, fast := g.(IntWeighter)
	if !fast {
		return dst, 0, false, nil
	}
	ws, ok, err = iw.IntWeights(s, exts, dst)
	if err != nil {
		return ws, 0, false, fmt.Errorf("generator %s at state %q: %w", g.Name(), s, err)
	}
	if !ok || len(ws) != len(exts) {
		return ws, 0, false, nil
	}
	for _, w := range ws {
		// Both terms are non-negative, so the sum overflows exactly when
		// it wraps below zero.
		if total += w; w < 0 || total < 0 {
			return ws, 0, false, nil
		}
	}
	return ws, total, total > 0, nil
}

// stepRats is Step in small-rational form, appending the outgoing edges to
// buf and the integer weights to ws (scratch reused across nodes) instead
// of allocating fresh slices. Weights that pass CheckedIntWeights become
// the probabilities w_i/Σw directly — exactly the rationals Transitions
// would return, without creating any big.Rat; otherwise it delegates to
// Step (inheriting its full well-definedness validation) and converts.
// Without mass the edges keep only their operations (p stays zero): the
// support is the same, and the weights are validated the same way.
func stepRats(g Generator, s *repair.State, mass bool, buf []ratEdge, ws []int64) ([]ratEdge, []int64, error) {
	exts := s.Extensions()
	if len(exts) == 0 {
		return buf, ws, nil
	}
	ws, total, ok, err := CheckedIntWeights(g, s, exts, ws[:0])
	if err != nil {
		return buf, ws, err
	}
	if ok {
		// Equal weights (every uniform step) share one reduced fraction.
		var last int64
		var p prob.Rat
		for i, w := range ws {
			if w == 0 {
				continue
			}
			if mass && w != last {
				last, p = w, prob.RatFrac(w, total)
			}
			buf = append(buf, ratEdge{op: exts[i], p: p})
		}
		return buf, ws, nil
	}
	edges, err := Step(g, s)
	if err != nil {
		return buf, ws, err
	}
	for _, e := range edges {
		var p prob.Rat
		if mass {
			p = prob.RatFromBig(e.P)
		}
		buf = append(buf, ratEdge{op: e.Op, p: p})
	}
	return buf, ws, nil
}

// ExploreOptions tunes chain exploration.
type ExploreOptions struct {
	// MaxStates aborts the exploration once more than this many states have
	// been visited (0 means unlimited). Exact exploration is exponential in
	// general — Theorem 5 — so callers on untrusted input should set a
	// bound. The tree walk counts visited sequences; the DAG engine counts
	// distinct databases (its states).
	MaxStates int
	// Workers is the number of goroutines the DAG engine uses to expand
	// each frontier level (≤ 0 means GOMAXPROCS). Nodes expand
	// independently, so expansion is embarrassingly parallel; results are
	// bit-identical for every worker count. The tree walk ignores it.
	Workers int
	// TrackLengths additionally propagates, for every absorbing database,
	// the exact number of absorbing sequences of each length
	// (DAGLeaf.SeqsByLength). The per-length counts cost one extra big.Int
	// vector per frontier node, so they are opt-in; they feed the
	// interleaving arithmetic that factorizes sequence-uniform counts
	// across conflict components (core.Factored.TotalSequences).
	TrackLengths bool
}

// ErrStateBudget is returned when exploration exceeds MaxStates.
var ErrStateBudget = errors.New("markov: state budget exceeded during exact exploration")

// Explore walks the sequence tree of M_Σ(D) depth first — the reference
// engine, correct for every generator — and returns its reachable absorbing
// states merged by result database, in the same shape ExploreDAG returns:
// each leaf carries a witness state, its database key, the total hitting
// mass of the sequences producing it, their count and, under TrackLengths,
// their count per length. States and Edges count tree states and edges.
// The leaf probabilities sum to exactly 1 (Proposition 3: the hitting
// distribution exists because the chain is a finite tree), or Explore
// returns ErrNotWellDefined.
func Explore(inst *repair.Instance, g Generator, opt ExploreOptions) (*DAG, error) {
	dag := &DAG{Sequences: new(big.Int)}
	index := map[string]int{} // packed IDKey → position in dag.Leaves
	// Leaf masses accumulate on the small-rational fast path (pis is
	// aligned with dag.Leaves); each *big.Rat is materialized once at the
	// end.
	var pis []prob.Rat
	var total prob.Rat
	err := walkTree(inst, g, opt, func(s *repair.State, _ Edge, pi prob.Rat, edges []Edge) {
		dag.States++
		dag.Edges += len(edges)
		if len(edges) > 0 {
			return
		}
		k := s.Result().IDKey()
		i, ok := index[k]
		if !ok {
			i = len(dag.Leaves)
			index[k] = i
			dag.Leaves = append(dag.Leaves, DAGLeaf{State: s, Key: s.Result().Key(), Sequences: new(big.Int)})
			pis = append(pis, prob.Rat{})
		}
		l := &dag.Leaves[i]
		pis[i].Add(&pi)
		total.Add(&pi)
		l.Sequences.Add(l.Sequences, bigOne) // each tree leaf is one sequence
		if opt.TrackLengths {
			n := s.Len()
			for len(l.SeqsByLength) <= n {
				l.SeqsByLength = append(l.SeqsByLength, new(big.Int))
			}
			l.SeqsByLength[n].Add(l.SeqsByLength[n], bigOne)
		}
	})
	if err != nil {
		return nil, err
	}
	for i := range dag.Leaves {
		dag.Leaves[i].Pi = pis[i].Big()
		dag.Sequences.Add(dag.Sequences, dag.Leaves[i].Sequences)
	}
	if !total.IsOne() {
		return nil, fmt.Errorf("%w: hitting distribution sums to %s", ErrNotWellDefined, total.Big().RatString())
	}
	return dag, nil
}

var bigOne = big.NewInt(1)
