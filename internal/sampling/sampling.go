package sampling

import (
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/fo"
	"repro/internal/intern"
	"repro/internal/markov"
	"repro/internal/prob"
	"repro/internal/relation"
	"repro/internal/repair"
)

// Sample is the algorithm of Section 5: it draws one repairing sequence s
// from the chain and returns 1 if t̄ ∈ Q(s(D)) and the sequence is
// successful, and 0 otherwise. For non-failing generators
// Pr(Sample = 1) = CP(t̄) exactly (Proposition 10).
func Sample(inst *repair.Instance, g markov.Generator, q *fo.Query, tuple []string, rng *rand.Rand) (int, error) {
	s, err := Walk(inst, g, rng, 0)
	if err != nil {
		return 0, err
	}
	if !s.IsSuccessful() {
		return 0, nil
	}
	if q.Holds(s.Result(), tuple) {
		return 1, nil
	}
	return 0, nil
}

// Estimator runs repeated random walks to approximate conditional
// probabilities.
type Estimator struct {
	Inst *repair.Instance
	Gen  markov.Generator
	// Seed makes runs reproducible: every walk's RNG is derived from
	// (Seed, walk index), so a run is bit-identical for a fixed seed no
	// matter how the walks are scheduled.
	Seed int64
	// Workers is the number of concurrent walkers (≤ 1 means sequential).
	// Walk RNGs are per-walk and counts are merged, so the result is
	// bit-identical for every worker count.
	Workers int
	// MaxSteps bounds each walk (0 = unbounded).
	MaxSteps int
	// Mode selects the target semantics. The zero value (WalkInduced)
	// estimates the paper's walk-induced distribution by stepping with the
	// generator's own probabilities. SequenceUniform targets the uniform
	// distribution over complete sequences instead: when the chain is
	// collapsible the estimator builds a markov.SequenceDAG once and draws
	// exactly uniform sequences (count-guided walks; the Hoeffding
	// guarantee carries over), otherwise it falls back to self-normalized
	// importance sampling from the uniform-support walk (no (ε,δ)
	// guarantee; Run.Weighted reports which path ran). See uniform.go.
	Mode markov.SemanticsMode
}

// TupleEstimate is one tuple's estimated probability.
type TupleEstimate struct {
	Tuple []string
	// P is the additive-error estimate of Σ_{(D',p): t̄∈Q(D')} p, i.e. of
	// CP(t̄) when the generator is non-failing.
	P float64
	// Conditional is the count normalized by successful walks only — the
	// ratio estimator for failing chains (no (ε,δ)-guarantee attached).
	Conditional float64
	// Count is the number of walks whose (successful) result answered the
	// tuple.
	Count int
}

// Run is the outcome of an estimation.
type Run struct {
	// N is the number of walks performed.
	N int
	// Eps, Delta are the requested guarantee parameters.
	Eps, Delta float64
	// SuccessfulWalks and FailingWalks partition the N walks.
	SuccessfulWalks, FailingWalks int
	// Estimates lists the tuples observed in at least one successful walk,
	// sorted lexicographically.
	Estimates []TupleEstimate
	// Mode records the target semantics of the run.
	Mode markov.SemanticsMode
	// Weighted reports that the estimates are self-normalized
	// importance-sampling ratios (the non-collapsible uniform fallback).
	// Weighted estimates carry no (ε,δ) guarantee; ESS quantifies how much
	// of the sample budget survived the reweighting.
	Weighted bool
	// TotalSequences is the exact support size |complete sequences| when
	// the count-guided uniform sampler ran (nil otherwise).
	TotalSequences *big.Int
	// ESS is the Kish effective sample size (Σw)² / Σw² of the run; it
	// equals N when all weights are 1 (walk mode, count-guided mode).
	ESS float64
}

// Lookup returns the estimate of a tuple (zero estimate when never seen).
func (r *Run) Lookup(tuple []string) TupleEstimate {
	k := fo.TupleKey(tuple)
	for _, e := range r.Estimates {
		if fo.TupleKey(e.Tuple) == k {
			return e
		}
	}
	return TupleEstimate{Tuple: tuple}
}

// EstimateAnswers approximates the operational consistent answers of the
// query: it performs n = ⌈ln(2/δ)/(2ε²)⌉ walks and, for every tuple
// observed, reports the fraction of walks answering it. With a non-failing
// generator each tuple's estimate is within ε of CP(t̄) with probability at
// least 1−δ (the guarantee is per-tuple; divide δ by the number of tuples
// of interest for a simultaneous guarantee via the union bound).
func (e *Estimator) EstimateAnswers(q *fo.Query, eps, delta float64) (*Run, error) {
	n, err := prob.HoeffdingSamples(eps, delta)
	if err != nil {
		return nil, err
	}
	run, err := e.run(q, n)
	if err != nil {
		return nil, err
	}
	run.Eps, run.Delta = eps, delta
	return run, nil
}

// EstimateTuple approximates CP(t̄) for a single tuple with the additive
// (ε,δ) guarantee of Theorem 9.
func (e *Estimator) EstimateTuple(q *fo.Query, tuple []string, eps, delta float64) (TupleEstimate, *Run, error) {
	run, err := e.EstimateAnswers(q, eps, delta)
	if err != nil {
		return TupleEstimate{}, nil, err
	}
	return run.Lookup(tuple), run, nil
}

// EstimateWithN runs exactly n walks (for convergence experiments).
func (e *Estimator) EstimateWithN(q *fo.Query, n int) (*Run, error) {
	return e.run(q, n)
}

// tallyCell accumulates one tuple's observations; keeping count and tuple
// together costs one map probe per answer instead of two.
type tallyCell struct {
	count int
	tuple []string
}

// answerer evaluates the query on the results of successful walks. When
// Σ has no TGDs every operation is a deletion (with no TGD there is
// nothing to insert, null or grounded), and every fact a walk deletes
// belongs to a violation of the root — the violations of a subset of D
// are violations of D — so a walk's result is named by its conflict key
// (repair.ConflictIndex). A conjunctive query whose output variables all
// occur in its body is then answered from its witness lineage over the
// initial database, with the root's involved facts as the conflicted
// list: a walk marks the ones its key no longer holds, through one
// precomputed key bit per conflicted fact. Any other query or Σ is
// evaluated on each walk's result.
type answerer struct {
	q    *fo.Query
	lin  *fo.Lineage           // nil: evaluate q on every result
	ix   *repair.ConflictIndex // nil when Σ has TGDs
	bits []int                 // bits[i]: key bit of the lineage's i-th conflicted fact
}

func (e *Estimator) answerer(q *fo.Query) *answerer {
	a := &answerer{q: q}
	ix, err := e.Inst.Conflicts()
	if err != nil {
		return a
	}
	a.ix = ix
	conflicted := e.Inst.Root().Violations().InvolvedFacts()
	if lin, ok := q.Lineage(e.Inst.Initial(), conflicted); ok {
		a.lin = lin
		a.bits = make([]int, len(conflicted))
		for i, f := range conflicted {
			a.bits[i] = ix.Bit(f)
		}
	}
	return a
}

// scratch returns a worker's buffer for forEach.
func (a *answerer) scratch() []bool { return make([]bool, len(a.bits)) }

// forEach calls emit once per answer of the query on the result of the
// successful walk end. dead is the calling worker's scratch buffer; the
// tuple slice must not be retained. Without a lineage the result is read
// from the end state (a live walk's catches up once, here) or, for a
// count-guided draw, built from its key.
func (a *answerer) forEach(end walkEnd, dead []bool, emit func(tuple []intern.Sym)) {
	if a.lin == nil {
		var res *relation.Database
		if end.s != nil {
			res = end.s.Result()
		} else {
			res = a.ix.Database(end.key)
		}
		a.q.ForEachAnswerSyms(res, emit)
		return
	}
	for i, b := range a.bits {
		dead[i] = !repair.Holds(end.key, b)
	}
	a.lin.ForEachAnswer(dead, func(c int) { emit(a.lin.Candidates[c].Tuple) })
}

// appendAnswers appends the packed key and the names of every answer of
// the query on the result of the successful walk end to keys and tuples.
func (a *answerer) appendAnswers(end walkEnd, dead []bool, keys []string, tuples [][]string) ([]string, [][]string) {
	var packBuf [64]byte
	a.forEach(end, dead, func(tuple []intern.Sym) {
		keys = append(keys, string(intern.PackSyms(packBuf[:0], tuple)))
		tuples = append(tuples, intern.Names(tuple))
	})
	return keys, tuples
}

type walkTally struct {
	success int
	failing int
	cells   map[string]*tallyCell
	err     error
}

func (e *Estimator) run(q *fo.Query, n int) (*Run, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sampling: need at least one walk, got %d", n)
	}
	return e.runWith(e.answerer(q), n)
}

// runWith performs the n walks of the estimator's mode, answering each
// successful walk through ans.
func (e *Estimator) runWith(ans *answerer, n int) (*Run, error) {
	if e.Mode == markov.SequenceUniform {
		return e.runUniform(ans, n)
	}
	workers := e.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}

	tallies := make([]walkTally, workers)
	var wg sync.WaitGroup
	start := 0
	for w := 0; w < workers; w++ {
		share := n / workers
		if w < n%workers {
			share++
		}
		wg.Add(1)
		go func(w, start, share int) {
			defer wg.Done()
			t := &tallies[w]
			i := start
			defer func() {
				if r := recover(); r != nil {
					t.err = fmt.Errorf("%w at walk %d: %v", markov.ErrPanicked, i, r)
				}
			}()
			t.cells = map[string]*tallyCell{}
			src := &prob.SplitMix{}
			rng := rand.New(src)
			var packBuf [64]byte
			dead := ans.scratch()
			st := e.stepper(ans, dead, false)
			tally := func(tuple []intern.Sym) {
				// Key by packed symbols — no name lookups, no string
				// round trip; the key string and the names materialize
				// once per distinct tuple (the lookup converts in place).
				k := intern.PackSyms(packBuf[:0], tuple)
				c := t.cells[string(k)]
				if c == nil {
					c = &tallyCell{tuple: intern.Names(tuple)}
					t.cells[string(k)] = c
				}
				c.count++
			}
			for ; i < start+share; i++ {
				// Each walk's randomness is a pure function of (Seed, walk
				// index), never of the worker that happens to run the walk:
				// partitioning the same n walks across any number of workers
				// draws the same n trajectories, and the merged tallies are
				// sums, so runs are bit-identical for every Workers value.
				src.ReseedAt(e.Seed, i)
				end, err := st.walk(rng)
				if err != nil {
					t.err = err
					return
				}
				if !end.success {
					t.failing++
					continue
				}
				t.success++
				if l := end.leaf; l != nil {
					for j, k := range l.keys {
						c := t.cells[k]
						if c == nil {
							c = &tallyCell{tuple: l.tuples[j]}
							t.cells[k] = c
						}
						c.count++
					}
					continue
				}
				ans.forEach(end, dead, tally)
			}
		}(w, start, share)
		start += share
	}
	wg.Wait()

	run := &Run{N: n, ESS: float64(n)}
	cells := map[string]*tallyCell{}
	for i := range tallies {
		t := &tallies[i]
		if t.err != nil {
			return nil, t.err
		}
		run.SuccessfulWalks += t.success
		run.FailingWalks += t.failing
		for k, c := range t.cells {
			m := cells[k]
			if m == nil {
				m = &tallyCell{tuple: c.tuple}
				cells[k] = m
			}
			m.count += c.count
		}
	}

	for _, c := range cells {
		est := TupleEstimate{
			Tuple: c.tuple,
			P:     float64(c.count) / float64(n),
			Count: c.count,
		}
		if run.SuccessfulWalks > 0 {
			est.Conditional = float64(c.count) / float64(run.SuccessfulWalks)
		}
		run.Estimates = append(run.Estimates, est)
	}
	sortEstimates(run.Estimates)
	return run, nil
}

// sortEstimates orders estimates by the tuples themselves: TupleKey is a
// process-local interned encoding with no stable order.
func sortEstimates(ests []TupleEstimate) {
	slices.SortFunc(ests, func(a, b TupleEstimate) int {
		return slices.Compare(a.Tuple, b.Tuple)
	})
}
