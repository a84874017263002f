package sampling

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/markov"
	"repro/internal/prob"
)

// This file is the approximate path of the sequence-uniform semantics
// (markov.SequenceUniform): estimating, for each tuple, the fraction of
// complete repairing sequences whose (successful) result answers it. Two
// regimes:
//
//   - Collapsible chains: a markov.SequenceDAG is built once and every
//     walk steps into children with probability proportional to their
//     downstream completion counts, which draws complete sequences exactly
//     uniformly. The draws are i.i.d. Bernoulli per tuple, so the
//     Hoeffding (ε,δ) guarantee of Theorem 9 applies unchanged.
//
//   - Everything else (TGDs, history-dependent generators): self-
//     normalized importance sampling. The proposal walks the chain's
//     support choosing uniformly among the support edges at every state —
//     the uniform-deletions walk, generalized to whatever the support is —
//     so a complete sequence s is proposed with probability Π 1/kᵢ, and
//     the importance weight w(s) = Π kᵢ (the branching factors along s)
//     is proportional to uniform(s)/proposal(s). Estimates are ratios of
//     weighted sums; they converge but carry no finite-sample (ε,δ)
//     guarantee (Run.Weighted = true, Run.ESS reports the Kish effective
//     sample size). The proposal is the stepper of walk.go in uniform
//     mode, so under TGDs it descends the worker's walk tree like the
//     walk-induced estimator: the n walks of a run revisit few distinct
//     prefixes, and each is derived once per worker.
//
// Determinism: walk i's RNG derives from (Seed, i) exactly as in the
// walk-induced estimator, per-walk results are recorded in an indexed
// slice, and the weighted merge runs over that slice in index order — so
// the full Run is bit-identical for every Workers value, floating-point
// summation order included.

// seqDraw is the record of one uniform-mode walk, merged sequentially
// after all workers finish.
type seqDraw struct {
	logW    float64
	success bool
	keys    []string   // packed answer-tuple keys (successful walks only)
	tuples  [][]string // materialized names, aligned with keys
	err     error
}

// runUniform performs n uniform-mode walks and assembles the weighted run.
func (e *Estimator) runUniform(ans *answerer, n int) (*Run, error) {
	workers := e.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}

	var sdag *markov.SequenceDAG
	if markov.Collapsible(e.Inst, e.Gen) {
		var err error
		sdag, err = markov.BuildSequenceDAG(e.Inst, e.Gen, markov.ExploreOptions{Workers: e.Workers})
		if err != nil {
			return nil, err
		}
	}

	draws := make([]seqDraw, n)
	var wg sync.WaitGroup
	start := 0
	for w := 0; w < workers; w++ {
		share := n / workers
		if w < n%workers {
			share++
		}
		wg.Add(1)
		go func(start, share int) {
			defer wg.Done()
			i := start
			defer func() {
				if r := recover(); r != nil {
					draws[i].err = fmt.Errorf("%w at walk %d: %v", markov.ErrPanicked, i, r)
				}
			}()
			src := &prob.SplitMix{}
			rng := rand.New(src)
			dead := ans.scratch()
			var st *stepper
			if sdag == nil {
				st = e.stepper(ans, dead, true)
			}
			var key []byte // the count-guided draws' key buffer
			for ; i < start+share; i++ {
				src.ReseedAt(e.Seed, i)
				d := &draws[i]
				var end walkEnd
				if sdag != nil {
					key = sdag.Sample(rng, key[:0])
					end.key, end.success = key, ans.ix.Consistent(key)
				} else {
					end, d.err = st.walk(rng)
					d.logW = end.logW
				}
				if d.err != nil {
					return
				}
				if !end.success {
					continue
				}
				d.success = true
				if l := end.leaf; l != nil {
					d.keys, d.tuples = l.keys, l.tuples
					continue
				}
				d.keys, d.tuples = ans.appendAnswers(end, dead, nil, nil)
			}
		}(start, share)
		start += share
	}
	wg.Wait()

	// Sequential merge in walk-index order. Weights are exponentiated
	// relative to the maximum log-weight so that deep SNIS walks (whose raw
	// weights are products of branching factors) cannot overflow float64.
	maxLog := math.Inf(-1)
	for i := range draws {
		if draws[i].err != nil {
			return nil, draws[i].err
		}
		if draws[i].logW > maxLog {
			maxLog = draws[i].logW
		}
	}
	type weightCell struct {
		tuple []string
		w     float64
		count int
	}
	run := &Run{N: n, Mode: markov.SequenceUniform, Weighted: sdag == nil}
	if sdag != nil {
		run.TotalSequences = sdag.Total()
	}
	cells := map[string]*weightCell{}
	var order []string // first-seen order; re-sorted lexicographically below
	sumAll, sumSuccess, sumSq := 0.0, 0.0, 0.0
	for i := range draws {
		d := &draws[i]
		w := math.Exp(d.logW - maxLog)
		sumAll += w
		sumSq += w * w
		if !d.success {
			run.FailingWalks++
			continue
		}
		run.SuccessfulWalks++
		sumSuccess += w
		for j, k := range d.keys {
			c := cells[k]
			if c == nil {
				c = &weightCell{tuple: d.tuples[j]}
				cells[k] = c
				order = append(order, k)
			}
			c.w += w
			c.count++
		}
	}
	run.ESS = sumAll * sumAll / sumSq

	for _, k := range order {
		c := cells[k]
		est := TupleEstimate{Tuple: c.tuple, Count: c.count}
		if sumAll > 0 {
			est.P = c.w / sumAll
		}
		if sumSuccess > 0 {
			est.Conditional = c.w / sumSuccess
		}
		run.Estimates = append(run.Estimates, est)
	}
	sortEstimates(run.Estimates)
	return run, nil
}
