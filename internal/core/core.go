package core

import (
	"fmt"
	"math"
	"math/big"
	"slices"
	"sort"

	"repro/internal/fo"
	"repro/internal/intern"
	"repro/internal/markov"
	"repro/internal/prob"
	"repro/internal/relation"
	"repro/internal/repair"
)

// Repair is an operational repair: a consistent database s(D) for some
// reachable absorbing state s, together with its probability
// P_{D,MΣ}(D') — under the walk-induced mode, Σ π(s) over the absorbing
// states producing it; under the sequence-uniform mode, the fraction of
// complete sequences producing it.
type Repair struct {
	// DB is the repaired database.
	DB *relation.Database
	// P is the repair's probability under the selected semantics mode.
	P *big.Rat
	// Sequences counts the absorbing sequences s with s(D) = DB, saturating
	// at the int limit (display only; SeqCount is exact).
	Sequences int
	// SeqCount is the exact count of absorbing sequences producing DB. The
	// sequence-uniform mode weighs repairs by SeqCount / total sequences.
	SeqCount *big.Int
}

// Semantics is [[D]]_{MΣ} together with bookkeeping about the chain: the
// set of repair/probability pairs, the total success mass (the denominator
// of the conditional probability CP), and leaf statistics.
type Semantics struct {
	// Mode records which distribution over complete sequences the
	// probabilities were computed under.
	Mode SemanticsMode
	// Repairs lists the operational repairs with positive probability, in
	// deterministic (database-key) order.
	Repairs []Repair
	// SuccessP is Σ_{(D',p) ∈ [[D]]} p: the probability that the repairing
	// process succeeds. It is 1 exactly when no failing sequence has
	// positive probability (e.g. for non-failing generators, Prop. 8).
	SuccessP *big.Rat
	// FailP is the probability mass on failing sequences.
	FailP *big.Rat
	// AbsorbingStates counts the reachable absorbing states (chain leaves),
	// saturating at the int limit; TotalSequences is exact.
	AbsorbingStates int
	// FailingStates counts the failing leaves (saturating).
	FailingStates int
	// TotalSequences is the exact number of complete sequences of the
	// chain's support (successful and failing).
	TotalSequences *big.Int
	// FailingSequences is the exact number of failing complete sequences.
	FailingSequences *big.Int
	// SequencesByLength[l] is the exact number of complete sequences of
	// length l (successful and failing); Σ_l SequencesByLength[l] =
	// TotalSequences. Populated only when the exploration ran with
	// markov.ExploreOptions.TrackLengths (nil otherwise). The per-length
	// stratification is what lets sequence-uniform counts factorize across
	// conflict components: complete sequences of a factored instance are
	// exactly the interleavings of per-component complete sequences, and
	// interleavings are counted by binomial convolution over lengths
	// (Factored.TotalSequences).
	SequencesByLength []*big.Int

	// lineageDB and conflicted are the inputs of the witness lineage CP
	// and OCA answer conjunctive queries from: the initial database and
	// the facts of its violations. They are set only when Σ has no TGDs,
	// where every repair is a subset of lineageDB that keeps every fact
	// outside conflicted; nil means every query is evaluated on every
	// repair.
	lineageDB  *relation.Database
	conflicted []relation.Fact
}

// Compute explores the chain M_Σ(D) exactly and assembles [[D]]_{MΣ}
// under the walk-induced semantics. opt.MaxStates bounds the exploration
// (0 = unlimited). It is shorthand for ComputeMode with WalkInduced.
//
// When the chain is collapsible — the generator declares markov.Markovian
// memorylessness and Σ has no TGDs — the exploration runs on the DAG of
// distinct sub-databases (markov.ExploreDAG), which is exponentially
// smaller than the sequence tree yet yields the identical semantics: same
// repairs, same exact probabilities, same sequence counts. Everything else
// falls back to the sequence-tree walk.
func Compute(inst *repair.Instance, g markov.Generator, opt markov.ExploreOptions) (*Semantics, error) {
	return ComputeMode(inst, g, opt, WalkInduced)
}

// ComputeMode is Compute under an explicit semantics mode. Under
// SequenceUniform the chain's support is explored exactly like the
// walk-induced case (the support does not depend on the mode), but every
// repair is weighted by its share of complete sequences instead of its
// walk mass π — read off the exact big.Int sequence counts both engines
// return per result database.
func ComputeMode(inst *repair.Instance, g markov.Generator, opt markov.ExploreOptions, mode SemanticsMode) (*Semantics, error) {
	if markov.Collapsible(inst, g) {
		return ComputeDAGMode(inst, g, opt, mode)
	}
	return ComputeTreeMode(inst, g, opt, mode)
}

// ComputeTreeMode assembles the semantics from the sequence-tree walk of
// Definition 5 (markov.Explore) — the reference engine, correct for every
// generator. With SequenceUniform it *is* brute-force sequence
// enumeration: every tree leaf is one complete sequence, so uniform
// probabilities are exact leaf-count ratios. Tests and benchmarks call it
// directly to compare against ComputeDAGMode.
func ComputeTreeMode(inst *repair.Instance, g markov.Generator, opt markov.ExploreOptions, mode SemanticsMode) (*Semantics, error) {
	dag, err := markov.Explore(inst, g, opt)
	if err != nil {
		return nil, err
	}
	return assemble(dag, inst, mode), nil
}

// ComputeDAGMode assembles the semantics from the DAG-collapsed
// exploration (markov.ExploreDAG). It returns markov.ErrNotCollapsible for
// chains the DAG cannot represent (history-dependent generators, TGDs);
// ComputeMode handles the fallback. The sequence-uniform weights reuse the
// big.Int path counts the exploration propagates anyway, and the sweep
// skips the walk masses they replace (markov.ExploreDAGMode), so the
// uniform semantics costs no more than the walk-induced one — and stays
// exact at sizes where the counts exceed 2^63 and brute-force enumeration
// is unthinkable.
func ComputeDAGMode(inst *repair.Instance, g markov.Generator, opt markov.ExploreOptions, mode SemanticsMode) (*Semantics, error) {
	dag, err := markov.ExploreDAGMode(inst, g, opt, mode)
	if err != nil {
		return nil, err
	}
	return assemble(dag, inst, mode), nil
}

// assemble builds [[D]]_{MΣ} from the leaves of one exact exploration,
// one per result database. The sequence statistics
// (Repair.Sequences, AbsorbingStates, FailingStates) are recovered from
// the leaves' sequence counts and saturate at the int limit when the chain
// has more than 2^63 sequences — sizes the tree engine could never
// enumerate; the exact counts survive in Repair.SeqCount and
// Semantics.TotalSequences. The walk-induced masses fall out of the
// exploration; the sequence-uniform mode replaces every probability with
// the corresponding exact sequence-count ratio and never reads the leaf
// masses (which the DAG engine leaves nil under that mode).
func assemble(dag *markov.DAG, inst *repair.Instance, mode SemanticsMode) *Semantics {
	uniform := mode == SequenceUniform
	sem := &Semantics{Mode: mode}
	if !inst.Sigma().HasTGDs() {
		sem.lineageDB = inst.Initial()
		sem.conflicted = inst.Root().Violations().InvolvedFacts()
	}
	absorbing, failing := new(big.Int), new(big.Int)
	var succP, failP prob.Rat
	var repairKeys []string
	for _, leaf := range dag.Leaves {
		absorbing.Add(absorbing, leaf.Sequences)
		for len(sem.SequencesByLength) < len(leaf.SeqsByLength) {
			sem.SequencesByLength = append(sem.SequencesByLength, new(big.Int))
		}
		for l, cnt := range leaf.SeqsByLength {
			sem.SequencesByLength[l].Add(sem.SequencesByLength[l], cnt)
		}
		if !leaf.State.IsSuccessful() {
			failing.Add(failing, leaf.Sequences)
			if !uniform {
				failP.AddBig(leaf.Pi)
			}
			continue
		}
		if !uniform {
			succP.AddBig(leaf.Pi)
		}
		// The leaves are materialized fresh for this exploration and the
		// dag value never escapes, so the semantics adopts leaf.Pi and
		// leaf.Sequences instead of copying them.
		sem.Repairs = append(sem.Repairs, Repair{
			DB:        leaf.State.Result().Clone(),
			P:         leaf.Pi,
			Sequences: satInt(leaf.Sequences),
			SeqCount:  leaf.Sequences,
		})
		repairKeys = append(repairKeys, leaf.Key)
	}
	sem.SuccessP, sem.FailP = succP.Big(), failP.Big()
	sem.AbsorbingStates = satInt(absorbing)
	sem.FailingStates = satInt(failing)
	sem.TotalSequences = absorbing
	sem.FailingSequences = failing
	// Leaves arrive in exploration order; repairs are reported in
	// database-key order.
	sort.Sort(&repairsByKey{keys: repairKeys, repairs: sem.Repairs})
	if uniform && absorbing.Sign() != 0 {
		// absorbing is never 0: every chain has at least the shortest
		// complete sequence (the empty one, when D is consistent).
		for i := range sem.Repairs {
			sem.Repairs[i].P = new(big.Rat).SetFrac(sem.Repairs[i].SeqCount, absorbing)
		}
		sem.SuccessP = new(big.Rat).SetFrac(new(big.Int).Sub(absorbing, failing), absorbing)
		sem.FailP = new(big.Rat).SetFrac(failing, absorbing)
	}
	return sem
}

// repairsByKey sorts repairs by precomputed database key (Database.Key
// rebuilds its encoding on every call, so the comparator must not).
type repairsByKey struct {
	keys    []string
	repairs []Repair
}

func (r *repairsByKey) Len() int           { return len(r.keys) }
func (r *repairsByKey) Less(i, j int) bool { return r.keys[i] < r.keys[j] }
func (r *repairsByKey) Swap(i, j int) {
	r.keys[i], r.keys[j] = r.keys[j], r.keys[i]
	r.repairs[i], r.repairs[j] = r.repairs[j], r.repairs[i]
}

// satInt converts a path count to int, saturating at the int limit.
func satInt(x *big.Int) int {
	if x.IsInt64() {
		if n := x.Int64(); n <= math.MaxInt {
			return int(n)
		}
	}
	return math.MaxInt
}

// UniformOverRepairs reweights the semantics so that every distinct repair
// is equally likely, the "equally likely repairs" measure of certainty
// discussed in Section 6 (after Greco and Molinaro). The chain structure is
// kept only to determine which repairs exist.
func (s *Semantics) UniformOverRepairs() *Semantics {
	out := &Semantics{
		SuccessP:        prob.Zero(),
		FailP:           prob.Zero(),
		AbsorbingStates: s.AbsorbingStates,
		FailingStates:   s.FailingStates,
		lineageDB:       s.lineageDB,
		conflicted:      s.conflicted,
	}
	n := int64(len(s.Repairs))
	if n == 0 {
		return out
	}
	for _, r := range s.Repairs {
		out.Repairs = append(out.Repairs, Repair{DB: r.DB, P: big.NewRat(1, n), Sequences: r.Sequences})
	}
	out.SuccessP = prob.One()
	return out
}

// CP computes the conditional probability CP_{D,MΣ,Q}(t̄) of Section 4:
// the probability mass of repairs answering t̄, normalized by the success
// mass; it is 0 when no operational repair exists. A conjunctive query
// over a TGD-free Σ is answered from the tuple's witness lineage (a
// repair answers iff one of its witnesses survives); any other query is
// evaluated on every repair.
func (s *Semantics) CP(q *fo.Query, tuple []string) *big.Rat {
	if s.SuccessP.Sign() == 0 {
		return prob.Zero()
	}
	var num prob.Rat
	if lin, ok := s.lineage(tuplePass(q, tuple)); ok {
		if len(lin.Candidates) == 1 {
			cand := &lin.Candidates[0]
			s.forEachRepairDead(func(r *Repair, dead []bool) {
				if cand.Answers(dead) {
					num.AddBig(r.P)
				}
			})
		}
	} else {
		for _, r := range s.Repairs {
			if q.Holds(r.DB, tuple) {
				num.AddBig(r.P)
			}
		}
	}
	p := num.Big()
	return p.Quo(p, s.SuccessP)
}

// lineage runs a witness pass (q.Lineage or q.TupleLineage) over the
// lineage inputs. It reports false when the semantics has none (Σ with
// TGDs) or the pass refuses the query (not a conjunctive query with every
// output variable in its body).
func (s *Semantics) lineage(pass func(*relation.Database, []relation.Fact) (*fo.Lineage, bool)) (*fo.Lineage, bool) {
	if s.lineageDB == nil {
		return nil, false
	}
	return pass(s.lineageDB, s.conflicted)
}

// tuplePass is the witness pass of q restricted to tuple (TupleLineage),
// in the form Semantics.lineage and Factored.lineage take.
func tuplePass(q *fo.Query, tuple []string) func(*relation.Database, []relation.Fact) (*fo.Lineage, bool) {
	return func(d *relation.Database, conflicted []relation.Fact) (*fo.Lineage, bool) {
		return q.TupleLineage(d, conflicted, tuple)
	}
}

// forEachRepairDead calls fn once per repair with the repair's dead
// vector: dead[i] reports that conflicted fact i is missing from the
// repair. The vector is reused between calls.
func (s *Semantics) forEachRepairDead(fn func(r *Repair, dead []bool)) {
	dead := make([]bool, len(s.conflicted))
	for i := range s.Repairs {
		r := &s.Repairs[i]
		for j, f := range s.conflicted {
			dead[j] = !r.DB.Contains(f)
		}
		fn(r, dead)
	}
}

// Answer is a tuple together with its conditional probability.
type Answer struct {
	Tuple []string
	P     *big.Rat
}

// AnswerSet is the operational consistent answers OCA_{MΣ}(D,Q) restricted
// to tuples with positive probability (every tuple not listed has CP 0;
// Definition 7 formally assigns a probability to all of
// dom(B(D,Σ))^{|x̄|}, which is exponentially large and almost everywhere
// zero).
type AnswerSet struct {
	Query   *fo.Query
	Answers []Answer
}

// OCA evaluates the query over every operational repair and returns the
// tuples with positive conditional probability, sorted lexicographically.
// A conjunctive query over a TGD-free Σ builds its witness lineage once
// and credits each repair's mass to the candidates one of whose witnesses
// survives in it, instead of joining again in every repair.
func (s *Semantics) OCA(q *fo.Query) *AnswerSet {
	// Numerators accumulate on the small-rational fast path: one AddBig per
	// (repair, answer) pair is the hot loop of exact query answering.
	type acc struct {
		tuple []string
		p     prob.Rat
	}
	var accs []*acc
	if lin, ok := s.lineage(q.Lineage); ok {
		accs = make([]*acc, len(lin.Candidates))
		for c, cand := range lin.Candidates {
			accs[c] = &acc{tuple: intern.Names(cand.Tuple)}
		}
		s.forEachRepairDead(func(r *Repair, dead []bool) {
			lin.ForEachAnswer(dead, func(c int) { accs[c].p.AddBig(r.P) })
		})
	} else {
		index := map[string]*acc{}
		for _, r := range s.Repairs {
			for _, tuple := range q.Answers(r.DB) {
				k := fo.TupleKey(tuple)
				a, ok := index[k]
				if !ok {
					a = &acc{tuple: tuple}
					index[k] = a
					accs = append(accs, a)
				}
				a.p.AddBig(r.P)
			}
		}
	}
	out := &AnswerSet{Query: q}
	for _, a := range accs {
		p := a.p.Big()
		if s.SuccessP.Sign() != 0 {
			p.Quo(p, s.SuccessP)
		} else {
			p = prob.Zero()
		}
		if p.Sign() > 0 {
			out.Answers = append(out.Answers, Answer{Tuple: a.tuple, P: p})
		}
	}
	// Sort by the tuples themselves: TupleKey is a process-local interned
	// encoding with no stable order.
	sort.Slice(out.Answers, func(i, j int) bool {
		return slices.Compare(out.Answers[i].Tuple, out.Answers[j].Tuple) < 0
	})
	return out
}

// Certain returns the tuples with CP = 1: answers that hold in every
// operational repair. Under the uniform chain and a non-failing setting
// these coincide with the certain answers over the reachable repairs.
func (s *Semantics) Certain(q *fo.Query) [][]string {
	var out [][]string
	for _, a := range s.OCA(q).Answers {
		if prob.IsOne(a.P) {
			out = append(out, a.Tuple)
		}
	}
	return out
}

// TPC decides the tuple probability checking problem of Section 5:
// is CP_{D,MΣ,Q}(t̄) > 0?
func (s *Semantics) TPC(q *fo.Query, tuple []string) bool {
	return s.CP(q, tuple).Sign() > 0
}

// Lookup returns the answer for a tuple in the answer set (zero probability
// when absent).
func (as *AnswerSet) Lookup(tuple []string) *big.Rat {
	k := fo.TupleKey(tuple)
	for _, a := range as.Answers {
		if fo.TupleKey(a.Tuple) == k {
			return a.P
		}
	}
	return prob.Zero()
}

// String renders the answer set one tuple per line with exact and decimal
// probabilities.
func (as *AnswerSet) String() string {
	out := fmt.Sprintf("OCA for %s:\n", as.Query)
	if len(as.Answers) == 0 {
		return out + "  (no tuple has positive probability)\n"
	}
	for _, a := range as.Answers {
		out += fmt.Sprintf("  %s : %s\n", fo.TupleString(a.Tuple), prob.Format(a.P))
	}
	return out
}
