package sat

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/constraint"
	"repro/internal/fo"
	"repro/internal/intern"
	"repro/internal/plan"
	"repro/internal/relation"
)

// ErrUnsupportedConstraints reports that the constraint set is not a set
// of key-shaped EGDs, the only fragment the SAT compilation covers.
var ErrUnsupportedConstraints = errors.New("sat: constraints are not all key-shaped EGDs")

// ErrUnsupportedQuery reports that the query is outside the compilable
// fragment: not a conjunction of positive atoms, or with an output
// variable that does not occur in the body (such variables range over the
// repair's active domain, which the boolean encoding does not track).
var ErrUnsupportedQuery = errors.New("sat: query is not a compilable conjunctive query")

// Options tunes the repair space the encoding quantifies over.
type Options struct {
	// MaximalRepairs switches the per-group cardinality constraint from
	// at-most-one to exactly-one surviving fact.
	//
	// The operational semantics justifies deleting ANY non-empty subset of
	// a violation's facts (ops: Proposition 1), so its absorbing states
	// keep at most one fact per violating key group — including the
	// "trust neither" empty resolution — and at-most-one is what matches
	// the tree/DAG/factored engines. Exactly-one instead quantifies over
	// the classical maximal repairs (subset-maximal consistent
	// subinstances), the space CAvSAT-style systems use; it is strictly
	// smaller, so it can only grow the certain set. The default (false)
	// matches the repo's chain engines.
	MaximalRepairs bool
}

// Encoder compiles certain-answer questions over one (database, key
// constraints) pair to CNF. Construction validates the constraint
// fragment, finds the violating key groups, assigns one boolean per
// conflicted fact ("the repair keeps this fact"), and builds the shared
// cardinality clauses; per-query compilation then stacks witness clauses
// on a clone. Facts outside every violating group survive in every
// repair and need no variable.
//
// An Encoder is read-only after construction and safe for concurrent use.
type Encoder struct {
	db     *relation.Database
	opts   Options
	base   *CNF
	vars   map[uint32]Var    // fact ID → keep-variable
	facts  []relation.Fact   // facts[v-1] = fact of variable v (v ≤ len(facts); ladder auxiliaries come after)
	groups [][]relation.Fact // violating key groups, deterministic order
	// baseAllFalse records that the all-false assignment — the repair that
	// deletes every conflicted fact — satisfies the group constraints: true
	// for the at-most-one base, false under MaximalRepairs.
	baseAllFalse bool
}

// NewEncoder validates that sigma consists solely of key-shaped EGDs
// (table keys, per plan.Catalog.DeriveKeys; an empty set is fine — the
// database is then consistent) and builds the shared group constraints.
func NewEncoder(db *relation.Database, sigma *constraint.Set, opts Options) (*Encoder, error) {
	cat := plan.NewCatalogOn(db)
	keyed, unrecognized := cat.DeriveKeys(sigma)
	if unrecognized > 0 {
		return nil, fmt.Errorf("%w: %d of %d constraints unrecognized", ErrUnsupportedConstraints, unrecognized, len(sigma.All()))
	}
	e := &Encoder{db: db, opts: opts, vars: map[uint32]Var{}}
	for _, name := range keyed {
		t, err := cat.Table(name)
		if err != nil {
			return nil, err
		}
		e.groups = append(e.groups, relation.KeyViolatingGroups(db, t.Pred, len(t.Cols), cat.Key(name))...)
	}
	// All fact variables first, cardinality clauses second: ladder
	// auxiliaries then number past len(e.facts), keeping the fact↔variable
	// mapping a plain slice.
	cnf := NewCNF(0)
	for _, g := range e.groups {
		for _, f := range g {
			if _, ok := e.vars[f.ID()]; !ok {
				e.vars[f.ID()] = cnf.NewVar()
				e.facts = append(e.facts, f)
			}
		}
	}
	gv := make([]Var, 0, 8)
	for _, g := range e.groups {
		gv = gv[:0]
		for _, f := range g {
			gv = append(gv, e.vars[f.ID()])
		}
		if opts.MaximalRepairs {
			cnf.ExactlyOne(gv)
		} else {
			cnf.AtMostOne(gv)
		}
	}
	e.base = cnf
	e.baseAllFalse = cnf.AllFalseModel()
	return e, nil
}

// Groups reports the number of violating key groups.
func (e *Encoder) Groups() int { return len(e.groups) }

// ConflictFacts reports the number of facts carrying a variable.
func (e *Encoder) ConflictFacts() int { return len(e.facts) }

// candidate is one potential answer tuple with its compiled witness
// clauses. A witness is one homomorphism's image; the tuple is an answer
// in exactly the repairs where some witness survives intact. Each clause
// lists the negated keep-variables of one witness's conflicted facts, so
// the conjunction base ∧ clauses is satisfiable iff some repair breaks
// every witness — iff the tuple is NOT certain. A witness whose facts are
// all conflict-free survives in every repair: the tuple is certain with
// no solver call (certain=true, no clauses).
type candidate struct {
	tuple   []string
	witness [][]Lit
	certain bool
}

// collect maps the query's witness lineage over the full database
// (fo.Query.Lineage, with the encoder's variable facts as the conflicted
// list) to witness clauses: conflicted fact i is keep-variable i+1, and
// each distinct witness becomes one clause of negated variables, in the
// order the lineage pass met it. Repairs are subsets and the query is
// monotone, so every witness in every repair appears in the lineage.
// Candidates come back sorted by tuple.
func (e *Encoder) collect(q *fo.Query) ([]*candidate, error) {
	lin, ok := q.Lineage(e.db, e.facts)
	if !ok {
		if _, unconstrained, cq := q.CQ(); cq {
			return nil, fmt.Errorf("%w: %d output variables do not occur in the body", ErrUnsupportedQuery, len(unconstrained))
		}
		return nil, fmt.Errorf("%w: body is not a conjunction of positive atoms", ErrUnsupportedQuery)
	}
	cands := make([]*candidate, len(lin.Candidates))
	for i, lc := range lin.Candidates {
		c := &candidate{tuple: intern.Names(lc.Tuple), certain: lc.Certain}
		for _, w := range lc.Witnesses {
			cl := make([]Lit, len(w))
			for j, idx := range w {
				cl[j] = -Var(idx + 1)
			}
			c.witness = append(c.witness, cl)
		}
		cands[i] = c
	}
	sort.Slice(cands, func(i, j int) bool {
		return lessTuples(cands[i].tuple, cands[j].tuple)
	})
	return cands, nil
}

func lessTuples(a, b []string) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// CertainResult is the outcome of one SAT certain-answer computation.
type CertainResult struct {
	// Answers is the sorted certain set.
	Answers [][]string
	// Candidates counts distinct tuples with at least one witness on the
	// full database (a superset of the certain set, by monotonicity);
	// CandidateTuples lists them, sorted.
	Candidates      int
	CandidateTuples [][]string
	// Immediate counts candidates decided without a solver call: some
	// witness used only conflict-free facts.
	Immediate int
	// Refuted counts candidates shown non-certain without a solver call:
	// the all-false assignment (the repair deleting every conflicted fact)
	// satisfies the base and every witness clause, so that repair breaks
	// every witness.
	Refuted int
	// Solved counts solver invocations (one per remaining candidate);
	// Immediate + Refuted + Solved == Candidates.
	Solved int
	// Vars and Clauses describe the shared base formula (group cardinality
	// constraints, including ladder auxiliaries); Groups the violating key
	// groups it encodes.
	Vars, Clauses, Groups int
	// Stats aggregates solver work across all invocations.
	Stats Stats
}

// CertainAnswers computes the certain answers of q: the tuples that are
// answers in every repair. A candidate tuple is certain iff
// base ∧ its witness clauses is unsatisfiable. Witness clauses are
// all-negative, so whenever the base admits the all-false assignment
// (the default at-most-one repair space) that assignment is a model of
// every candidate formula and no solver is built; the solver runs only
// when the check fails (Options.MaximalRepairs).
func (e *Encoder) CertainAnswers(q *fo.Query) (*CertainResult, error) {
	cands, err := e.collect(q)
	if err != nil {
		return nil, err
	}
	res := &CertainResult{
		Candidates: len(cands),
		Vars:       e.base.NumVars(),
		Clauses:    e.base.NumClauses(),
		Groups:     len(e.groups),
	}
	for _, c := range cands {
		res.CandidateTuples = append(res.CandidateTuples, c.tuple)
	}
	for _, c := range cands {
		certain := c.certain
		switch {
		case certain:
			res.Immediate++
		case e.refutedByAllFalse(c.witness):
			res.Refuted++
		default:
			f := e.base.Clone()
			for _, cl := range c.witness {
				f.Add(cl...)
			}
			s := NewSolver(f)
			res.Solved++
			certain = !s.Solve()
			res.Stats.Add(s.Stats)
		}
		if certain {
			res.Answers = append(res.Answers, c.tuple)
		}
	}
	fo.SortTuples(res.Answers)
	return res, nil
}

// refutedByAllFalse reports that the all-false assignment satisfies the
// base and every witness clause: the repair deleting every conflicted fact
// breaks every witness, so the candidate is not certain.
func (e *Encoder) refutedByAllFalse(witness [][]Lit) bool {
	if !e.baseAllFalse {
		return false
	}
	for _, cl := range witness {
		if !hasNegative(cl) {
			return false
		}
	}
	return true
}

// Certain decides one tuple: is it an answer in every repair? A tuple
// with no witness on the full database is not certain (monotonicity); a
// formula the all-false assignment satisfies is not certain without a
// solver call.
func (e *Encoder) Certain(q *fo.Query, tuple []string) (bool, error) {
	cnf, found, err := e.TupleCNF(q, tuple)
	if err != nil {
		return false, err
	}
	if !found {
		return false, nil
	}
	if cnf == nil {
		return true, nil // conflict-free witness
	}
	if cnf.AllFalseModel() {
		return false, nil
	}
	s := NewSolver(cnf)
	return !s.Solve(), nil
}

// TupleCNF compiles the "tuple is NOT certain" formula for one tuple.
// found reports whether the tuple has any witness at all; a nil CNF with
// found=true means a conflict-free witness made the tuple certain
// outright (the formula would contain the empty clause).
func (e *Encoder) TupleCNF(q *fo.Query, tuple []string) (cnf *CNF, found bool, err error) {
	cands, err := e.collect(q)
	if err != nil {
		return nil, false, err
	}
	for _, c := range cands {
		if !equalTuples(c.tuple, tuple) {
			continue
		}
		if c.certain {
			return nil, true, nil
		}
		f := e.base.Clone()
		for _, cl := range c.witness {
			f.Add(cl...)
		}
		return f, true, nil
	}
	return nil, false, nil
}

func equalTuples(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// WriteTupleDIMACS exports the "tuple is NOT certain" formula in DIMACS
// CNF for cross-checking with an external solver: UNSAT means certain.
// Tuples decided without a solver (no witness, or a conflict-free
// witness) export a trivial equivalent — the empty formula (trivially
// SAT: not certain) or a single empty clause (trivially UNSAT: certain)
// — so the external verdict always matches the engine's.
func (e *Encoder) WriteTupleDIMACS(w io.Writer, q *fo.Query, tuple []string) error {
	cnf, found, err := e.TupleCNF(q, tuple)
	if err != nil {
		return err
	}
	head := fmt.Sprintf("%s%s is NOT certain iff SAT", q.Name, fo.TupleString(tuple))
	switch {
	case !found:
		cnf = NewCNF(0)
		return cnf.WriteDIMACS(w, head, "tuple has no witness on the full database: trivially not certain")
	case cnf == nil:
		cnf = NewCNF(0)
		cnf.Add()
		return cnf.WriteDIMACS(w, head, "tuple has a conflict-free witness: certain in every repair")
	}
	comments := make([]string, 0, len(e.facts)+1)
	comments = append(comments, head)
	for v, f := range e.facts {
		comments = append(comments, fmt.Sprintf("var %d = keep %s", v+1, f))
	}
	return cnf.WriteDIMACS(w, comments...)
}
