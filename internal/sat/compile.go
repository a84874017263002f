package sat

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"

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

// Options is empty: the repair space is fixed to the operational one. It
// stays only until a [benchmark] change drops perfbench's sat.Options{}
// read; delete it then.
type Options struct{}

// Stats is always zero: no solver runs. It stays only until a
// [benchmark] change drops perfbench's res.Stats reads; delete it then.
type Stats struct {
	Propagations int64
	Conflicts    int64
}

// Encoder answers certain-answer questions over one (database, key
// constraints) pair and exports them as CNF. Construction validates the
// constraint fragment, finds the violating key groups and numbers the
// conflicted facts: fact i of the list is keep-variable i+1 ("the repair
// keeps this fact"). Facts outside every violating group survive in
// every repair and need no variable. No clause is built until
// WriteDIMACS exports one.
//
// An Encoder is read-only after construction and safe for concurrent use.
type Encoder struct {
	db     *relation.Database
	facts  []relation.Fact // facts[v-1] = fact of variable v
	groups [][]Var         // keep-variables of each violating key group, deterministic order
}

// NewEncoder validates that sigma consists solely of key-shaped EGDs
// (table keys, per plan.Catalog.DeriveKeys; an empty set is fine — the
// database is then consistent) and numbers the conflicted facts.
func NewEncoder(db *relation.Database, sigma *constraint.Set, _ Options) (*Encoder, error) {
	cat := plan.NewCatalogOn(db)
	keyed, unrecognized := cat.DeriveKeys(sigma)
	if unrecognized > 0 {
		return nil, fmt.Errorf("%w: %d of %d constraints unrecognized", ErrUnsupportedConstraints, unrecognized, len(sigma.All()))
	}
	e := &Encoder{db: db}
	vars := map[uint32]Var{}
	for _, name := range keyed {
		t, err := cat.Table(name)
		if err != nil {
			return nil, err
		}
		for _, g := range relation.KeyViolatingGroups(db, t.Pred, len(t.Cols), cat.Key(name)) {
			gv := make([]Var, len(g))
			for i, f := range g {
				v, ok := vars[f.ID()]
				if !ok {
					e.facts = append(e.facts, f)
					v = Var(len(e.facts))
					vars[f.ID()] = v
				}
				gv[i] = v
			}
			e.groups = append(e.groups, gv)
		}
	}
	return e, nil
}

// Groups reports the number of violating key groups.
func (e *Encoder) Groups() int { return len(e.groups) }

// ConflictFacts reports the number of facts carrying a variable.
func (e *Encoder) ConflictFacts() int { return len(e.facts) }

// candidate is one potential answer tuple with its lineage: certain when
// some witness uses no conflicted fact, otherwise the distinct witnesses
// as sorted indices into the encoder's fact list.
type candidate struct {
	tuple     []string
	certain   bool
	witnesses [][]int
}

// collect reads the query's witness lineage over the full database
// (fo.Query.Lineage, with the encoder's variable facts as the conflicted
// list). Repairs are subsets and the query is monotone, so every witness
// in every repair appears in the lineage. Candidates come back sorted by
// tuple, the order of fo.SortTuples.
func (e *Encoder) collect(q *fo.Query) ([]candidate, error) {
	lin, ok := q.Lineage(e.db, e.facts)
	if !ok {
		if _, unconstrained, cq := q.CQ(); cq {
			return nil, fmt.Errorf("%w: %d output variables do not occur in the body", ErrUnsupportedQuery, len(unconstrained))
		}
		return nil, fmt.Errorf("%w: body is not a conjunction of positive atoms", ErrUnsupportedQuery)
	}
	cands := make([]candidate, len(lin.Candidates))
	for i, lc := range lin.Candidates {
		cands[i] = candidate{tuple: intern.Names(lc.Tuple), certain: lc.Certain, witnesses: lc.Witnesses}
	}
	slices.SortFunc(cands, func(a, b candidate) int { return slices.Compare(a.tuple, b.tuple) })
	return cands, nil
}

// CertainResult is the outcome of one certain-answer computation.
type CertainResult struct {
	// Answers is the sorted certain set.
	Answers [][]string
	// Candidates counts distinct tuples with at least one witness on the
	// full database (a superset of the certain set, by monotonicity).
	Candidates int
	// Immediate counts the certain candidates: some witness used only
	// conflict-free facts.
	Immediate int
	// Refuted counts the other candidates: the repair deleting every
	// conflicted fact breaks each of their witnesses. Immediate + Refuted
	// == Candidates.
	Refuted int
	// Groups counts the violating key groups.
	Groups int
	// Stats is always zero; see the type.
	Stats Stats
}

// CertainAnswers computes the certain answers of q: the tuples that are
// answers in every repair. Operational chains may delete a whole
// violating key group, so the repair deleting every conflicted fact is
// always reachable: a candidate is certain exactly when its lineage has a
// conflict-free witness.
func (e *Encoder) CertainAnswers(q *fo.Query) (*CertainResult, error) {
	cands, err := e.collect(q)
	if err != nil {
		return nil, err
	}
	res := &CertainResult{Candidates: len(cands), Groups: len(e.groups)}
	for _, c := range cands {
		if c.certain {
			res.Answers = append(res.Answers, c.tuple)
		}
	}
	res.Immediate = len(res.Answers)
	res.Refuted = res.Candidates - res.Immediate
	return res, nil
}

// WriteDIMACS exports, from one lineage pass, the "tuple is NOT certain"
// formula of every candidate tuple of q in DIMACS CNF, for
// cross-checking with an external solver: UNSAT means certain. Candidate
// i (in sorted tuple order) is written to the writer open(i, tuple)
// returns, which is closed after.
//
// The formula keeps at most one fact of every violating key group
// (CNF.AtMostOne over the keep-variables, ladder auxiliaries numbered
// past the facts) and adds one clause per witness: the disjunction of
// the negated keep-variables of its conflicted facts. It is satisfiable
// iff some repair breaks every witness. A candidate with a conflict-free
// witness exports a single empty clause instead (trivially UNSAT:
// certain).
func (e *Encoder) WriteDIMACS(q *fo.Query, open func(i int, tuple []string) (io.WriteCloser, error)) error {
	cands, err := e.collect(q)
	if err != nil {
		return err
	}
	base := NewCNF(len(e.facts))
	for _, g := range e.groups {
		base.AtMostOne(g)
	}
	comments := make([]string, 1, len(e.facts)+1)
	for v, f := range e.facts {
		comments = append(comments, fmt.Sprintf("var %d = keep %s", v+1, f))
	}
	for i, c := range cands {
		var cnf *CNF
		comments[0] = fmt.Sprintf("%s%s is NOT certain iff SAT", q.Name, fo.TupleString(c.tuple))
		cs := comments
		if c.certain {
			cnf = NewCNF(0)
			cnf.Add()
			cs = []string{comments[0], "tuple has a conflict-free witness: certain in every repair"}
		} else {
			cnf = base.Clone()
			for _, w := range c.witnesses {
				cl := make([]Lit, len(w))
				for j, idx := range w {
					cl[j] = -Var(idx + 1)
				}
				cnf.Add(cl...)
			}
		}
		w, err := open(i, c.tuple)
		if err != nil {
			return err
		}
		bw := bufio.NewWriter(w)
		err = cnf.WriteDIMACS(bw, cs...)
		if err == nil {
			err = bw.Flush()
		}
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}
