package sat

import (
	"fmt"
	"io"
)

// Var is a propositional variable, numbered 1..NumVars like DIMACS.
type Var = int32

// Lit is a literal in DIMACS convention: +v is the variable v, -v its
// negation. Zero is not a literal.
type Lit = int32

// CNF is a formula in conjunctive normal form under construction. Clauses
// added through Add are stored as given (the solver normalizes); the
// builder also offers the cardinality encodings the certain-answer
// compiler needs. A CNF is not safe for concurrent mutation.
type CNF struct {
	nv      int32
	clauses [][]Lit
	// hasEmpty records that an empty clause was added: the formula is
	// trivially unsatisfiable and the solver short-circuits.
	hasEmpty bool
}

// NewCNF returns an empty formula with n pre-allocated variables
// (variables 1..n exist; NewVar extends past them).
func NewCNF(n int) *CNF {
	if n < 0 {
		n = 0
	}
	return &CNF{nv: int32(n)}
}

// NewVar allocates a fresh variable and returns it.
func (c *CNF) NewVar() Var {
	c.nv++
	return c.nv
}

// NumVars reports the number of allocated variables.
func (c *CNF) NumVars() int { return int(c.nv) }

// NumClauses reports the number of clauses added so far.
func (c *CNF) NumClauses() int { return len(c.clauses) }

// Add appends one clause (a disjunction of literals). The literal slice is
// copied. An empty clause makes the formula unsatisfiable. Literals must
// reference allocated variables; Add panics otherwise, since a silent
// out-of-range literal would corrupt the solver's watch tables.
func (c *CNF) Add(lits ...Lit) {
	if len(lits) == 0 {
		c.hasEmpty = true
		c.clauses = append(c.clauses, nil)
		return
	}
	cl := make([]Lit, len(lits))
	for i, l := range lits {
		v := l
		if v < 0 {
			v = -v
		}
		if v == 0 || v > c.nv {
			panic(fmt.Sprintf("sat: literal %d references an unallocated variable (have %d)", l, c.nv))
		}
		cl[i] = l
	}
	c.clauses = append(c.clauses, cl)
}

// Clone returns a copy sharing the (immutable) clause bodies: the clause
// list itself is copied, so clauses added to the clone do not leak back.
// The certain-answer compiler clones the shared group constraints once per
// candidate tuple and stacks the tuple's witness clauses on top.
func (c *CNF) Clone() *CNF {
	out := &CNF{nv: c.nv, hasEmpty: c.hasEmpty}
	out.clauses = make([][]Lit, len(c.clauses), len(c.clauses)+8)
	copy(out.clauses, c.clauses)
	return out
}

// AllFalseModel reports whether the all-false assignment satisfies the
// formula: every clause holds a negative literal. O(clauses), no search.
func (c *CNF) AllFalseModel() bool {
	for _, cl := range c.clauses {
		if !hasNegative(cl) {
			return false
		}
	}
	return true
}

func hasNegative(cl []Lit) bool {
	for _, l := range cl {
		if l < 0 {
			return true
		}
	}
	return false
}

// pairwiseAtMostOneLimit is the group size up to which at-most-one is
// encoded with the O(n²) pairwise clauses; larger groups use the sequential
// (ladder) encoding, which is linear in clauses and auxiliary variables.
const pairwiseAtMostOneLimit = 6

// AtMostOne constrains at most one of the variables to be true. Groups up
// to pairwiseAtMostOneLimit use pairwise negative clauses; larger groups
// use the sequential encoding s_i ("some x_j with j ≤ i is true") with the
// ladder clauses
//
//	x_i → s_i,   s_{i-1} → s_i,   x_i ∧ s_{i-1} → ⊥,
//
// whose auxiliary variables are freshly allocated here. Every assignment of
// the x_i with ≤ 1 true extends to the auxiliaries, and none with ≥ 2 true
// does (the property suite checks both by model enumeration).
func (c *CNF) AtMostOne(vars []Var) {
	if len(vars) <= 1 {
		return
	}
	if len(vars) <= pairwiseAtMostOneLimit {
		for i := 0; i < len(vars); i++ {
			for j := i + 1; j < len(vars); j++ {
				c.Add(-vars[i], -vars[j])
			}
		}
		return
	}
	n := len(vars)
	s := make([]Var, n-1)
	for i := range s {
		s[i] = c.NewVar()
	}
	for i := 0; i < n-1; i++ {
		c.Add(-vars[i], s[i]) // x_i → s_i
		if i > 0 {
			c.Add(-s[i-1], s[i]) // s_{i-1} → s_i
		}
	}
	for i := 1; i < n; i++ {
		c.Add(-vars[i], -s[i-1]) // x_i ∧ s_{i-1} → ⊥
	}
}

// ExactlyOne constrains exactly one of the variables to be true: AtMostOne
// plus the covering clause x_1 ∨ ... ∨ x_n. An empty group is
// unsatisfiable (the covering clause is empty).
func (c *CNF) ExactlyOne(vars []Var) {
	cover := make([]Lit, len(vars))
	for i, v := range vars {
		cover[i] = v
	}
	c.Add(cover...)
	c.AtMostOne(vars)
}

// WriteDIMACS emits the formula in DIMACS CNF format, preceded by the
// given comment lines (written as "c <line>"), for cross-checking against
// external solvers.
func (c *CNF) WriteDIMACS(w io.Writer, comments ...string) error {
	for _, line := range comments {
		if _, err := fmt.Fprintf(w, "c %s\n", line); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "p cnf %d %d\n", c.nv, len(c.clauses)); err != nil {
		return err
	}
	for _, cl := range c.clauses {
		for _, l := range cl {
			if _, err := fmt.Fprintf(w, "%d ", l); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w, "0"); err != nil {
			return err
		}
	}
	return nil
}
