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

// CNF is a formula in conjunctive normal form under construction:
// clauses as added, plus the cardinality encoding the DIMACS export
// needs. A CNF is not safe for concurrent mutation.
type CNF struct {
	nv      int32
	clauses [][]Lit
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
// out-of-range literal would export an ill-formed DIMACS file.
func (c *CNF) Add(lits ...Lit) {
	for _, l := range lits {
		v := l
		if v < 0 {
			v = -v
		}
		if v == 0 || v > c.nv {
			panic(fmt.Sprintf("sat: literal %d references an unallocated variable (have %d)", l, c.nv))
		}
	}
	c.clauses = append(c.clauses, append([]Lit(nil), lits...))
}

// Clone returns a copy sharing the (immutable) clause bodies: the clause
// list itself is copied, so clauses added to the clone do not leak back.
// The DIMACS export clones the shared group constraints once per
// candidate tuple and stacks the tuple's witness clauses on top.
func (c *CNF) Clone() *CNF {
	out := &CNF{nv: c.nv}
	out.clauses = make([][]Lit, len(c.clauses), len(c.clauses)+8)
	copy(out.clauses, c.clauses)
	return out
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
