package sat

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
)

// bruteSAT decides a CNF by enumerating all 2^n assignments.
func bruteSAT(c *CNF) bool {
	return bruteCount(c, nil) > 0
}

// bruteCount counts satisfying assignments; when keep is non-nil, models
// are first projected onto the keep variables and counted once per
// distinct projection (for checking projection-equivalence of the
// cardinality encodings, whose auxiliaries must not add or remove
// projected models).
func bruteCount(c *CNF, keep []Var) int {
	n := c.NumVars()
	if n > 22 {
		panic("bruteCount: too many variables")
	}
	seen := map[string]bool{}
	count := 0
	assign := make([]bool, n+1)
	var rec func(v int)
	rec = func(v int) {
		if v > n {
			for _, cl := range c.clauses {
				ok := false
				for _, l := range cl {
					if l > 0 && assign[l] || l < 0 && !assign[-l] {
						ok = true
						break
					}
				}
				if !ok {
					return
				}
			}
			if keep == nil {
				count++
				return
			}
			var sb strings.Builder
			for _, k := range keep {
				if assign[k] {
					sb.WriteByte('1')
				} else {
					sb.WriteByte('0')
				}
			}
			if !seen[sb.String()] {
				seen[sb.String()] = true
				count++
			}
			return
		}
		assign[v] = false
		rec(v + 1)
		assign[v] = true
		rec(v + 1)
	}
	rec(1)
	return count
}

// TestAtMostOne checks the cardinality encoding by projected model
// counting on both sides of the pairwise/sequential threshold: the
// number of projected models must be n+1 (each singleton plus all-false),
// and every ≥2-true assignment must be excluded.
func TestAtMostOne(t *testing.T) {
	for n := 0; n <= pairwiseAtMostOneLimit+3; n++ {
		c := NewCNF(n)
		vars := make([]Var, n)
		for i := range vars {
			vars[i] = Var(i + 1)
		}
		c.AtMostOne(vars)
		want := n + 1
		if n == 0 {
			want = 1
		}
		if got := bruteCount(c, vars); got != want {
			t.Errorf("AtMostOne(%d): %d projected models, want %d", n, got, want)
		}
		// Forcing two variables true must be UNSAT for n ≥ 2.
		if n >= 2 {
			forced := c.Clone()
			forced.Add(vars[0])
			forced.Add(vars[n-1])
			if bruteSAT(forced) {
				t.Errorf("AtMostOne(%d): two forced trues still satisfiable", n)
			}
		}
		// Forcing any single variable true must stay SAT.
		for _, v := range vars {
			forced := c.Clone()
			forced.Add(v)
			if !bruteSAT(forced) {
				t.Errorf("AtMostOne(%d): singleton %d unsatisfiable", n, v)
			}
		}
	}
}

// parseDIMACS reads a DIMACS CNF file back into a formula, so tests can
// decide an exported file by bruteSAT. Comment lines are skipped; the
// header's variable and clause counts must match the body.
func parseDIMACS(r io.Reader) (*CNF, error) {
	var c *CNF
	wantClauses := 0
	var cl []Lit
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		switch {
		case len(fields) == 0 || fields[0] == "c":
			continue
		case fields[0] == "p":
			if c != nil || len(fields) != 4 || fields[1] != "cnf" {
				return nil, fmt.Errorf("bad header %q", sc.Text())
			}
			nv, err1 := strconv.Atoi(fields[2])
			nc, err2 := strconv.Atoi(fields[3])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("bad header %q", sc.Text())
			}
			c, wantClauses = NewCNF(nv), nc
			continue
		case c == nil:
			return nil, fmt.Errorf("clause before header: %q", sc.Text())
		}
		for _, f := range fields {
			l, err := strconv.Atoi(f)
			if err != nil {
				return nil, err
			}
			if l == 0 {
				c.Add(cl...)
				cl = cl[:0]
				continue
			}
			cl = append(cl, Lit(l))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if c == nil || len(cl) != 0 || c.NumClauses() != wantClauses {
		return nil, fmt.Errorf("truncated DIMACS input")
	}
	return c, nil
}

// TestDegenerateInputs: empty formulas, empty clauses, contradictory
// units, tautologies and duplicate literals keep their meaning through
// the DIMACS export.
func TestDegenerateInputs(t *testing.T) {
	roundTrip := func(c *CNF) *CNF {
		t.Helper()
		var buf bytes.Buffer
		if err := c.WriteDIMACS(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := parseDIMACS(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return back
	}
	if !bruteSAT(roundTrip(NewCNF(0))) {
		t.Error("empty formula should be SAT")
	}
	c := NewCNF(3)
	c.Add()
	if bruteSAT(roundTrip(c)) {
		t.Error("empty clause should be UNSAT")
	}
	c = NewCNF(1)
	c.Add(1)
	c.Add(-1)
	if bruteSAT(roundTrip(c)) {
		t.Error("contradictory units should be UNSAT")
	}
	c = NewCNF(2)
	c.Add(1, -1)
	c.Add(2, 2, 2)
	c.Add(-2, 1)
	if got := bruteCount(roundTrip(c), nil); got != 1 {
		t.Errorf("tautology+duplicate formula: %d models, want 1", got)
	}
}

// TestAddPanicsOnUnallocated pins the literal-range guard.
func TestAddPanicsOnUnallocated(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add of an unallocated variable should panic")
		}
	}()
	NewCNF(2).Add(3)
}

// TestCloneIsolation: clauses added to a clone do not leak back.
func TestCloneIsolation(t *testing.T) {
	c := NewCNF(2)
	c.Add(1, 2)
	cl := c.Clone()
	cl.Add(-1)
	cl.Add(-2)
	if bruteSAT(cl) {
		t.Error("clone with both negations should be UNSAT")
	}
	if c.NumClauses() != 1 {
		t.Errorf("clone leaked clauses into parent: %d", c.NumClauses())
	}
	if !bruteSAT(c) {
		t.Error("parent should still be SAT")
	}
}

// TestWriteDIMACS pins the export format.
func TestWriteDIMACS(t *testing.T) {
	c := NewCNF(3)
	c.Add(1, -2)
	c.Add(2, 3)
	var buf bytes.Buffer
	if err := c.WriteDIMACS(&buf, "hello"); err != nil {
		t.Fatal(err)
	}
	want := "c hello\np cnf 3 2\n1 -2 0\n2 3 0\n"
	if buf.String() != want {
		t.Errorf("DIMACS output:\n%q\nwant:\n%q", buf.String(), want)
	}
}

func ExampleCNF_WriteDIMACS() {
	c := NewCNF(2)
	c.Add(1, 2)
	c.Add(-1, -2)
	var buf bytes.Buffer
	_ = c.WriteDIMACS(&buf, "x xor y")
	fmt.Print(buf.String())
	// Output:
	// c x xor y
	// p cnf 2 2
	// 1 2 0
	// -1 -2 0
}
