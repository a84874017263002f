package sat_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/constraint"
	"repro/internal/fo"
	"repro/internal/logic"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/sat"
	"repro/internal/workload"
)

// bruteCertain computes the certain answers by enumerating the repair
// space directly: every combination of "keep at most one fact per
// violating group" (or exactly one, for maximal repairs) over the
// conflict-free backbone, intersecting the query answers. This is the
// semantic ground truth the encoder must match; the equivalence suite in
// internal/core separately pins it to the chain engines.
func bruteCertain(t *testing.T, db *relation.Database, sigma *constraint.Set, q *fo.Query, maximal bool) [][]string {
	t.Helper()
	cat := plan.NewCatalogOn(db)
	keyed, unrec := cat.DeriveKeys(sigma)
	if unrec != 0 {
		t.Fatalf("bruteCertain: %d unrecognized constraints", unrec)
	}
	var groups [][]relation.Fact
	for _, name := range keyed {
		tbl, err := cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		groups = append(groups, relation.KeyViolatingGroups(db, tbl.Pred, len(tbl.Cols), cat.Key(name))...)
	}
	inGroup := map[uint32]bool{}
	for _, g := range groups {
		for _, f := range g {
			inGroup[f.ID()] = true
		}
	}
	var core []relation.Fact
	for _, f := range db.Facts() {
		if !inGroup[f.ID()] {
			core = append(core, f)
		}
	}
	var certain [][]string
	first := true
	choice := make([]int, len(groups)) // -1 = drop all, i = keep g[i]
	var rec func(i int)
	rec = func(i int) {
		if i == len(groups) {
			rep := relation.NewDatabase()
			for _, f := range core {
				rep.Insert(f)
			}
			for gi, c := range choice {
				if c >= 0 {
					rep.Insert(groups[gi][c])
				}
			}
			ans := q.Answers(rep)
			if first {
				certain = ans
				first = false
				return
			}
			keep := certain[:0]
			for _, c := range certain {
				for _, a := range ans {
					if len(a) == len(c) && equalTuple(a, c) {
						keep = append(keep, c)
						break
					}
				}
			}
			certain = keep
			return
		}
		start := -1
		if maximal {
			start = 0
		}
		for c := start; c < len(groups[i]); c++ {
			choice[i] = c
			rec(i + 1)
		}
	}
	rec(0)
	fo.SortTuples(certain)
	return certain
}

func equalTuple(a, b []string) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func tuplesEqual(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) || !equalTuple(a[i], b[i]) {
			return false
		}
	}
	return true
}

func existsQuery(pred string) *fo.Query {
	x, y := logic.Var("x"), logic.Var("y")
	return fo.MustQuery("Q", []logic.Term{x},
		fo.Exists{Vars: []logic.Term{y}, F: fo.Atom{A: logic.NewAtom(pred, x, y)}})
}

// TestCertainAgainstBruteForce drives the full compile+solve pipeline
// against subset enumeration on families with different conflict shapes,
// under both repair-space options.
func TestCertainAgainstBruteForce(t *testing.T) {
	type inst struct {
		name  string
		db    *relation.Database
		sigma *constraint.Set
		q     *fo.Query
	}
	var cases []inst

	d1, s1 := workload.KeyViolations(workload.KeyConfig{Keys: 6, Violations: 3, Seed: 2})
	cases = append(cases, inst{"key-violations", d1, s1, existsQuery("R")})

	d2, s2 := workload.Cliques(workload.CliqueConfig{Groups: 2, GroupSize: 3, Core: 2, Seed: 5})
	cases = append(cases, inst{"cliques", d2, s2, existsQuery("R")})

	// Join across two keyed tables: witnesses mixing conflicted facts of
	// both, plus a certain join pair.
	d3 := relation.NewDatabase()
	for _, f := range [][3]string{
		{"R", "a", "1"}, {"R", "a", "2"}, // group in R
		{"R", "b", "3"},
		{"S", "a", "x"},
		{"S", "b", "y"}, {"S", "b", "z"}, // group in S
		{"S", "c", "w"},
	} {
		d3.Insert(relation.NewFact(f[0], f[1], f[2]))
	}
	x, y, z := logic.Var("x"), logic.Var("y"), logic.Var("z")
	keyOf := func(pred string) *constraint.Constraint {
		return constraint.MustEGD(
			[]logic.Atom{logic.NewAtom(pred, x, y), logic.NewAtom(pred, x, z)}, y, z)
	}
	s3 := constraint.NewSet(keyOf("R"), keyOf("S"))
	joinQ := fo.MustQuery("J", []logic.Term{x},
		fo.Exists{Vars: []logic.Term{y, z}, F: fo.And{
			L: fo.Atom{A: logic.NewAtom("R", x, y)},
			R: fo.Atom{A: logic.NewAtom("S", x, z)},
		}})
	cases = append(cases, inst{"two-table-join", d3, s3, joinQ})

	// Boolean query over the same instance.
	boolQ := fo.MustQuery("B", nil,
		fo.Exists{Vars: []logic.Term{x, y}, F: fo.Atom{A: logic.NewAtom("S", x, y)}})
	cases = append(cases, inst{"boolean", d3, s3, boolQ})

	// Consistent instance (no violations): everything certain.
	d5, s5 := workload.KeyViolations(workload.KeyConfig{Keys: 4, Violations: 0, Seed: 3})
	cases = append(cases, inst{"consistent", d5, s5, existsQuery("R")})

	for _, tc := range cases {
		for _, maximal := range []bool{false, true} {
			name := tc.name
			if maximal {
				name += "/maximal"
			}
			t.Run(name, func(t *testing.T) {
				enc, err := sat.NewEncoder(tc.db, tc.sigma, sat.Options{MaximalRepairs: maximal})
				if err != nil {
					t.Fatal(err)
				}
				res, err := enc.CertainAnswers(tc.q)
				if err != nil {
					t.Fatal(err)
				}
				want := bruteCertain(t, tc.db, tc.sigma, tc.q, maximal)
				if !tuplesEqual(res.Answers, want) {
					t.Fatalf("certain mismatch:\n sat  = %v\n brute= %v", res.Answers, want)
				}
				// Per-tuple Certain must agree with the set computation,
				// including on a non-candidate tuple.
				for _, tup := range res.Answers {
					ok, err := enc.Certain(tc.q, tup)
					if err != nil || !ok {
						t.Fatalf("Certain(%v) = %v, %v; want true", tup, ok, err)
					}
				}
				if !tc.q.IsBoolean() {
					ok, err := enc.Certain(tc.q, []string{"no-such-constant"})
					if err != nil || ok {
						t.Fatalf("Certain(no-such-constant) = %v, %v; want false", ok, err)
					}
				}
			})
		}
	}
}

// TestMaximalGrowsCertainSet: the "trust neither" resolution is what
// makes violating keys uncertain operationally; excluding it (maximal
// repairs) must make every key of every group certain again for the
// exists-query.
func TestMaximalRepairsGrowCertainSet(t *testing.T) {
	db, sigma := workload.Cliques(workload.CliqueConfig{Groups: 3, GroupSize: 3, Core: 2, Seed: 1})
	q := existsQuery("R")

	op, err := sat.NewEncoder(db, sigma, sat.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opRes, err := op.CertainAnswers(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(opRes.Answers) != 2 {
		t.Fatalf("operational certain = %v, want exactly the 2 core keys", opRes.Answers)
	}

	mx, err := sat.NewEncoder(db, sigma, sat.Options{MaximalRepairs: true})
	if err != nil {
		t.Fatal(err)
	}
	mxRes, err := mx.CertainAnswers(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(mxRes.Answers) != 5 {
		t.Fatalf("maximal certain = %v, want all 5 keys", mxRes.Answers)
	}
}

// TestPlanAsQueryCompilation: a relational-algebra plan compiled through
// plan.AsQuery is a first-class input to the SAT engine — the second
// compilation target of the plan layer.
func TestPlanAsQueryCompilation(t *testing.T) {
	db, sigma := workload.KeyViolations(workload.KeyConfig{Keys: 5, Violations: 2, Seed: 4})
	cat := plan.NewCatalogOn(db)
	cat.MustAddTable("R", "k", "v")
	p := plan.Distinct{Input: plan.Project{Input: plan.Scan{Table: "R"}, Cols: []string{"k"}}}
	q, ok := plan.AsQuery(p, cat)
	if !ok {
		t.Fatal("plan should compile to a CQ")
	}
	enc, err := sat.NewEncoder(db, sigma, sat.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := enc.CertainAnswers(q)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteCertain(t, db, sigma, q, false)
	if !tuplesEqual(res.Answers, want) {
		t.Fatalf("plan-compiled certain mismatch:\n sat  = %v\n brute= %v", res.Answers, want)
	}
}

// TestUnsupportedInputs pins the error surface.
func TestUnsupportedInputs(t *testing.T) {
	x, y, z := logic.Var("x"), logic.Var("y"), logic.Var("z")
	db := relation.NewDatabase()
	db.Insert(relation.NewFact("E", "a", "b"))
	db.Insert(relation.NewFact("E", "b", "c"))

	dc := constraint.MustDC([]logic.Atom{logic.NewAtom("E", x, y), logic.NewAtom("E", y, z)})
	if _, err := sat.NewEncoder(db, constraint.NewSet(dc), sat.Options{}); !errors.Is(err, sat.ErrUnsupportedConstraints) {
		t.Errorf("DC constraint: err = %v, want ErrUnsupportedConstraints", err)
	}

	// A functional dependency that is not a key (wide table, one EGD).
	fd := constraint.MustEGD(
		[]logic.Atom{logic.NewAtom("T", x, y, logic.Var("u")), logic.NewAtom("T", x, z, logic.Var("w"))},
		y, z)
	if _, err := sat.NewEncoder(db, constraint.NewSet(fd), sat.Options{}); !errors.Is(err, sat.ErrUnsupportedConstraints) {
		t.Errorf("non-key FD: err = %v, want ErrUnsupportedConstraints", err)
	}

	dbR, sigma := workload.KeyViolations(workload.KeyConfig{Keys: 3, Violations: 1, Seed: 1})
	enc, err := sat.NewEncoder(dbR, sigma, sat.Options{})
	if err != nil {
		t.Fatal(err)
	}

	orQ := fo.MustQuery("O", []logic.Term{x, y}, fo.Or{
		L: fo.Atom{A: logic.NewAtom("R", x, y)},
		R: fo.Atom{A: logic.NewAtom("R", y, x)},
	})
	if _, err := enc.CertainAnswers(orQ); !errors.Is(err, sat.ErrUnsupportedQuery) {
		t.Errorf("disjunctive query: err = %v, want ErrUnsupportedQuery", err)
	}

	freeQ := fo.MustQuery("F", []logic.Term{x, z},
		fo.Exists{Vars: []logic.Term{y}, F: fo.Atom{A: logic.NewAtom("R", x, y)}})
	if _, err := enc.CertainAnswers(freeQ); !errors.Is(err, sat.ErrUnsupportedQuery) {
		t.Errorf("unconstrained output: err = %v, want ErrUnsupportedQuery", err)
	}
}

// TestEmptySigma: with no constraints the database is its only repair.
func TestEmptySigma(t *testing.T) {
	db, _ := workload.KeyViolations(workload.KeyConfig{Keys: 3, Violations: 2, Seed: 1})
	enc, err := sat.NewEncoder(db, constraint.NewSet(), sat.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := existsQuery("R")
	res, err := enc.CertainAnswers(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups != 0 || res.Solved != 0 || len(res.Answers) != 3 {
		t.Fatalf("empty sigma: groups=%d solved=%d answers=%v", res.Groups, res.Solved, res.Answers)
	}
}

// TestWriteTupleDIMACS exercises the three export shapes: a solver-backed
// formula, a conflict-free-witness tuple, and a non-candidate tuple.
func TestWriteTupleDIMACS(t *testing.T) {
	db, sigma := workload.Cliques(workload.CliqueConfig{Groups: 1, GroupSize: 2, Core: 1, Seed: 1})
	enc, err := sat.NewEncoder(db, sigma, sat.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := existsQuery("R")

	var buf bytes.Buffer
	if err := enc.WriteTupleDIMACS(&buf, q, []string{"g0"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "p cnf ") || !strings.Contains(out, "c var 1 = keep R(") {
		t.Errorf("conflicted-tuple export missing header/comments:\n%s", out)
	}

	buf.Reset()
	if err := enc.WriteTupleDIMACS(&buf, q, []string{"c0"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "p cnf 0 1\n0\n") {
		t.Errorf("certain tuple should export the empty clause:\n%s", buf.String())
	}

	buf.Reset()
	if err := enc.WriteTupleDIMACS(&buf, q, []string{"nowhere"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "p cnf 0 0") {
		t.Errorf("non-candidate tuple should export the empty formula:\n%s", buf.String())
	}
}

// TestResultAccounting sanity-checks the CertainResult counters on an
// instance where they are all predictable: every candidate is decided by
// exactly one of the three routes, and on the default at-most-one repair
// space the all-deleted repair refutes every group key without a solver.
func TestResultAccounting(t *testing.T) {
	db, sigma := workload.Cliques(workload.CliqueConfig{Groups: 4, GroupSize: 3, Core: 2, Seed: 9})
	enc, err := sat.NewEncoder(db, sigma, sat.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if enc.Groups() != 4 || enc.ConflictFacts() != 12 {
		t.Fatalf("groups=%d facts=%d, want 4/12", enc.Groups(), enc.ConflictFacts())
	}
	res, err := enc.CertainAnswers(existsQuery("R"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Immediate+res.Refuted+res.Solved != res.Candidates {
		t.Fatalf("Immediate %d + Refuted %d + Solved %d != Candidates %d", res.Immediate, res.Refuted, res.Solved, res.Candidates)
	}
	// 6 candidate keys: 4 group keys (refuted by the all-deleted repair) +
	// 2 core keys (immediate).
	if res.Candidates != 6 || res.Immediate != 2 || res.Refuted != 4 || res.Solved != 0 || len(res.Answers) != 2 {
		t.Fatalf("accounting: %+v", res)
	}
	if res.Stats != (sat.Stats{}) {
		t.Errorf("no solver ran, yet stats = %+v", res.Stats)
	}
}

// TestMaximalRepairsReachesSolver: under exactly-one the covering clauses
// are all-positive, so the all-false check fails and every group key goes
// to the solver (SAT: not certain).
func TestMaximalRepairsReachesSolver(t *testing.T) {
	db, sigma := workload.Cliques(workload.CliqueConfig{Groups: 4, GroupSize: 3, Core: 2, Seed: 9})
	enc, err := sat.NewEncoder(db, sigma, sat.Options{MaximalRepairs: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := enc.CertainAnswers(existsQuery("R"))
	if err != nil {
		t.Fatal(err)
	}
	// Every group keeps exactly one fact, and every fact of a group has the
	// group's key: all 6 keys are certain.
	if res.Candidates != 6 || res.Immediate != 2 || res.Refuted != 0 || res.Solved != 4 || len(res.Answers) != 6 {
		t.Fatalf("accounting: %+v", res)
	}
	if res.Stats.Propagations == 0 {
		t.Error("expected some solver propagations")
	}
	for _, tup := range res.CandidateTuples {
		ok, err := enc.Certain(existsQuery("R"), tup)
		if err != nil || !ok {
			t.Errorf("Certain(%v) = %v, %v; want certain", tup, ok, err)
		}
	}
}

func ExampleEncoder_CertainAnswers() {
	db, sigma := workload.Cliques(workload.CliqueConfig{Groups: 2, GroupSize: 2, Core: 1, Seed: 1})
	enc, _ := sat.NewEncoder(db, sigma, sat.Options{})
	x, y := logic.Var("x"), logic.Var("y")
	q := fo.MustQuery("Q", []logic.Term{x},
		fo.Exists{Vars: []logic.Term{y}, F: fo.Atom{A: logic.NewAtom("R", x, y)}})
	res, _ := enc.CertainAnswers(q)
	for _, t := range res.Answers {
		fmt.Println(fo.TupleString(t))
	}
	// Output:
	// (c0)
}
