package practical

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fo"
	"repro/internal/logic"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/workload"
)

// TestLineageRoundsMatchFullEvaluation: RunQuery, and Run on plans that
// compile to a CQ, answer from the query's witness lineage; every Result
// must equal, field for field, the clone-and-evaluate round's, at several
// seeds, worker counts and drop-all probabilities.
func TestLineageRoundsMatchFullEvaluation(t *testing.T) {
	x, y, z, u := logic.Var("X"), logic.Var("Y"), logic.Var("Z"), logic.Var("U")
	atom := func(p string, ts ...logic.Term) fo.Formula { return fo.Atom{A: logic.NewAtom(p, ts...)} }

	kvDB, kvSigma := workload.KeyViolations(workload.KeyConfig{Keys: 12, Violations: 6, Seed: 4})
	kvCat := plan.NewCatalogOn(kvDB)
	kvCat.DeriveKeys(kvSigma)
	injectCat := plan.NewCatalogOn(multiTableDB())
	for _, table := range []string{"T1", "T2", "T3"} {
		injectCat.MustAddTable(table, "k", "v")
		if err := injectCat.DeclareKey(table, "k"); err != nil {
			t.Fatal(err)
		}
	}
	orders := workload.Orders(workload.OrdersConfig{Orders: 60, Customers: 12, ViolationRate: 0.3, Seed: 2})
	joinPlan := plan.Distinct{Input: plan.Project{
		Input: plan.Join{L: plan.Scan{Table: "orders"}, R: plan.Scan{Table: "customers"}},
		Cols:  []string{"region"},
	}}
	cases := []struct {
		name string
		cat  *plan.Catalog
		q    *fo.Query
		p    plan.Plan // when set, Run(p) is checked against the algebra too
	}{
		{"keys-exists", kvCat, fo.MustQuery("Q", []logic.Term{x}, fo.Exists{Vars: []logic.Term{y}, F: atom("R", x, y)}), nil},
		{"keys-pairs", kvCat, fo.MustQuery("Q", []logic.Term{x, y}, fo.Exists{Vars: []logic.Term{z}, F: fo.Conj(atom("R", x, y), atom("R", x, z))}), nil},
		{"keys-boolean", kvCat, fo.MustQuery("Q", nil, fo.Exists{Vars: []logic.Term{y}, F: atom("R", logic.Const("k0"), y)}), nil},
		{"inject-join", injectCat, fo.MustQuery("Q", []logic.Term{x}, fo.Exists{Vars: []logic.Term{y, z, u},
			F: fo.Conj(atom("T1", x, y), atom("T2", x, z), atom("T3", x, u))}), nil},
		{"conflicts-join", catalogWithConflicts(), nil, joinPlan},
		{"orders-join", orders.Catalog, nil, joinPlan},
	}
	for _, c := range cases {
		q := c.q
		if c.p != nil {
			var ok bool
			if q, ok = plan.AsQuery(c.p, c.cat); !ok {
				t.Fatalf("%s: plan does not compile to a CQ", c.name)
			}
		}
		g, err := (&Runner{Catalog: c.cat}).keyGroups(1)
		if err != nil {
			t.Fatal(err)
		}
		conflicted, _ := g.conflicted()
		if _, ok := q.Lineage(g.base, conflicted); !ok || g.count == 0 {
			t.Fatalf("%s: no lineage (groups %d)", c.name, g.count)
		}
		for seed := int64(1); seed <= 5; seed++ {
			for _, workers := range []int{1, 2, 4} {
				for _, dropAll := range []float64{0, 1.0 / 3} {
					label := fmt.Sprintf("%s seed %d workers %d drop-all %g", c.name, seed, workers, dropAll)
					r := &Runner{Catalog: c.cat, Policy: Policy{DropAll: dropAll}, Seed: seed, Workers: workers}
					got, err := r.RunQuery(q, 157)
					if err != nil {
						t.Fatal(err)
					}
					want, err := r.runRounds(r.queryEval(q), 157)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: lineage rounds differ from full evaluation:\n got %+v\nwant %+v", label, got, want)
					}
					if got.Groups != g.count || len(got.Tuples) == 0 {
						t.Fatalf("%s: Groups = %d (want %d), %d tuples", label, got.Groups, g.count, len(got.Tuples))
					}
					if c.p == nil {
						continue
					}
					viaPlan, err := r.Run(c.p, 157)
					if err != nil {
						t.Fatal(err)
					}
					algebra, err := r.runRounds(r.planEval(c.p), 157)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(viaPlan, want) || !reflect.DeepEqual(algebra, want) {
						t.Fatalf("%s: Run and the algebra round disagree with full evaluation", label)
					}
				}
			}
		}
	}
}

// TestRunQueryNonCQKeepsRounds: a query with no lineage is evaluated on
// each round's repaired database.
func TestRunQueryNonCQKeepsRounds(t *testing.T) {
	cat := catalogWithConflicts()
	x, y, z := logic.Var("X"), logic.Var("Y"), logic.Var("Z")
	// Orders whose every row names customer c1 in this round's repair.
	q := fo.MustQuery("Q", []logic.Term{x}, fo.And{
		L: fo.Exists{Vars: []logic.Term{y, z}, F: fo.Atom{A: logic.NewAtom("orders", x, y, z)}},
		R: fo.Not{F: fo.Exists{Vars: []logic.Term{y, z}, F: fo.And{
			L: fo.Atom{A: logic.NewAtom("orders", x, y, z)},
			R: fo.Not{F: fo.Eq{L: y, R: logic.Const("c1")}},
		}}},
	})
	if _, ok := q.Lineage(cat.DB(), nil); ok {
		t.Fatal("a query with negation has no lineage")
	}
	r := &Runner{Catalog: cat, Seed: 3, Workers: 2}
	got, err := r.RunQuery(q, 400)
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.runRounds(r.queryEval(q), 400)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	// o2 is clean and belongs to c1; o1 does only when it keeps its c1 row.
	if p := got.Lookup([]string{"o2"}).P; p != 1 {
		t.Errorf("P(o2) = %v, want 1", p)
	}
	if p := got.Lookup([]string{"o1"}).P; p < 0.4 || p > 0.6 {
		t.Errorf("P(o1) = %v, want ≈ 1/2", p)
	}
}

// multiTableDB is three tables T1..T3(k, v) with correlated key
// conflicts: every key is in every table, and keys k0..k3 carry two or
// three values in some of them.
func multiTableDB() *relation.Database {
	d := relation.NewDatabase()
	values := [][]int{{2, 1, 3}, {1, 2, 1}, {3, 3, 1}, {1, 1, 2}, {1, 1, 1}}
	for t, pred := range []string{"T1", "T2", "T3"} {
		for k, vs := range values {
			for j := 0; j < vs[t]; j++ {
				d.Insert(relation.NewFact(pred, fmt.Sprintf("k%d", k), fmt.Sprintf("%sv%d", pred, j)))
			}
		}
	}
	return d
}
