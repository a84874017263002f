// Package repro's root benchmarks regenerate the measurable artifacts of
// the paper, one benchmark family per experiment id of EXPERIMENTS.md:
//
//	BenchmarkExactOCQA/*        — E6: exponential exact engine (Theorem 5)
//	BenchmarkSATCertain/*       — E19: SAT certain answers vs DAG (with
//	BenchmarkDAGCertain/*         the chain-side head-to-head column)
//	BenchmarkSamplingWalks/*    — E6/E7: polynomial sampling (Theorem 9)
//	BenchmarkEstimateOCA        — E7: full (ε,δ) estimation at n = 150
//	BenchmarkRewriteOriginal/*  — E8: original query plans (Section 5)
//	BenchmarkRewriteModified/*  — E8: R − R_del rewritten plans
//	BenchmarkPracticalScheme    — E8: full n-round practical scheme
//	BenchmarkPractical/*        — practical pipeline over workload scenarios
//	BenchmarkViolationsFull/*   — ablation: from-scratch V(D,Σ)
//	BenchmarkViolationsDelta/*  — ablation: incremental maintenance
//	BenchmarkJustifiedOps       — ablation: operation enumeration
//	BenchmarkChainStep          — ablation: one chain transition
//	BenchmarkHomomorphism/*     — substrate: join search
//	BenchmarkFOEval/*           — substrate: CQ fast path vs generic eval
//	BenchmarkServeIngestScale/* — resident server: one publication vs database size
package repro

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/abc"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/fo"
	"repro/internal/generators"
	"repro/internal/logic"
	"repro/internal/markov"
	"repro/internal/ops"
	"repro/internal/plan"
	"repro/internal/practical"
	"repro/internal/relation"
	"repro/internal/repair"
	"repro/internal/sampling"
	"repro/internal/serve"
	"repro/internal/workload"
)

func keysQuery() *fo.Query {
	x, y := logic.Var("x"), logic.Var("y")
	return fo.MustQuery("Keys", []logic.Term{x},
		fo.Exists{Vars: []logic.Term{y}, F: fo.Atom{A: logic.NewAtom("R", x, y)}})
}

// BenchmarkExactOCQA measures the exact engine against instance size; the
// cost triples-and-more per added conflict (Theorem 5's FP^#P shape).
func BenchmarkExactOCQA(b *testing.B) {
	for _, conflicts := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("conflicts=%d", conflicts), func(b *testing.B) {
			d, sigma := workload.KeyViolations(workload.KeyConfig{
				Keys: conflicts, Violations: conflicts, Seed: 1,
			})
			inst := repair.MustInstance(d, sigma)
			q := keysQuery()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sem, err := core.Compute(inst, generators.Uniform{}, markov.ExploreOptions{})
				if err != nil {
					b.Fatal(err)
				}
				sem.OCA(q)
			}
		})
	}
}

// BenchmarkExactTree and BenchmarkExactDAG are the head-to-head for the
// DAG-collapsed exact engine: the same instances, queries, and semantics,
// computed by sequence-tree enumeration (factorial in the conflicts:
// 3^k·k! absorbing sequences) vs. DAG collapse (4^k distinct databases
// with parallel frontier expansion). The equivalence suite in
// internal/core proves the outputs identical.
func BenchmarkExactTree(b *testing.B) {
	for _, conflicts := range []int{4, 5, 6} {
		b.Run(fmt.Sprintf("conflicts=%d", conflicts), func(b *testing.B) {
			d, sigma := workload.KeyViolations(workload.KeyConfig{
				Keys: conflicts, Violations: conflicts, Seed: 1,
			})
			inst := repair.MustInstance(d, sigma)
			q := keysQuery()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sem, err := core.ComputeTreeMode(inst, generators.Uniform{}, markov.ExploreOptions{}, core.WalkInduced)
				if err != nil {
					b.Fatal(err)
				}
				sem.OCA(q)
			}
		})
	}
}

func BenchmarkExactDAG(b *testing.B) {
	for _, conflicts := range []int{4, 5, 6} {
		b.Run(fmt.Sprintf("conflicts=%d", conflicts), func(b *testing.B) {
			d, sigma := workload.KeyViolations(workload.KeyConfig{
				Keys: conflicts, Violations: conflicts, Seed: 1,
			})
			inst := repair.MustInstance(d, sigma)
			q := keysQuery()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sem, err := core.ComputeDAGMode(inst, generators.Uniform{}, markov.ExploreOptions{}, core.WalkInduced)
				if err != nil {
					b.Fatal(err)
				}
				sem.OCA(q)
			}
		})
	}
}

// BenchmarkSATCertain and BenchmarkDAGCertain are the head-to-head for
// the SAT backend on the huge-sequence-space / easy-structure cliques
// family (g independent 3-fact violating key groups + 2 conflict-free
// core keys; 4^g repairs): the DAG engine computes certain answers by
// exploring every distinct database, the SAT engine by one witness-lineage
// pass sized by the conflicted facts and the query's witnesses. The DAG
// column stops where its state space explodes; the SAT column keeps
// going at sizes (4^64 repairs) no chain engine can represent, and the
// equivalence suite in internal/core proves the answers identical where
// both run.
func BenchmarkSATCertain(b *testing.B) {
	for _, groups := range []int{2, 4, 5, 22, 64} {
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			d, sigma := workload.Cliques(workload.CliqueConfig{
				Groups: groups, GroupSize: 3, Core: 2, Seed: 1,
			})
			q := keysQuery()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.ComputeCertainSAT(d, sigma, q)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Answers) != 2 {
					b.Fatalf("certain = %v", res.Answers)
				}
			}
		})
	}
}

func BenchmarkDAGCertain(b *testing.B) {
	// Each 3-fact group contributes 8 reachable sub-databases (any subset
	// survives mid-chain), so the DAG has 8^g states — the wall arrives
	// around g=5; the SAT column above continues to g=64.
	for _, groups := range []int{2, 4, 5} {
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			d, sigma := workload.Cliques(workload.CliqueConfig{
				Groups: groups, GroupSize: 3, Core: 2, Seed: 1,
			})
			inst := repair.MustInstance(d, sigma)
			q := keysQuery()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sem, err := core.ComputeDAGMode(inst, generators.Uniform{}, markov.ExploreOptions{}, core.WalkInduced)
				if err != nil {
					b.Fatal(err)
				}
				if got := sem.Certain(q); len(got) != 2 {
					b.Fatalf("certain = %v", got)
				}
			}
		})
	}
}

// BenchmarkUniformExactDAG measures the exact sequence-uniform semantics
// on the conflict-chain workload: the same DAG exploration as the
// walk-induced mode, plus the count-ratio reweighting — the mode should be
// essentially free relative to the walk-induced mode.
func BenchmarkUniformExactDAG(b *testing.B) {
	for _, facts := range []int{6, 9, 12} {
		b.Run(fmt.Sprintf("facts=%d", facts), func(b *testing.B) {
			d, sigma := workload.Chain(workload.ChainConfig{Facts: facts})
			inst := repair.MustInstance(d, sigma)
			x, y := logic.Var("x"), logic.Var("y")
			q := fo.MustQuery("Q", []logic.Term{x, y}, fo.Atom{A: logic.NewAtom("E", x, y)})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sem, err := core.ComputeDAGMode(inst, generators.Uniform{}, markov.ExploreOptions{}, core.SequenceUniform)
				if err != nil {
					b.Fatal(err)
				}
				sem.OCA(q)
			}
		})
	}
}

// BenchmarkUniformWalks is the count-guided uniform estimator end to end
// (sequence-DAG build + 200 exactly-uniform draws) on the conflict chain;
// contrast with BenchmarkEstimatorWalks, the walk-induced equivalent.
func BenchmarkUniformWalks(b *testing.B) {
	d, sigma := workload.Chain(workload.ChainConfig{Facts: 12})
	inst := repair.MustInstance(d, sigma)
	x, y := logic.Var("x"), logic.Var("y")
	q := fo.MustQuery("Q", []logic.Term{x, y}, fo.Atom{A: logic.NewAtom("E", x, y)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est := &sampling.Estimator{
			Inst: inst, Gen: generators.Uniform{}, Seed: int64(i),
			Mode: core.SequenceUniform,
		}
		if _, err := est.EstimateWithN(q, 200); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSNISWalks is the importance-sampling fallback of the uniform
// estimator end to end on a TGD chain, in the shape of perfbench's
// approx-snis task: an inclusion dependency over four rows, two of them
// dangling, n = 1246 walks (ε = 0.07, δ = 1e-5) on two workers. Each
// worker keeps a walk tree, so a prefix's extensions, weights and answers
// are derived once per worker instead of at every step of every walk.
func BenchmarkSNISWalks(b *testing.B) {
	var d *relation.Database
	var sigma *constraint.Set
	for i := int64(0); d == nil || d.Size() != 6; i++ {
		d, sigma = workload.Inclusion(workload.InclusionConfig{Rows: 4, MissingRate: 0.5, Seed: 1 + 1000*i})
	}
	inst := repair.MustInstance(d, sigma)
	x, y := logic.Var("x"), logic.Var("y")
	q := fo.MustQuery("Q", []logic.Term{x, y}, fo.Atom{A: logic.NewAtom("R", x, y)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est := &sampling.Estimator{
			Inst: inst, Gen: generators.Uniform{}, Seed: int64(i), Workers: 2,
			Mode: core.SequenceUniform,
		}
		if _, err := est.EstimateWithN(q, 1246); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSamplingWalks measures one random walk against database size;
// the per-walk cost stays polynomial as conflicts grow.
func BenchmarkSamplingWalks(b *testing.B) {
	for _, conflicts := range []int{5, 10, 20, 40} {
		b.Run(fmt.Sprintf("conflicts=%d", conflicts), func(b *testing.B) {
			d, sigma := workload.KeyViolations(workload.KeyConfig{
				Keys: conflicts * 2, Violations: conflicts, Seed: 1,
			})
			inst := repair.MustInstance(d, sigma)
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sampling.Walk(inst, generators.Uniform{}, rng, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEstimateOCA is the full Theorem 9 pipeline at the paper's
// n = 150 (ε = δ = 0.1) on the running example.
func BenchmarkEstimateOCA(b *testing.B) {
	d, sigma := workload.Preferences(workload.PreferenceConfig{
		Products: 10, Prefs: 20, ConflictRate: 0.3, Seed: 1,
	})
	inst := repair.MustInstance(d, sigma)
	x, y := logic.Var("x"), logic.Var("y")
	q := fo.MustQuery("Top", []logic.Term{x}, fo.ForAll{
		Vars: []logic.Term{y},
		F:    fo.Or{L: fo.Atom{A: logic.NewAtom("Pref", x, y)}, R: fo.Eq{L: x, R: y}},
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est := &sampling.Estimator{Inst: inst, Gen: generators.Preference{}, Seed: int64(i)}
		if _, err := est.EstimateAnswers(q, 0.1, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// rewritePlans are the three §5 experiment queries.
func rewritePlans() map[string]plan.Plan {
	return map[string]plan.Plan{
		"filter": plan.Select{
			Input: plan.Scan{Table: "orders"},
			Cond:  plan.ColEqVal{Col: "amount", Op: ">=", Val: "500"},
		},
		"join": plan.Project{
			Input: plan.Join{L: plan.Scan{Table: "orders"}, R: plan.Scan{Table: "customers"}},
			Cols:  []string{"oid", "region"},
		},
		"aggregate": plan.GroupCount{
			Input: plan.Join{L: plan.Scan{Table: "orders"}, R: plan.Scan{Table: "customers"}},
			By:    []string{"region"},
		},
	}
}

// BenchmarkRewriteOriginal times the original plans (E8 baseline).
func BenchmarkRewriteOriginal(b *testing.B) {
	oc := workload.Orders(workload.OrdersConfig{Orders: 10000, Customers: 1000, ViolationRate: 0.1, Seed: 7})
	for name, p := range rewritePlans() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.Exec(oc.Catalog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRewriteModified times the same plans after the R − R_del
// rewriting of Section 5; the paper's feasibility claim is that the ratio
// to BenchmarkRewriteOriginal stays small.
func BenchmarkRewriteModified(b *testing.B) {
	oc := workload.Orders(workload.OrdersConfig{Orders: 10000, Customers: 1000, ViolationRate: 0.1, Seed: 7})
	rng := rand.New(rand.NewSource(3))
	orders, err := oc.Catalog.Table("orders")
	if err != nil {
		b.Fatal(err)
	}
	groups := practical.KeyGroups(oc.Catalog.DB(), orders.Pred, len(orders.Cols), oc.Catalog.Key("orders"))
	rdel := practical.SampleRdel(rng, groups, practical.Policy{})
	repl := map[string]*plan.Relation{"orders": plan.FromFacts("orders_del", orders.Cols, rdel)}
	for name, p := range rewritePlans() {
		rewritten := plan.RewriteScans(p, repl)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rewritten.Exec(oc.Catalog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPracticalScheme runs the full n = 150 round scheme end to end.
func BenchmarkPracticalScheme(b *testing.B) {
	oc := workload.Orders(workload.OrdersConfig{Orders: 2000, Customers: 200, ViolationRate: 0.1, Seed: 7})
	p := plan.Distinct{Input: plan.Project{
		Input: plan.Join{L: plan.Scan{Table: "orders"}, R: plan.Scan{Table: "customers"}},
		Cols:  []string{"region"},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &practical.Runner{Catalog: oc.Catalog, Seed: int64(i)}
		if _, err := r.RunWithGuarantee(p, 0.1, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPractical measures the practical pipeline's round throughput —
// a fixed 150 rounds per iteration — across the workload scenarios: the
// orders join (compiled-CQ path), the orders filter (algebra path with an
// order comparison), and the key-violation relation the chain benchmarks
// use (shared substrate, no conversion). Sub-benchmarks with a workers
// suffix exercise the parallel round pool; their results are bit-identical
// to the sequential ones by construction.
func BenchmarkPractical(b *testing.B) {
	ordersOC := workload.Orders(workload.OrdersConfig{Orders: 2000, Customers: 200, ViolationRate: 0.1, Seed: 7})
	joinPlan := plan.Distinct{Input: plan.Project{
		Input: plan.Join{L: plan.Scan{Table: "orders"}, R: plan.Scan{Table: "customers"}},
		Cols:  []string{"region"},
	}}
	filterPlan := plan.Distinct{Input: plan.Project{
		Input: plan.Select{
			Input: plan.Scan{Table: "orders"},
			Cond:  plan.ColEqVal{Col: "amount", Op: ">=", Val: "500"},
		},
		Cols: []string{"oid"},
	}}

	kvDB, _ := workload.KeyViolations(workload.KeyConfig{Keys: 500, Violations: 100, Seed: 1})
	kvCat := plan.NewCatalogOn(kvDB)
	kvCat.MustAddTable("R", "k", "v")
	if err := kvCat.DeclareKey("R", "k"); err != nil {
		b.Fatal(err)
	}
	kvCat.Seal()
	existsPlan := plan.Distinct{Input: plan.Project{Input: plan.Scan{Table: "R"}, Cols: []string{"k"}}}

	scenarios := []struct {
		name    string
		cat     *plan.Catalog
		p       plan.Plan
		workers int
	}{
		{"orders-join", ordersOC.Catalog, joinPlan, 1},
		{"orders-filter", ordersOC.Catalog, filterPlan, 1},
		{"keyviol-exists", kvCat, existsPlan, 1},
		{"orders-join-workers=4", ordersOC.Catalog, joinPlan, 4},
		{"keyviol-exists-workers=4", kvCat, existsPlan, 4},
	}
	for _, sc := range scenarios {
		b.Run(sc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := &practical.Runner{Catalog: sc.cat, Seed: 7, Workers: sc.workers}
				if _, err := r.Run(sc.p, 150); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkViolationsFull / BenchmarkViolationsDelta are the ablation for
// the incremental violation maintenance (the Section 6 localization idea):
// recomputing V(D,Σ) from scratch after one deletion vs. maintaining it.
func BenchmarkViolationsFull(b *testing.B) {
	for _, size := range []int{100, 1000, 5000} {
		b.Run(fmt.Sprintf("facts=%d", size), func(b *testing.B) {
			d, sigma := workload.KeyViolations(workload.KeyConfig{
				Keys: size, Violations: size / 10, Seed: 1,
			})
			victim := d.Facts()[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Delete(victim)
				constraint.FindViolations(d, sigma)
				d.Insert(victim)
			}
		})
	}
}

func BenchmarkViolationsDelta(b *testing.B) {
	for _, size := range []int{100, 1000, 5000} {
		b.Run(fmt.Sprintf("facts=%d", size), func(b *testing.B) {
			d, sigma := workload.KeyViolations(workload.KeyConfig{
				Keys: size, Violations: size / 10, Seed: 1,
			})
			before := constraint.FindViolations(d, sigma)
			victim := d.Facts()[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Delete(victim)
				constraint.UpdateViolations(d, sigma, before, []relation.Fact{victim}, false)
				d.Insert(victim)
			}
		})
	}
}

// BenchmarkSurvey measures a full traversal of the repairing-sequence tree
// RS(D,Σ): every state clones bookkeeping and database, so this is the
// stress test for state/database representation.
func BenchmarkSurvey(b *testing.B) {
	for _, conflicts := range []int{3, 4, 5} {
		b.Run(fmt.Sprintf("conflicts=%d", conflicts), func(b *testing.B) {
			d, sigma := workload.KeyViolations(workload.KeyConfig{
				Keys: conflicts * 2, Violations: conflicts, Seed: 1,
			})
			inst := repair.MustInstance(d, sigma)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				repair.Survey(inst)
			}
		})
	}
}

// BenchmarkEstimatorWalks is the Estimator end to end at a fixed n = 200 on
// the key-violation workload; contrast with BenchmarkEstimateOCA which uses
// the preference generator.
func BenchmarkEstimatorWalks(b *testing.B) {
	d, sigma := workload.KeyViolations(workload.KeyConfig{Keys: 40, Violations: 20, Seed: 1})
	inst := repair.MustInstance(d, sigma)
	q := keysQuery()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est := &sampling.Estimator{Inst: inst, Gen: generators.Uniform{}, Seed: int64(i)}
		if _, err := est.EstimateWithN(q, 200); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPreferenceWalks is the Estimator end to end at a fixed n = 200
// under the preference generator, on the preference tournament of
// perfbench's approx-prefs-preference task: the one shipped generator
// whose weights read the state, here off each walk's conflict key.
func BenchmarkPreferenceWalks(b *testing.B) {
	d, sigma := workload.Preferences(workload.PreferenceConfig{Products: 8, Prefs: 12, ConflictRate: 1, Seed: 1})
	inst := repair.MustInstance(d, sigma)
	x, y := logic.Var("x"), logic.Var("y")
	q := fo.MustQuery("Q", []logic.Term{x, y}, fo.Atom{A: logic.NewAtom("Pref", x, y)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est := &sampling.Estimator{Inst: inst, Gen: generators.Preference{}, Seed: int64(i)}
		if _, err := est.EstimateWithN(q, 200); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJustifiedOps measures operation enumeration at a repairing
// state.
func BenchmarkJustifiedOps(b *testing.B) {
	d, sigma := workload.KeyViolations(workload.KeyConfig{Keys: 100, Violations: 20, Seed: 1})
	inst := repair.MustInstance(d, sigma)
	root := inst.Root()
	vs := root.Violations()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops.JustifiedOps(root.Result(), sigma, vs, inst.Base())
	}
}

// BenchmarkChainStep measures one transition: extension enumeration plus
// generator probabilities.
func BenchmarkChainStep(b *testing.B) {
	d, sigma := workload.KeyViolations(workload.KeyConfig{Keys: 100, Violations: 20, Seed: 1})
	inst := repair.MustInstance(d, sigma)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root := inst.Root()
		if _, err := markov.Step(generators.Uniform{}, root); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHomomorphism measures the join search on a path query.
func BenchmarkHomomorphism(b *testing.B) {
	for _, size := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("facts=%d", size), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			d := relation.NewDatabase()
			for i := 0; i < size; i++ {
				d.Insert(relation.NewFact("E",
					fmt.Sprintf("n%d", rng.Intn(size/2)),
					fmt.Sprintf("n%d", rng.Intn(size/2))))
			}
			x, y, z := logic.Var("x"), logic.Var("y"), logic.Var("z")
			path := []logic.Atom{logic.NewAtom("E", x, y), logic.NewAtom("E", y, z)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				relation.CountHoms(path, d, nil)
			}
		})
	}
}

// BenchmarkFOEval contrasts the CQ fast path with generic active-domain
// evaluation on the same query.
func BenchmarkFOEval(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := relation.NewDatabase()
	for i := 0; i < 300; i++ {
		d.Insert(relation.NewFact("E",
			fmt.Sprintf("n%d", rng.Intn(60)),
			fmt.Sprintf("n%d", rng.Intn(60))))
	}
	x, y, z := logic.Var("x"), logic.Var("y"), logic.Var("z")
	cq := fo.MustQuery("Path", []logic.Term{x, z},
		fo.Exists{Vars: []logic.Term{y},
			F: fo.And{
				L: fo.Atom{A: logic.NewAtom("E", x, y)},
				R: fo.Atom{A: logic.NewAtom("E", y, z)},
			}})
	// The negated variant disables the CQ fast path.
	nonCQ := fo.MustQuery("NotSink", []logic.Term{x},
		fo.Not{F: fo.Exists{Vars: []logic.Term{y}, F: fo.Atom{A: logic.NewAtom("E", x, y)}}})

	b.Run("cq-fast-path", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cq.Answers(d)
		}
	})
	b.Run("generic-eval", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nonCQ.Answers(d)
		}
	})
}

// BenchmarkFactoredExact is the ablation for the Section 6 localization
// optimization: exact semantics via conflict-component factorization. At
// k independent conflicts the monolithic chain has 3^k·k! sequences while
// the factored computation does k tiny explorations; compare with
// BenchmarkExactOCQA.
func BenchmarkFactoredExact(b *testing.B) {
	for _, conflicts := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("conflicts=%d", conflicts), func(b *testing.B) {
			d, sigma := workload.KeyViolations(workload.KeyConfig{
				Keys: conflicts, Violations: conflicts, Seed: 1,
			})
			inst := repair.MustInstance(d, sigma)
			target := inst.Initial().Facts()[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fac, err := core.ComputeFactored(inst, generators.Uniform{}, markov.ExploreOptions{})
				if err != nil {
					b.Fatal(err)
				}
				fac.FactProbability(target)
			}
		})
	}
}

// BenchmarkFactoredSampleRepair draws exact repairs from the factored
// distribution; contrast with BenchmarkSamplingWalks.
func BenchmarkFactoredSampleRepair(b *testing.B) {
	d, sigma := workload.KeyViolations(workload.KeyConfig{Keys: 80, Violations: 40, Seed: 1})
	inst := repair.MustInstance(d, sigma)
	fac, err := core.ComputeFactored(inst, generators.Uniform{}, markov.ExploreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fac.SampleRepair(rng)
	}
}

// BenchmarkFactored measures the parallel, structurally-memoized factored
// engine on an archipelago of 300 isomorphic islands (directed 6-edge
// paths, 10% of them over shuffled constant names); the canonical
// structural key sends all 300 to one exploration. "seq" is the
// sequential, uncached engine; "workers8" adds the worker pool; "cache"
// adds the isomorphism cache alone; "cache-workers8" is the full
// configuration.
func BenchmarkFactored(b *testing.B) {
	d, sigma := workload.Islands(workload.IslandsConfig{
		Islands:        300,
		FactsPerIsland: 6,
		IsoRatio:       0.9,
		Seed:           42,
	})
	inst := repair.MustInstance(d, sigma)
	inst.Root().Violations() // warm the violation cache shared by every config

	cases := []struct {
		name    string
		workers int
		nocache bool
	}{
		{"seq", 1, true},
		{"workers8", 8, true},
		{"cache", 1, false},
		{"cache-workers8", 8, false},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fac, err := core.ComputeFactoredDelta(inst.Initial(), inst.Sigma(), generators.Uniform{},
					markov.ExploreOptions{Workers: tc.workers},
					core.FactoredOptions{NoCache: tc.nocache},
					core.FactoredDelta{Part: abc.NewPartition(inst.Root().Violations())})
				if err != nil {
					b.Fatal(err)
				}
				if fac.Partition().Len() != 300 {
					b.Fatalf("components = %d", fac.Partition().Len())
				}
			}
		})
	}
}

// BenchmarkFactoredQuery measures the exact atomic-query path (marginal via
// the fact-key→component index) on a precomputed factored semantics.
func BenchmarkFactoredQuery(b *testing.B) {
	d, sigma := workload.Islands(workload.IslandsConfig{
		Islands:        300,
		FactsPerIsland: 6,
		IsoRatio:       0.9,
		Seed:           42,
	})
	inst := repair.MustInstance(d, sigma)
	fac, err := core.ComputeFactored(inst, generators.Uniform{}, markov.ExploreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	x, y := logic.Var("X"), logic.Var("Y")
	q := fo.MustQuery("Q", []logic.Term{x, y}, fo.Atom{A: logic.NewAtom("E", x, y)})
	tuple := []string{"i00000123_n002", "i00000123_n003"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fac.CP(q, tuple); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFactoredCQ measures a two-atom conjunctive probe on a
// precomputed 200-island archipelago (8-fact chains, the factored-islands
// shape): CP of the two-edge path i0_n000 → i0_n002 through the route
// ocqad's /v1/query takes, CPOrEstimate at ε = δ = 0.05. The repair
// product is far past the enumeration budget, but the tuple's witnesses
// touch island 0 only, so the witness-lineage route enumerates that
// island's repairs and answers exactly (0: a two-edge path is itself a
// violation).
func BenchmarkFactoredCQ(b *testing.B) {
	d, sigma := workload.Islands(workload.IslandsConfig{
		Islands:        200,
		FactsPerIsland: 8,
		IsoRatio:       0.9,
		Seed:           1,
	})
	fac, err := core.ComputeFactored(repair.MustInstance(d, sigma), generators.Uniform{}, markov.ExploreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	x, y, z := logic.Var("X"), logic.Var("Y"), logic.Var("Z")
	q := fo.MustQuery("Q", []logic.Term{x, z}, fo.Exists{Vars: []logic.Term{y}, F: fo.And{
		L: fo.Atom{A: logic.NewAtom("E", x, y)},
		R: fo.Atom{A: logic.NewAtom("E", y, z)},
	}})
	tuple := []string{"i00000000_n000", "i00000000_n002"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, exact, err := fac.CPOrEstimate(q, tuple, 0.05, 0.05, 1)
		if err != nil {
			b.Fatal(err)
		}
		if !exact || p.Sign() != 0 {
			b.Fatalf("CP = %s (exact %v), want exactly 0", p.RatString(), exact)
		}
	}
}

// BenchmarkServe measures the resident serving pipeline of internal/serve
// on the islands workload (400 four-fact islands, so one toggle touches
// 0.25% of the components). The sub-benchmarks bracket the design space
// per operation of a mixed stream:
//
//	scratch/10pct — the non-resident baseline: every ingest answers by
//	                recomputing violations, partition, and factored
//	                semantics from scratch on the post-delta database.
//	warm/0pct     — read-only serving from the published snapshot.
//	warm/10pct    — the resident engine: delta-scoped recomputation with
//	                the structural cache warm across deltas.
//	cold/10pct    — ablation: delta-scoped recomputation, cache disabled.
func BenchmarkServe(b *testing.B) {
	const nOps = 4096
	mix := func(ingestRatio float64) (*relation.Database, *constraint.Set, []workload.ServeOp) {
		return workload.ServeMix(workload.ServeMixConfig{
			Islands:        400,
			FactsPerIsland: 4,
			IsoRatio:       0.9,
			Ops:            nOps,
			IngestRatio:    ingestRatio,
			Seed:           42,
		})
	}

	b.Run("scratch/10pct", func(b *testing.B) {
		d, sigma, ops := mix(0.1)
		db := d.Clone()
		vs := constraint.FindViolations(db, sigma)
		part := abc.NewPartition(vs)
		fac, err := core.ComputeFactoredDelta(db, sigma, generators.Uniform{},
			markov.ExploreOptions{}, core.FactoredOptions{NoCache: true}, core.FactoredDelta{Part: part})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op := ops[i%len(ops)]
			if !op.Ingest {
				fac.FactProbability(op.Fact)
				continue
			}
			if op.Insert {
				db.Insert(op.Fact)
			} else {
				db.Delete(op.Fact)
			}
			vs = constraint.FindViolations(db, sigma)
			part = abc.NewPartition(vs)
			fac, err = core.ComputeFactoredDelta(db, sigma, generators.Uniform{},
				markov.ExploreOptions{}, core.FactoredOptions{NoCache: true}, core.FactoredDelta{Part: part})
			if err != nil {
				b.Fatal(err)
			}
		}
	})

	for _, tc := range []struct {
		name    string
		ratio   float64
		nocache bool
	}{
		{"warm/0pct", 0, false},
		{"warm/10pct", 0.1, false},
		{"cold/10pct", 0.1, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			d, sigma, ops := mix(tc.ratio)
			s, err := serve.New(d, sigma, generators.Uniform{}, serve.Options{NoCache: tc.nocache})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op := ops[i%len(ops)]
				if op.Ingest {
					if _, err := s.Ingest([]serve.Op{{Fact: op.Fact, Insert: op.Insert}}); err != nil {
						b.Fatal(err)
					}
				} else {
					s.FactProbability(op.Fact)
				}
			}
		})
	}
}

// BenchmarkServeThroughput measures the serving edge under concurrency,
// which BenchmarkServe's single stream cannot see:
//
//	queries/live-ingest — 4 reader goroutines issue atomic fact probes
//	                      while a writer goroutine streams toggles into
//	                      the server; reports queries/sec and the p50/p99
//	                      read latency under live publication churn.
//	ingest/single       — one caller, one effective toggle per publication:
//	                      the uncoalesced write throughput baseline.
//	ingest/coalesced    — 16 callers toggling disjoint islands
//	                      concurrently: queued requests fold into shared
//	                      publications (ops/publish reports the realized
//	                      batch size), so throughput must beat the
//	                      single-caller baseline.
//
// All three run on the 400-island mixed workload of BenchmarkServe.
func BenchmarkServeThroughput(b *testing.B) {
	islandsDB := func() (*relation.Database, *constraint.Set) {
		return workload.Islands(workload.IslandsConfig{
			Islands:        400,
			FactsPerIsland: 4,
			IsoRatio:       0.9,
			Seed:           42,
		})
	}
	// toggler returns a stream of always-effective single-op toggles over
	// the islands owned by one caller (island ≡ caller mod callers).
	toggler := func(d *relation.Database, caller, callers int) func() serve.Op {
		var mine []relation.Fact
		present := map[relation.Fact]bool{}
		for i := caller; i < 400; i += callers {
			f := relation.NewFact("E", fmt.Sprintf("i%08d_n002", i), fmt.Sprintf("i%08d_n003", i))
			mine = append(mine, f)
			present[f] = d.Contains(f)
		}
		k := 0
		return func() serve.Op {
			f := mine[k%len(mine)]
			k++
			op := serve.Op{Fact: f, Insert: !present[f]}
			present[f] = op.Insert
			return op
		}
	}

	b.Run("queries/live-ingest", func(b *testing.B) {
		d, sigma := islandsDB()
		s, err := serve.New(d, sigma, generators.Uniform{}, serve.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		stop := make(chan struct{})
		var writer sync.WaitGroup
		writer.Add(1)
		go func() {
			defer writer.Done()
			next := toggler(d, 0, 1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Ingest([]serve.Op{next()}); err != nil {
					return
				}
			}
		}()
		const readers = 4
		facts := d.Facts()
		lat := make([][]time.Duration, readers)
		var wg sync.WaitGroup
		b.ResetTimer()
		start := time.Now()
		for r := 0; r < readers; r++ {
			n := b.N / readers
			if r < b.N%readers {
				n++
			}
			wg.Add(1)
			go func(r, n int) {
				defer wg.Done()
				mine := make([]time.Duration, 0, n)
				idx := r
				for k := 0; k < n; k++ {
					f := facts[idx%len(facts)]
					idx += 13
					t0 := time.Now()
					s.FactProbability(f)
					mine = append(mine, time.Since(t0))
				}
				lat[r] = mine
			}(r, n)
		}
		wg.Wait()
		elapsed := time.Since(start)
		b.StopTimer()
		close(stop)
		writer.Wait()
		var all []time.Duration
		for _, l := range lat {
			all = append(all, l...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		quant := func(q float64) float64 {
			return float64(all[int(q*float64(len(all)-1))].Nanoseconds())
		}
		b.ReportMetric(float64(b.N)/elapsed.Seconds(), "queries/sec")
		b.ReportMetric(quant(0.50), "p50-ns")
		b.ReportMetric(quant(0.99), "p99-ns")
	})

	b.Run("ingest/single", func(b *testing.B) {
		d, sigma := islandsDB()
		s, err := serve.New(d, sigma, generators.Uniform{}, serve.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		next := toggler(d, 0, 1)
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if _, err := s.Ingest([]serve.Op{next()}); err != nil {
				b.Fatal(err)
			}
		}
		elapsed := time.Since(start)
		b.StopTimer()
		st := s.Stats()
		b.ReportMetric(float64(b.N)/elapsed.Seconds(), "ingests/sec")
		b.ReportMetric(float64(st.CumOps)/float64(st.Version), "ops/publish")
	})

	b.Run("ingest/coalesced", func(b *testing.B) {
		d, sigma := islandsDB()
		s, err := serve.New(d, sigma, generators.Uniform{}, serve.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		const callers = 16
		var wg sync.WaitGroup
		b.ResetTimer()
		start := time.Now()
		for c := 0; c < callers; c++ {
			n := b.N / callers
			if c < b.N%callers {
				n++
			}
			wg.Add(1)
			go func(c, n int) {
				defer wg.Done()
				next := toggler(d, c, callers)
				for k := 0; k < n; k++ {
					if _, err := s.Ingest([]serve.Op{next()}); err != nil {
						b.Error(err)
						return
					}
				}
			}(c, n)
		}
		wg.Wait()
		elapsed := time.Since(start)
		b.StopTimer()
		st := s.Stats()
		b.ReportMetric(float64(b.N)/elapsed.Seconds(), "ingests/sec")
		b.ReportMetric(float64(st.CumOps)/float64(st.Version), "ops/publish")
	})
}

// BenchmarkServeIngestScale measures one single-op publication against the
// size of the resident database: the islands workload at 400, 4,000 and
// 40,000 four-fact islands, every operation a toggle of one island's middle
// edge (an insertion merges the island's halves, a deletion splits it), one
// Ingest per operation on one worker. A publication touches one island, so
// ns/op and B/op should stay flat as the island count grows; a term that
// scales with the database shows up here first.
func BenchmarkServeIngestScale(b *testing.B) {
	for _, islands := range []int{400, 4000, 40000} {
		b.Run(fmt.Sprintf("islands=%d", islands), func(b *testing.B) {
			d, sigma, ops := workload.ServeMix(workload.ServeMixConfig{
				Islands:        islands,
				FactsPerIsland: 4,
				IsoRatio:       0.9,
				Ops:            4096,
				IngestRatio:    1,
				Seed:           42,
			})
			s, err := serve.New(d, sigma, generators.Uniform{}, serve.Options{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			// The stream's own insert/delete flags hold for one pass; the
			// presence map keeps every op effective when b.N wraps it.
			present := map[relation.Fact]bool{}
			for _, op := range ops {
				present[op.Fact] = d.Contains(op.Fact)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := ops[i%len(ops)].Fact
				present[f] = !present[f]
				if _, err := s.Ingest([]serve.Op{{Fact: f, Insert: present[f]}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
