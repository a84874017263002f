package main

// E6–E10: complexity-shape and approximation experiments.

import (
	"fmt"
	"math"
	"time"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/fo"
	"repro/internal/generators"
	"repro/internal/logic"
	"repro/internal/markov"
	"repro/internal/plan"
	"repro/internal/prob"
	"repro/internal/repair"
	"repro/internal/sampling"
	"repro/internal/workload"
)

func init() {
	register("E6", "Theorem 5 shape: exact OCQA explodes, sampling stays flat", func() error {
		fmt.Println("  conflicts | absorbing seqs | exact time | 150-sample time")
		q := existsKeyQuery()
		// The exact column now runs on the DAG-collapsed engine (the
		// uniform generator is memoryless), so points the sequence tree
		// could never finish — 8 conflicts is 3^8·8! ≈ 2.6·10^8 sequences —
		// are routine; the DAG visits only 4^8 = 65536 distinct databases.
		points := []int{1, 2, 3, 4, 5, 6, 8}
		if fullScale {
			points = append(points, 10)
		}
		for _, conflicts := range points {
			d, sigma := workload.KeyViolations(workload.KeyConfig{
				Keys: conflicts, Violations: conflicts, Seed: 1,
			})
			inst := repair.MustInstance(d, sigma)

			start := time.Now()
			sem, err := core.Compute(inst, generators.Uniform{}, markov.ExploreOptions{MaxStates: 5_000_000})
			if err != nil {
				return err
			}
			exactTime := time.Since(start)

			start = time.Now()
			est := &sampling.Estimator{Inst: inst, Gen: generators.Uniform{}, Seed: 1}
			if _, err := est.EstimateWithN(q, 150); err != nil {
				return err
			}
			sampleTime := time.Since(start)

			fmt.Printf("  %9d | %14d | %10s | %15s\n",
				conflicts, sem.AbsorbingStates, exactTime.Round(time.Microsecond), sampleTime.Round(time.Microsecond))
		}
		fmt.Println("  expected shape: absorbing sequences grow as 3^k·k! (each key conflict")
		fmt.Println("  contributes ops -α, -β, -{α,β} in any order); the DAG engine pays only")
		fmt.Println("  4^k distinct databases and sampling grows linearly.")
		return nil
	})

	register("E7", "Theorem 9: Hoeffding table and measured additive error", func() error {
		fmt.Println("  n(ε,δ) = ⌈ln(2/δ)/(2ε²)⌉:")
		for _, p := range [][2]float64{{0.1, 0.1}, {0.05, 0.1}, {0.1, 0.05}, {0.05, 0.05}, {0.02, 0.05}} {
			n, err := prob.HoeffdingSamples(p[0], p[1])
			if err != nil {
				return err
			}
			note := ""
			if p[0] == 0.1 && p[1] == 0.1 {
				note = "   <- the paper's example (n = 150)"
			}
			fmt.Printf("    ε = %-5g δ = %-5g → n = %d%s\n", p[0], p[1], n, note)
		}

		// Measured coverage on the preference example: CP(a) = 0.45 exactly.
		inst := preferenceInstance()
		q := mostPreferredQuery()
		sem, err := core.Compute(inst, generators.Preference{}, markov.ExploreOptions{MaxStates: 1000})
		if err != nil {
			return err
		}
		exact := prob.Float(sem.CP(q, []string{"a"}))
		const eps, delta = 0.1, 0.1
		trials, within := 100, 0
		maxErr := 0.0
		for i := 0; i < trials; i++ {
			est := &sampling.Estimator{Inst: inst, Gen: generators.Preference{}, Seed: int64(i)}
			e, _, err := est.EstimateTuple(q, []string{"a"}, eps, delta)
			if err != nil {
				return err
			}
			diff := math.Abs(e.P - exact)
			if diff <= eps {
				within++
			}
			if diff > maxErr {
				maxErr = diff
			}
		}
		fmt.Printf("  coverage over %d estimations of CP(a) = %.2f at ε = δ = 0.1:\n", trials, exact)
		fmt.Printf("    within ε: %d/%d = %.2f (guarantee: ≥ %.2f); max |error| = %.4f\n",
			within, trials, float64(within)/float64(trials), 1-delta, maxErr)
		return nil
	})

	register("E8", "Section 5 experiment: original vs R−R_del rewritten query", func() error {
		fmt.Println("  rows | query     | original | rewritten | ratio")
		for _, rows := range []int{1000, 5000, 20000} {
			oc := workload.Orders(workload.OrdersConfig{
				Orders: rows, Customers: rows / 10, ViolationRate: 0.1, Seed: 7,
			})
			for _, tc := range []struct {
				name string
				plan plan.Plan
			}{
				{"filter", plan.Select{
					Input: plan.Scan{Table: "orders"},
					Cond:  plan.ColEqVal{Col: "amount", Op: ">=", Val: "500"},
				}},
				{"join", plan.Project{
					Input: plan.Join{L: plan.Scan{Table: "orders"}, R: plan.Scan{Table: "customers"}},
					Cols:  []string{"oid", "region"},
				}},
				{"aggregate", plan.GroupCount{
					Input: plan.Join{L: plan.Scan{Table: "orders"}, R: plan.Scan{Table: "customers"}},
					By:    []string{"region"},
				}},
			} {
				origTime, err := timePlan(tc.plan, oc)
				if err != nil {
					return err
				}
				rewrTime, err := timeRewrittenPlan(tc.plan, oc)
				if err != nil {
					return err
				}
				ratio := float64(rewrTime) / float64(origTime)
				fmt.Printf("  %5d | %-9s | %8s | %9s | %.2fx\n",
					rows, tc.name, origTime.Round(time.Microsecond), rewrTime.Round(time.Microsecond), ratio)
			}
		}
		fmt.Println("  paper's claim: rewritten performance \"quite similar to that of the")
		fmt.Println("  original query\" — the ratio should stay near 1x.")
		return nil
	})

	register("E9", "Proposition 8: deletion-only chains never fail", func() error {
		for _, cfg := range []workload.PreferenceConfig{
			{Products: 6, Prefs: 10, ConflictRate: 0.4, Seed: 1},
			{Products: 8, Prefs: 12, ConflictRate: 0.3, Seed: 2},
		} {
			d, sigma := workload.Preferences(cfg)
			inst := repair.MustInstance(d, sigma)
			st := repair.Survey(inst)
			fmt.Printf("  preference instance (%d facts): %d complete sequences, %d failing\n",
				d.Size(), st.Complete, st.Failing)
		}
		// Contrast: the paper's insertion example does fail.
		inst := failingPaperInstance()
		st := repair.Survey(inst)
		fmt.Printf("  insertion instance {R(a)} with R→T, ¬T: %d complete, %d failing (paper: +T(a) fails)\n",
			st.Complete, st.Failing)
		return nil
	})

	register("E10", "Proposition 2: repairing sequences are short", func() error {
		fmt.Println("  conflicts | initial violations | max sequence length")
		for _, k := range []int{1, 2, 3, 4, 5} {
			d, sigma := workload.KeyViolations(workload.KeyConfig{Keys: k, Violations: k, Seed: 3})
			inst := repair.MustInstance(d, sigma)
			st := repair.Survey(inst)
			fmt.Printf("  %9d | %18d | %19d\n",
				k, 2*k, st.MaxLength)
		}
		fmt.Println("  the length is bounded by the number of conflicts (polynomial in |D|).")
		return nil
	})
}

func existsKeyQuery() *fo.Query {
	x, y := v("x"), v("y")
	return fo.MustQuery("Keys", []logic.Term{x},
		fo.Exists{Vars: []logic.Term{y}, F: fo.Atom{A: at("R", x, y)}})
}

func failingPaperInstance() *repair.Instance {
	d := relationFromFacts(fact("R", "a"))
	tgd := mustTGD(at("R", v("x")), at("T", v("x")))
	dc := mustDC(at("T", v("x")))
	return repair.MustInstance(d, newSet(tgd, dc))
}

func timePlan(p plan.Plan, oc *workload.OrdersCatalog) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < 5; i++ {
		if _, err := p.Exec(oc.Catalog); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / 5, nil
}

func timeRewrittenPlan(p plan.Plan, oc *workload.OrdersCatalog) (time.Duration, error) {
	// One fixed R_del draw; the timing compares plan shapes, not draws.
	runner := newPracticalSampler(oc)
	rewritten := plan.RewriteScans(p, runner)
	start := time.Now()
	for i := 0; i < 5; i++ {
		if _, err := rewritten.Exec(oc.Catalog); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / 5, nil
}

// fullScale enables the slow large-scale measurement points (-full).
var fullScale bool

func init() {
	register("E13", "extension: localization (Section 6) — factored exact OCQA", func() error {
		fmt.Println("  conflicts | monolithic exact | factored exact | exact fact marginal")
		for _, k := range []int{2, 4, 5, 64, 512} {
			d, sigma := workload.KeyViolations(workload.KeyConfig{Keys: k, Violations: k, Seed: 1})
			inst := repair.MustInstance(d, sigma)
			target := inst.Initial().Facts()[0]

			monoTime := "(skipped)"
			if k <= 5 {
				start := time.Now()
				if _, err := core.Compute(inst, generators.Uniform{}, markov.ExploreOptions{MaxStates: 5_000_000}); err != nil {
					return err
				}
				monoTime = time.Since(start).Round(time.Microsecond).String()
			}
			start := time.Now()
			fac, err := core.ComputeFactored(inst, generators.Uniform{}, markov.ExploreOptions{})
			if err != nil {
				return err
			}
			p := fac.FactProbability(target)
			facTime := time.Since(start).Round(time.Microsecond)
			fmt.Printf("  %9d | %16s | %14s | P(%s) = %s\n",
				k, monoTime, facTime, target, p.RatString())
		}
		fmt.Println("  independent key conflicts factor into components of 3 repairs each;")
		fmt.Println("  the factored engine answers atomic queries exactly at any scale.")
		return nil
	})
}

func init() {
	register("E14", "extension: null-based TGD insertions (Section 6)", func() error {
		fmt.Println("  R rows | grounded insertions | null insertions | grounded states | null states")
		for _, rows := range []int{2, 3, 4} {
			d, sigma := workload.Inclusion(workload.InclusionConfig{Rows: rows, MissingRate: 1.0, Seed: 1})
			grounded := repair.MustInstance(d, sigma)
			gRoot := grounded.Root()
			gIns := 0
			for _, op := range gRoot.Extensions() {
				if op.IsInsert() {
					gIns++
				}
			}
			gStats := repair.Survey(grounded)

			nulled, err := repair.NewInstanceOpts(d, sigma, repair.Options{NullInsertions: true})
			if err != nil {
				return err
			}
			nRoot := nulled.Root()
			nIns := 0
			for _, op := range nRoot.Extensions() {
				if op.IsInsert() {
					nIns++
				}
			}
			nStats := repair.Survey(nulled)
			fmt.Printf("  %6d | %19d | %15d | %15d | %11d\n",
				rows, gIns, nIns, gStats.Sequences, nStats.Sequences)
		}
		fmt.Println("  grounded mode offers |dom|^|z̄| insertions per TGD violation; the")
		fmt.Println("  null extension offers exactly one, shrinking the chain accordingly.")
		return nil
	})
}

func init() {
	register("E15", "Proposition 7 made executable: TPC decides 3-colorability", func() error {
		type graph struct {
			name  string
			nodes []string
			edges [][2]string
			want  bool
		}
		k4 := graph{name: "K4 (clique)", nodes: []string{"a", "b", "c", "d"}, want: false}
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				k4.edges = append(k4.edges, [2]string{k4.nodes[i], k4.nodes[j]})
			}
		}
		graphs := []graph{
			{name: "triangle", nodes: []string{"u", "v", "w"},
				edges: [][2]string{{"u", "v"}, {"v", "w"}, {"w", "u"}}, want: true},
			k4,
			{name: "5-cycle", nodes: []string{"1", "2", "3", "4", "5"},
				edges: [][2]string{{"1", "2"}, {"2", "3"}, {"3", "4"}, {"4", "5"}, {"5", "1"}}, want: true},
		}
		for _, g := range graphs {
			d := relationFromFacts()
			for _, n := range g.nodes {
				d.Insert(fact("Node", n))
				for _, c := range []string{"red", "green", "blue"} {
					d.Insert(fact("Color", n, c))
				}
			}
			for _, e := range g.edges {
				d.Insert(fact("Edge", e[0], e[1]))
			}
			x, y, z := v("x"), v("y"), v("z")
			key := constraint.MustEGD(
				[]logic.Atom{at("Color", x, y), at("Color", x, z)}, y, z)
			inst := repair.MustInstance(d, constraint.NewSet(key))
			fac, err := core.ComputeFactored(inst, generators.Uniform{}, markov.ExploreOptions{})
			if err != nil {
				return err
			}
			// CPOrEstimate degrades gracefully: exact while the product
			// distribution fits the enumeration budget (always, for these
			// graphs), (ε,δ)-sampled beyond it instead of erroring out.
			cp, exact, err := fac.CPOrEstimate(colorQuery(), nil, 0.05, 0.05, 15)
			if err != nil {
				return err
			}
			route := "exact"
			if !exact {
				route = "≈ sampled"
			}
			got := cp.Sign() > 0
			status := "✓"
			if got != g.want {
				status = "✗ MISMATCH"
			}
			fmt.Printf("  %-12s TPC(proper coloring) = %-5v CP = %-8s [%s] (3-colorable: %v) %s\n",
				g.name, got, cp.RatString(), route, g.want, status)
		}
		fmt.Println("  key repairs choose ≤1 color per node; 'the surviving coloring is")
		fmt.Println("  total and proper' has positive probability iff the graph is")
		fmt.Println("  3-colorable — the structure behind Proposition 7's NP-hardness.")
		return nil
	})
}

func init() {
	register("E16", "extension: DAG-collapsed exact engine vs the sequence tree", func() error {
		fmt.Println("  conflicts | tree sequences | DAG states | tree time | DAG time")
		points := []int{2, 3, 4, 5, 6, 8}
		if fullScale {
			points = append(points, 10)
		}
		for _, k := range points {
			d, sigma := workload.KeyViolations(workload.KeyConfig{Keys: k, Violations: k, Seed: 1})
			inst := repair.MustInstance(d, sigma)

			start := time.Now()
			dag, err := markov.ExploreDAG(inst, generators.Uniform{}, markov.ExploreOptions{})
			if err != nil {
				return err
			}
			dagTime := time.Since(start).Round(time.Microsecond)

			treeTime := "(skipped)"
			if k <= 5 {
				start = time.Now()
				if _, err := core.ComputeTreeMode(inst, generators.Uniform{}, markov.ExploreOptions{}, core.WalkInduced); err != nil {
					return err
				}
				treeTime = time.Since(start).Round(time.Microsecond).String()
			}
			fmt.Printf("  %9d | %14s | %10d | %9s | %8s\n",
				k, dag.Sequences, dag.States, treeTime, dagTime)
		}
		fmt.Println("  states modulo history: the memoryless uniform generator lets absorbing")
		fmt.Println("  sequences (3^k·k!) merge into distinct databases (4^k). Unlike the")
		fmt.Println("  E13 factorization this needs no locality — the preference generator of")
		fmt.Println("  Example 4 (weights spanning the whole database) collapses identically.")
		return nil
	})
}

func colorQuery() *fo.Query {
	x, y, c := v("x"), v("y"), v("c")
	total := fo.ForAll{Vars: []logic.Term{x}, F: fo.Implies{
		L: fo.Atom{A: at("Node", x)},
		R: fo.Exists{Vars: []logic.Term{c}, F: fo.Atom{A: at("Color", x, c)}},
	}}
	proper := fo.Not{F: fo.Exists{Vars: []logic.Term{x, y, c}, F: fo.Conj(
		fo.Atom{A: at("Edge", x, y)},
		fo.Atom{A: at("Color", x, c)},
		fo.Atom{A: at("Color", y, c)},
	)}}
	return fo.MustQuery("ProperColoring", nil, fo.And{L: total, R: proper})
}
