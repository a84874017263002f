package main

import (
	"fmt"
	"strings"

	"repro/internal/constraint"
	"repro/internal/logic"
	"repro/internal/parse"
	"repro/internal/relation"
	"repro/internal/workload"

	"repro/perfbench/inject"
)

// approxEps is the additive error of every sampling task. approxDelta is
// its failure probability per tuple: the answer-approx tasks with a
// guarantee check fewer than 100 tuples in all, so by the union bound a
// run fails a correct engine with probability below 100·10⁻⁵ = 10⁻³.
const (
	approxEps   = 0.07
	approxDelta = 1e-5
	// snisTol is the tolerance of the importance-sampling fallback, which
	// has no (ε,δ) guarantee; it is checked at twice approxEps.
	snisTol = 2 * approxEps
)

// dataset returns a function that renders a database and its constraints
// to files named after name, so a generator's two results pass straight
// in.
func (in *inputs) dataset(name string) func(*relation.Database, *constraint.Set) (string, string) {
	return func(db *relation.Database, sigma *constraint.Set) (string, string) {
		return in.put(name+".facts", parse.RenderDatabase(db)), in.put(name+".rules", parse.RenderConstraints(upperVars(sigma)))
	}
}

// upperVars returns sigma with every variable renamed to its upper-case
// name. The workload generators name variables in lower case, which the
// text syntax reads back as constants, so their sets do not survive
// rendering as they are.
func upperVars(sigma *constraint.Set) *constraint.Set {
	term := func(t logic.Term) logic.Term {
		if t.IsVar() {
			return logic.Var(strings.ToUpper(t.Name()))
		}
		return t
	}
	atoms := func(as []logic.Atom) []logic.Atom {
		out := make([]logic.Atom, len(as))
		for i, a := range as {
			args := make([]logic.Term, len(a.Args))
			for j, t := range a.Args {
				args[j] = term(t)
			}
			out[i] = logic.Atom{Pred: a.Pred, Args: args}
		}
		return out
	}
	var cs []*constraint.Constraint
	for _, c := range sigma.All() {
		switch c.Kind() {
		case constraint.TGD:
			cs = append(cs, constraint.MustTGD(atoms(c.Body()), atoms(c.Head())))
		case constraint.EGD:
			l, r := c.Equality()
			cs = append(cs, constraint.MustEGD(atoms(c.Body()), term(l), term(r)))
		default:
			cs = append(cs, constraint.MustDC(atoms(c.Body())))
		}
	}
	return constraint.NewSet(cs...)
}

// query validates and renders a query to a file.
func (in *inputs) query(name, text string) string {
	q, err := parse.Query(text)
	if err != nil {
		if in.err == nil {
			in.err = fmt.Errorf("query %s: %w", name, err)
		}
		return ""
	}
	return in.put(name+".query", parse.RenderQuery(q))
}

// paperExample is the running example of the paper (Example 2): product
// preferences with the asymmetry constraint, answered under the preference
// generator, with CP(a) = 9/20.
const paperExample = "Pref(a,b). Pref(a,c). Pref(a,d). Pref(b,a). Pref(b,d). Pref(c,a).\n"

// exactTasks is answer-exact's task list. The four exact engines each take
// about a quarter of a pass: the walk-induced DAG (KeyViolations and the
// paper example), the sequence-uniform DAG (Chain), the factored engine
// (Islands) and the SAT engine (Cliques and an inject catalog).
func (b *bench) exactTasks(in *inputs) []*task {
	s := b.seed
	var tasks []*task

	kdb, ksig := in.dataset("keys")(workload.KeyViolations(workload.KeyConfig{Keys: 10, Violations: 6, Seed: s}))
	kq := in.query("keys", "Q(X) := exists Y: R(X, Y).")
	tasks = append(tasks, &task{name: "exact-keys", engine: "exact-walk", db: kdb, sigma: ksig, query: kq,
		spec: spec{mode: "exact"},
		ref:  b.sameAs(kdb, ksig, kq, spec{mode: "factored"})})

	pdb := in.put("paper.facts", paperExample)
	psig := in.put("paper.rules", "Pref(X, Y), Pref(Y, X) -> false.\n")
	pq := in.query("paper", "Q(X) := forall Y: (Pref(X, Y) | X = Y).")
	paper := &task{name: "exact-paper", engine: "exact-walk", db: pdb, sigma: psig, query: pq,
		spec: spec{mode: "exact", gen: "preference"},
		ref:  b.known(answers{"(a)": "9/20"})}
	tasks = append(tasks, paper)

	cdb, csig := in.dataset("chain")(workload.Chain(workload.ChainConfig{Facts: 12}))
	cq := in.query("chain", "Q(X, Y) := E(X, Y).")
	tasks = append(tasks, &task{name: "exact-uniform-chain", engine: "exact-uniform", db: cdb, sigma: csig, query: cq,
		spec: spec{mode: "exact", semantics: "uniform"},
		ref: b.within(approxEps, cdb, csig, cq, spec{mode: "approx", semantics: "uniform",
			eps: approxEps, delta: approxDelta, seed: s, workers: b.workers})})

	// The factored query asks for the successors of one node of the last
	// (shuffled, so structural-cache-missing) island; its reference is the
	// monolithic exact engine on that island alone, since islands repair
	// independently.
	const islands, perIsland = 200, 8
	idb, isig := workload.Islands(workload.IslandsConfig{Islands: islands, FactsPerIsland: perIsland, IsoRatio: 0.9, Seed: s})
	idbPath, isigPath := in.dataset("islands")(idb, isig)
	prefix := fmt.Sprintf("i%08d_", islands-1)
	one := relation.NewDatabase()
	var node string
	for _, f := range idb.Facts() {
		if args := f.ArgNames(); strings.HasPrefix(args[0], prefix) {
			one.Insert(f)
			if node == "" {
				node = args[0]
			}
		}
	}
	odb, _ := in.dataset("island")(one, isig)
	iq := in.query("islands", fmt.Sprintf("Q(Y) := E(%s, Y).", node))
	tasks = append(tasks, &task{name: "factored-islands", engine: "factored", db: idbPath, sigma: isigPath, query: iq,
		spec: spec{mode: "factored", workers: b.workers},
		ref:  b.sameAs(odb, isigPath, iq, spec{mode: "exact"})})

	qdb, qsig := in.dataset("cliques")(workload.Cliques(workload.CliqueConfig{Groups: 30, GroupSize: 3, Core: 10, Seed: s}))
	qq := in.query("cliques", "Q(X, Y) := R(X, Y).")
	tasks = append(tasks, &task{name: "sat-cliques", engine: "sat", db: qdb, sigma: qsig, query: qq,
		spec: spec{mode: "sat"},
		ref:  b.certainOf(qdb, qsig, qq, spec{mode: "factored"})})

	cat, err := inject.Generate(inject.Config{Tables: 2, Keys: 300, Rate: 0.2,
		Sizes:       []inject.SizeWeight{{Size: 2, Weight: 0.6}, {Size: 3, Weight: 0.3}, {Size: 4, Weight: 0.1}},
		Correlation: 0.5, Seed: s})
	if err != nil {
		in.err = err
		return nil
	}
	jdb, jsig := in.dataset("inject")(cat.DB, cat.Sigma)
	jq := in.query("inject", "Q(X) := exists Y, Z: (T1(X, Y) & T2(X, Z)).")
	clean := answers{}
	for k := range cat.GroupSize[0] {
		if cat.Clean(k) {
			clean["("+inject.KeyName(k)+")"] = "1"
		}
	}
	tasks = append(tasks, &task{name: "sat-inject", engine: "sat", db: jdb, sigma: jsig, query: jq,
		spec: spec{mode: "sat"},
		ref:  b.known(clean)})

	// The paper example runs twice per pass: an odd task count keeps the
	// median answer inside one task's distribution instead of on the
	// boundary between two.
	return append(tasks, paper)
}

// approxTasks is answer-approx's task list: the sampling routes, all on
// nproc workers.
func (b *bench) approxTasks(in *inputs) []*task {
	s := b.seed
	w := b.workers
	var tasks []*task
	approx := func(semantics string) spec {
		return spec{mode: "approx", semantics: semantics, eps: approxEps, delta: approxDelta, seed: s, workers: w}
	}

	kdb, ksig := in.dataset("keys")(workload.KeyViolations(workload.KeyConfig{Keys: 12, Violations: 8, Seed: s}))
	kq := in.query("keys", "Q(X) := exists Y: R(X, Y).")
	tasks = append(tasks, &task{name: "approx-keys", engine: "sampling-walk", db: kdb, sigma: ksig, query: kq,
		spec: approx("walk"),
		ref:  b.within(approxEps, kdb, ksig, kq, spec{mode: "factored"})})

	pdb, psig := in.dataset("prefs")(workload.Preferences(workload.PreferenceConfig{Products: 8, Prefs: 12, ConflictRate: 1, Seed: s}))
	pq := in.query("prefs", "Q(X, Y) := Pref(X, Y).")
	tasks = append(tasks, &task{name: "approx-prefs", engine: "sampling-walk", db: pdb, sigma: psig, query: pq,
		spec: approx("walk"),
		ref:  b.within(approxEps, pdb, psig, pq, spec{mode: "factored"})})
	// The preference generator is not local, so its reference is the
	// monolithic exact engine.
	pref := approx("walk")
	pref.gen = "preference"
	tasks = append(tasks, &task{name: "approx-prefs-preference", engine: "sampling-walk", db: pdb, sigma: psig, query: pq,
		spec: pref,
		ref:  b.within(approxEps, pdb, psig, pq, spec{mode: "exact", gen: "preference"})})

	cdb, csig := in.dataset("chain")(workload.Chain(workload.ChainConfig{Facts: 9}))
	cq := in.query("chain", "Q(X, Y) := E(X, Y).")
	tasks = append(tasks, &task{name: "approx-uniform-chain", engine: "sampling-uniform", db: cdb, sigma: csig, query: cq,
		spec: approx("uniform"),
		ref:  b.within(approxEps, cdb, csig, cq, spec{mode: "exact", semantics: "uniform"})})

	// Half the rows dangle: the seed is advanced until exactly two of four
	// do, so every run samples the same shape.
	var inc *relation.Database
	var incSigma *constraint.Set
	for i := int64(0); inc == nil || inc.Size() != 6; i++ {
		inc, incSigma = workload.Inclusion(workload.InclusionConfig{Rows: 4, MissingRate: 0.5, Seed: s + 1000*i})
	}
	ndb, nsig := in.dataset("inclusion")(inc, incSigma)
	nq := in.query("inclusion", "Q(X, Y) := R(X, Y).")
	tasks = append(tasks, &task{name: "approx-snis", engine: "sampling-snis", db: ndb, sigma: nsig, query: nq,
		spec: approx("uniform"),
		ref:  b.within(snisTol, ndb, nsig, nq, spec{mode: "exact", semantics: "uniform"})})

	// Size-2 groups under drop-all 1/3 are exactly the walk-induced
	// semantics of the uniform generator, so this practical task has an
	// exact reference; eight violating groups keep its product
	// enumeration small.
	pairs, err := inject.Generate(inject.Config{Tables: 2, Keys: 16, Rate: 0.25,
		Sizes: []inject.SizeWeight{{Size: 2, Weight: 1}}, Correlation: 0.5, Seed: s})
	if err != nil {
		in.err = err
		return nil
	}
	adb, asig := in.dataset("pairs")(pairs.DB, pairs.Sigma)
	aq := in.query("pairs", "Q(X) := exists Y, Z: (T1(X, Y) & T2(X, Z)).")
	tasks = append(tasks, &task{name: "practical-pairs", engine: "practical", db: adb, sigma: asig, query: aq,
		spec: spec{mode: "practical", eps: approxEps, delta: approxDelta, seed: s, workers: w, dropAll: 1.0 / 3},
		ref:  b.within(approxEps, adb, asig, aq, spec{mode: "factored"})})

	mixed, err := inject.Generate(inject.Config{Tables: 3, Keys: 40, Rate: 0.2,
		Sizes:       []inject.SizeWeight{{Size: 2, Weight: 0.5}, {Size: 3, Weight: 0.3}, {Size: 4, Weight: 0.2}},
		Correlation: 0.5, Seed: s})
	if err != nil {
		in.err = err
		return nil
	}
	mdb, msig := in.dataset("inject")(mixed.DB, mixed.Sigma)
	mq := in.query("inject", "Q(X) := exists Y, Z, U: ((T1(X, Y) & T2(X, Z)) & T3(X, U)).")
	mspec := spec{mode: "practical", eps: approxEps, delta: approxDelta, seed: s, workers: w}
	single := mspec
	single.workers = 1
	tasks = append(tasks, &task{name: "practical-inject", engine: "practical", db: mdb, sigma: msig, query: mq,
		spec: mspec,
		ref:  b.sameAs(mdb, msig, mq, single)})
	return tasks
}
