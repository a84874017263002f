// Command ocqa answers a first-order query over an inconsistent database
// under the operational CQA semantics of Calautti, Libkin and Pieris
// (PODS 2018). It computes the exact operational consistent answers
// (exponential; Theorem 5), the additive-error approximation of Theorem 9,
// or the Section 5 practical scheme (keep at most one tuple per violated
// key, evaluate the query over the copy-on-write repair R − R_del, repeat
// n = ⌈ln(2/δ)/(2ε²)⌉ times).
//
// Usage:
//
//	ocqa -db data.facts -constraints schema.rules -query query.fo \
//	     [-gen uniform|uniform-deletions|preference|trust[:seed]] \
//	     [-mode exact|factored|sat|approx|practical] [-semantics walk|uniform] \
//	     [-eps 0.1] [-delta 0.1] [-seed 1] [-workers 4] [-drop-all 0] \
//	     [-dimacs dir]
//
// File arguments also accept "inline:<text>". -semantics selects the
// distribution over complete repairing sequences: "walk" (default) is the
// PODS 2018 walk-induced semantics, "uniform" the PODS 2022 uniform
// operational semantics (every complete sequence equally likely) — exact
// in -mode exact via the sequence-count-weighted DAG, approximate in
// -mode approx via count-guided uniform draws (or importance sampling
// when the chain does not collapse). Factored mode (walk semantics,
// TGD-free constraints, local generators) repairs each conflict component
// independently on a -workers pool with a structural semantics cache
// across isomorphic components, and answers atomic queries exactly at any
// scale, and conjunctive queries too, through lineage groups: per
// candidate tuple only the components its witnesses link are enumerated.
// Practical mode derives the keys it repairs from the key-shaped
// EGDs of the constraint file and runs rounds on a worker pool; factored
// and practical results are bit-identical for any -workers. SAT mode
// computes the certain answers only (tuples with probability 1), by
// compiling "this tuple is NOT certain" to CNF per candidate — refuted
// outright when the all-deleted repair satisfies it, otherwise decided by
// an embedded CDCL solver — with no chain exploration at all, so it
// scales past any sequence-space budget; -dimacs exports the
// per-candidate formulas for external solvers.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/fo"
	"repro/internal/markov"
	"repro/internal/plan"
	"repro/internal/practical"
	"repro/internal/prob"
	"repro/internal/repair"
	"repro/internal/sampling"
	"repro/internal/sat"
)

func main() {
	var (
		dbPath    = flag.String("db", "", "database file (facts terminated by '.'), or inline:<text>")
		sigmaPath = flag.String("constraints", "", "constraint file (TGDs/EGDs/DCs), or inline:<text>")
		queryPath = flag.String("query", "", "query file (Q(X) := formula), or inline:<text>")
		genName   = flag.String("gen", "uniform", "chain generator: "+cliutil.GeneratorNames())
		mode      = flag.String("mode", "exact", "exact (full chain exploration), factored (per-component exact, Section 6 localization; atomic queries at any scale, conjunctive queries per lineage group), sat (certain answers via CNF + CDCL), approx (Theorem 9 sampling), or practical (Section 5 scheme)")
		semantics = flag.String("semantics", "walk", "distribution over complete sequences: walk (PODS '18 walk-induced) or uniform (PODS '22 sequence-uniform)")
		eps       = flag.Float64("eps", 0.1, "additive error bound ε (approx/practical mode)")
		delta     = flag.Float64("delta", 0.1, "failure probability δ (approx/practical mode)")
		seed      = flag.Int64("seed", 1, "random seed (approx/practical mode)")
		workers   = flag.Int("workers", 1, "parallel workers: DAG frontier expansion (exact), components (factored), walkers (approx), rounds (practical); results are bit-identical for any value")
		maxStates = flag.Int("max-states", 1_000_000, "exact-mode state budget (0 = unlimited)")
		nulls     = flag.Bool("nulls", false, "repair TGDs with labeled-null insertions (Section 6 extension)")
		dropAll   = flag.Float64("drop-all", 0, "practical mode: probability a violating key group keeps no tuple")
		dimacs    = flag.String("dimacs", "", "sat mode: directory to export one DIMACS CNF per candidate tuple")
	)
	flag.Parse()
	if *dbPath == "" || *sigmaPath == "" || *queryPath == "" {
		fmt.Fprintln(os.Stderr, "ocqa: -db, -constraints and -query are required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*dbPath, *sigmaPath, *queryPath, *genName, *mode, *semantics, *eps, *delta, *seed, *workers, *maxStates, *nulls, *dropAll, *dimacs); err != nil {
		fmt.Fprintln(os.Stderr, "ocqa:", err)
		os.Exit(1)
	}
}

// validModes lists every -mode value run accepts, in the order the
// usage message reports them.
var validModes = []string{"exact", "factored", "sat", "approx", "practical"}

func run(dbPath, sigmaPath, queryPath, genName, mode, semantics string, eps, delta float64, seed int64, workers, maxStates int, nulls bool, dropAll float64, dimacsDir string) error {
	known := false
	for _, m := range validModes {
		known = known || mode == m
	}
	if !known {
		return fmt.Errorf("unknown -mode %q: valid modes are %s", mode, strings.Join(validModes, ", "))
	}
	semMode, err := core.ParseSemanticsMode(semantics)
	if err != nil {
		return err
	}
	d, err := cliutil.LoadDatabase(dbPath)
	if err != nil {
		return err
	}
	sigma, err := cliutil.LoadConstraints(sigmaPath)
	if err != nil {
		return err
	}
	q, err := cliutil.LoadQuery(queryPath)
	if err != nil {
		return err
	}
	gen, err := cliutil.ResolveGenerator(genName, d)
	if err != nil {
		return err
	}
	inst, err := repair.NewInstanceOpts(d, sigma, repair.Options{NullInsertions: nulls})
	if err != nil {
		return err
	}

	fmt.Printf("database: %d facts, %d constraints; consistent: %v\n",
		d.Size(), sigma.Len(), inst.Consistent())
	fmt.Printf("query: %s\ngenerator: %s\nsemantics: %s\n\n", q, gen.Name(), semMode)

	switch mode {
	case "exact":
		sem, err := core.ComputeMode(inst, gen, markov.ExploreOptions{MaxStates: maxStates, Workers: workers}, semMode)
		if err != nil {
			return err
		}
		fmt.Printf("chain: %s complete sequences over %d absorbing states (%d failing); success mass %s\n",
			sem.TotalSequences, sem.AbsorbingStates, sem.FailingStates, prob.Format(sem.SuccessP))
		fmt.Printf("operational repairs: %d\n\n", len(sem.Repairs))
		fmt.Print(sem.OCA(q))
		return nil

	case "factored":
		if semMode != core.WalkInduced {
			return fmt.Errorf("-mode factored computes the walk-induced semantics; use -mode exact with -semantics uniform")
		}
		local, ok := gen.(core.LocalGenerator)
		if !ok {
			return fmt.Errorf("generator %s is not local; factored mode needs per-component weights (uniform, uniform-deletions, trust)", gen.Name())
		}
		fac, err := core.ComputeFactored(inst, local, markov.ExploreOptions{MaxStates: maxStates, Workers: workers})
		if err != nil {
			return err
		}
		fmt.Printf("factored chain: %d conflict components, %d untouched facts; %s distinct repairs\n",
			fac.Partition().Len(), fac.Untouched.Size(), fac.NumRepairs())
		if fac.CacheHits+fac.CacheMisses > 0 {
			fmt.Printf("structural cache: %d explorations, %d components served by renaming\n",
				fac.CacheMisses, fac.CacheHits)
		}
		fmt.Println()
		as, err := fac.OCA(q)
		if err != nil {
			if errors.Is(err, core.ErrEnumerationBudget) {
				return fmt.Errorf("%w\n(a query whose witnesses link too many components, or that is not conjunctive: use -mode approx)", err)
			}
			return err
		}
		fmt.Print(as)
		return nil

	case "sat":
		if nulls {
			return fmt.Errorf("-mode sat reasons over deletion-only repairs of key EGDs; -nulls needs -mode exact")
		}
		enc, err := sat.NewEncoder(d, sigma, sat.Options{})
		if err != nil {
			if errors.Is(err, sat.ErrUnsupportedConstraints) {
				return fmt.Errorf("%w\n(-mode sat needs every constraint to be a key-shaped EGD; use -mode exact for general Σ)", err)
			}
			return err
		}
		res, err := enc.CertainAnswers(q)
		if err != nil {
			if errors.Is(err, sat.ErrUnsupportedQuery) {
				return fmt.Errorf("%w\n(-mode sat handles conjunctive queries whose output positions are all constrained; use -mode exact)", err)
			}
			return err
		}
		fmt.Printf("sat encoding: %d violating groups, %d conflicted facts; base CNF %d vars, %d clauses\n",
			res.Groups, enc.ConflictFacts(), res.Vars, res.Clauses)
		fmt.Printf("candidates: %d witnessed tuples; %d certain via a conflict-free witness, %d refuted by the all-deleted repair, %d decided by the solver\n",
			res.Candidates, res.Immediate, res.Refuted, res.Solved)
		if res.Solved > 0 {
			fmt.Printf("solver: %d decisions, %d propagations, %d conflicts, %d learned, %d restarts\n",
				res.Stats.Decisions, res.Stats.Propagations, res.Stats.Conflicts, res.Stats.Learned, res.Stats.Restarts)
		}
		if dimacsDir != "" {
			if err := exportDIMACS(enc, q, res.CandidateTuples, dimacsDir); err != nil {
				return err
			}
			fmt.Printf("dimacs: wrote %d candidate formulas to %s\n", len(res.CandidateTuples), dimacsDir)
		}
		fmt.Println()
		if len(res.Answers) == 0 {
			fmt.Printf("no certain answers for %s\n", q)
			return nil
		}
		fmt.Printf("certain answers for %s (probability 1 under every full-support generator, both semantics):\n", q)
		for _, tup := range res.Answers {
			fmt.Printf("  (%s) : 1\n", joinTuple(tup))
		}
		return nil

	case "approx":
		est := &sampling.Estimator{Inst: inst, Gen: gen, Seed: seed, Workers: workers, Mode: semMode}
		run, err := est.EstimateAnswers(q, eps, delta)
		if err != nil {
			return err
		}
		fmt.Printf("samples: n = %d (ε = %g, δ = %g); %d successful, %d failing walks\n",
			run.N, eps, delta, run.SuccessfulWalks, run.FailingWalks)
		switch {
		case run.TotalSequences != nil:
			fmt.Printf("uniform sampler: count-guided exact draws over %s complete sequences\n\n", run.TotalSequences)
		case run.Weighted:
			fmt.Printf("uniform sampler: importance-sampling fallback (no (ε,δ) guarantee); effective sample size %.1f\n\n", run.ESS)
		default:
			fmt.Println()
		}
		if len(run.Estimates) == 0 {
			fmt.Println("no tuple was observed in any successful repair")
			return nil
		}
		fmt.Printf("approximate OCA for %s:\n", q)
		for _, e := range run.Estimates {
			fmt.Printf("  (%s) : %.4f  (count %d/%d)\n",
				joinTuple(e.Tuple), e.P, e.Count, run.N)
		}
		if run.FailingWalks > 0 {
			fmt.Println("\nnote: failing walks present; the conditional (ratio) estimates are:")
			for _, e := range run.Estimates {
				fmt.Printf("  (%s) : %.4f\n", joinTuple(e.Tuple), e.Conditional)
			}
		}
		return nil

	case "practical":
		if semMode != core.WalkInduced {
			return fmt.Errorf("-mode practical estimates the walk-induced semantics only; use -mode exact or -mode approx with -semantics uniform")
		}
		if dropAll < 0 || dropAll > 1 {
			return fmt.Errorf("-drop-all must be a probability in [0, 1], got %g", dropAll)
		}
		cat := plan.NewCatalogOn(d)
		keyed, unrecognized := cat.DeriveKeys(sigma)
		if len(keyed) == 0 {
			return fmt.Errorf("practical mode needs at least one key-shaped EGD (R(x̄), R(ȳ) → xi = yi) in the constraints")
		}
		if unrecognized > 0 {
			fmt.Printf("note: %d of %d constraints are not key EGDs; the practical scheme repairs key violations only\n",
				unrecognized, sigma.Len())
		}
		r := &practical.Runner{
			Catalog: cat,
			Policy:  practical.Policy{DropAll: dropAll},
			Seed:    seed,
			Workers: workers,
		}
		res, err := r.RunQueryWithGuarantee(q, eps, delta)
		if err != nil {
			return err
		}
		fmt.Printf("practical scheme: n = %d rounds (ε = %g, δ = %g), %d keyed tables, %d violating groups, drop-all %g\n\n",
			res.N, eps, delta, len(keyed), res.Groups, dropAll)
		if len(res.Tuples) == 0 {
			fmt.Println("no tuple was observed in any round")
			return nil
		}
		fmt.Printf("approximate answer frequencies for %s:\n", q)
		for _, tf := range res.Tuples {
			fmt.Printf("  (%s) : %.4f  (count %d/%d)\n", joinTuple(tf.Row), tf.P, tf.Count, res.N)
		}
		return nil

	default:
		// Unreachable: run validates mode against validModes up front.
		return fmt.Errorf("unknown -mode %q: valid modes are %s", mode, strings.Join(validModes, ", "))
	}
}

// exportDIMACS writes one DIMACS file per candidate tuple so the "tuple
// is NOT certain" formulas can be handed to an external solver as a
// cross-check of the embedded one.
func exportDIMACS(enc *sat.Encoder, q *fo.Query, tuples [][]string, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, tup := range tuples {
		path := filepath.Join(dir, fmt.Sprintf("candidate_%03d.cnf", i))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := enc.WriteTupleDIMACS(f, q, tup); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func joinTuple(tuple []string) string {
	out := ""
	for i, c := range tuple {
		if i > 0 {
			out += ", "
		}
		out += c
	}
	return out
}
