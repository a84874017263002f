package practical

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/fo"
	"repro/internal/intern"
	"repro/internal/plan"
	"repro/internal/prob"
	"repro/internal/relation"
)

// Policy controls how a violating key group is repaired in one round.
type Policy struct {
	// DropAll is the probability that a violating group keeps no tuple at
	// all (the introduction's "trust neither source" case). Zero reproduces
	// the classical keep-exactly-one scheme.
	DropAll float64
}

// KeyGroups returns the groups of facts of pred with the given arity that
// agree on the key argument positions and have more than one member — the
// violating groups the per-round repair scheme resolves. It is
// relation.KeyViolatingGroups (which also feeds the SAT certain-answer
// compiler), kept here under its historical name.
func KeyGroups(db *relation.Database, pred intern.Sym, arity int, keyPos []int) [][]relation.Fact {
	return relation.KeyViolatingGroups(db, pred, arity, keyPos)
}

// SampleRdel draws one R_del from precomputed violating groups: for every
// group, with probability pol.DropAll all members are deleted; otherwise
// one member is kept uniformly at random and the rest are deleted.
func SampleRdel(rng *rand.Rand, groups [][]relation.Fact, pol Policy) []relation.Fact {
	return sampleRdelInto(rng, groups, pol, nil)
}

func sampleRdelInto(rng *rand.Rand, groups [][]relation.Fact, pol Policy, dst []relation.Fact) []relation.Fact {
	for _, g := range groups {
		keep := drawKeep(rng, len(g), pol)
		for i, f := range g {
			if i != keep {
				dst = append(dst, f)
			}
		}
	}
	return dst
}

// drawKeep draws which member of a violating group of the given size
// survives one round: -1 (the group is dropped whole) with probability
// pol.DropAll, otherwise a uniform member. Every round of both evaluation
// paths draws through it, so they consume the RNG identically.
func drawKeep(rng *rand.Rand, size int, pol Policy) int {
	if pol.DropAll <= 0 || rng.Float64() >= pol.DropAll {
		return rng.Intn(size)
	}
	return -1
}

// TupleFreq is an output tuple with its frequency over the n rounds.
type TupleFreq struct {
	Row   []string
	Count int
	P     float64 // Count / n — the approximation of CP
}

// Result is the outcome of a practical-scheme run.
type Result struct {
	N          int
	Eps, Delta float64
	// Groups is the number of violating key groups across the keyed
	// tables: the groups every round resolves.
	Groups int
	Tuples []TupleFreq
}

// Lookup returns the frequency entry for a row (zero entry when absent).
func (r *Result) Lookup(row []string) TupleFreq {
	for _, t := range r.Tuples {
		if slices.Equal(t.Row, row) {
			return t
		}
	}
	return TupleFreq{Row: row}
}

// Runner executes the scheme against a catalog.
type Runner struct {
	Catalog *plan.Catalog
	Policy  Policy
	// Seed makes runs reproducible: every round's RNG is derived from
	// (Seed, round index), so a run is bit-identical for a fixed seed no
	// matter how the rounds are scheduled.
	Seed int64
	// Workers is the number of concurrent round evaluators (≤ 1 means
	// sequential). Round RNGs are per-round and counts are merged, so the
	// result is bit-identical for every worker count.
	Workers int
}

// Run executes n rounds of the scheme for the query plan and returns the
// per-tuple frequencies. Output rows are deduplicated within each round
// (the scheme counts whether a tuple is in the round's answer, not how
// many times). Conjunctive plans are compiled to a query and run as
// RunQuery; everything else evaluates through the plan algebra on each
// round's repaired database.
func (r *Runner) Run(p plan.Plan, n int) (*Result, error) {
	if q, ok := plan.AsQuery(p, r.Catalog); ok {
		return r.RunQuery(q, n)
	}
	return r.runRounds(r.planEval(p), n)
}

// RunQuery executes the scheme for a first-order query on the catalog's
// database — the unified-substrate path with no plan at all. A conjunctive
// query whose output variables all occur in its body is answered from its
// witness lineage (fo.Query.Lineage), built once over the whole database
// with the violating groups' facts as the conflicted list: each round only
// marks its R_del and counts the candidates with a surviving witness. Any
// other query is evaluated over each round's repaired database.
func (r *Runner) RunQuery(q *fo.Query, n int) (*Result, error) {
	g, err := r.keyGroups(n)
	if err != nil {
		return nil, err
	}
	conflicted, members := g.conflicted()
	if lin, ok := q.Lineage(g.base, conflicted); ok {
		return r.lineageRounds(g, lin, len(conflicted), members, n), nil
	}
	return r.evalRounds(g, r.queryEval(q), n)
}

// RunWithGuarantee computes n from (ε, δ) via the Hoeffding bound and runs
// the scheme; for ε = δ = 0.1 this is the paper's n = 150.
func (r *Runner) RunWithGuarantee(p plan.Plan, eps, delta float64) (*Result, error) {
	n, err := prob.HoeffdingSamples(eps, delta)
	if err != nil {
		return nil, err
	}
	res, rerr := r.Run(p, n)
	if rerr != nil {
		return nil, rerr
	}
	res.Eps, res.Delta = eps, delta
	return res, nil
}

// RunQueryWithGuarantee is RunWithGuarantee for a first-order query.
func (r *Runner) RunQueryWithGuarantee(q *fo.Query, eps, delta float64) (*Result, error) {
	n, err := prob.HoeffdingSamples(eps, delta)
	if err != nil {
		return nil, err
	}
	res, rerr := r.RunQuery(q, n)
	if rerr != nil {
		return nil, rerr
	}
	res.Eps, res.Delta = eps, delta
	return res, nil
}

// roundEval evaluates one round's repaired database, calling emit once per
// distinct answer tuple; the tuple slice may be reused between calls.
type roundEval func(db *relation.Database, emit func(tuple []intern.Sym)) error

func (r *Runner) queryEval(q *fo.Query) roundEval {
	return func(db *relation.Database, emit func(tuple []intern.Sym)) error {
		q.ForEachAnswerSyms(db, emit)
		return nil
	}
}

func (r *Runner) planEval(p plan.Plan) roundEval {
	return func(db *relation.Database, emit func(tuple []intern.Sym)) error {
		out, err := p.Exec(r.Catalog.With(db))
		if err != nil {
			return err
		}
		seen := make(map[string]bool, len(out.Rows))
		var buf [64]byte
		for _, row := range out.Rows {
			k := string(intern.PackSyms(buf[:0], row))
			if !seen[k] {
				seen[k] = true
				emit(row)
			}
		}
		return nil
	}
}

// roundGroups is the fixed input of a run: the sealed database and its
// violating key groups per keyed table, in KeyedTables order. Groups are
// immutable across rounds, so they are enumerated exactly once per run
// instead of once per round.
type roundGroups struct {
	base   *relation.Database
	tables [][][]relation.Fact
	count  int
}

// keyGroups validates n, seals the catalog's database — so every round
// clones an indexed snapshot in O(1) and the group enumeration reads
// index buckets; the runner is the only writer during a run by contract —
// and enumerates the violating groups.
func (r *Runner) keyGroups(n int) (*roundGroups, error) {
	if n <= 0 {
		return nil, fmt.Errorf("practical: need at least one round, got %d", n)
	}
	g := &roundGroups{base: r.Catalog.DB()}
	g.base.Seal()
	for _, table := range r.Catalog.KeyedTables() {
		t, err := r.Catalog.Table(table)
		if err != nil {
			return nil, err
		}
		groups := KeyGroups(g.base, t.Pred, len(t.Cols), r.Catalog.Key(table))
		g.tables = append(g.tables, groups)
		g.count += len(groups)
	}
	return g, nil
}

// conflicted lists the distinct facts of the violating groups and, for
// every group in draw order, its members' positions in that list.
func (g *roundGroups) conflicted() ([]relation.Fact, [][]int) {
	var facts []relation.Fact
	var members [][]int
	pos := map[relation.Fact]int{}
	for _, groups := range g.tables {
		for _, group := range groups {
			m := make([]int, len(group))
			for j, f := range group {
				i, ok := pos[f]
				if !ok {
					i = len(facts)
					pos[f] = i
					facts = append(facts, f)
				}
				m[j] = i
			}
			members = append(members, m)
		}
	}
	return facts, members
}

// workers is the number of round evaluators a run of n rounds uses.
func (r *Runner) workers(n int) int { return min(max(r.Workers, 1), n) }

// shareRounds splits the n rounds into contiguous shares over
// r.workers(n) goroutines, runs body(w, lo, hi) on each share
// concurrently, and waits. Each round's randomness is a pure function of
// (Seed, round index), never of the worker that runs the round:
// partitioning the same n rounds across any number of workers draws the
// same n repairs, and merged tallies are sums, so runs are bit-identical
// for every Workers value.
func (r *Runner) shareRounds(n int, body func(w, lo, hi int)) {
	workers := r.workers(n)
	var wg sync.WaitGroup
	lo := 0
	for w := 0; w < workers; w++ {
		share := n / workers
		if w < n%workers {
			share++
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			body(w, lo, hi)
		}(w, lo, lo+share)
		lo += share
	}
	wg.Wait()
}

// lineageRounds runs the n rounds of a conjunctive query over its witness
// lineage: a round marks the facts its draw deletes in the worker's dead
// set and counts, by candidate index, the candidates that still answer.
// No round copies or evaluates a database.
func (r *Runner) lineageRounds(g *roundGroups, lin *fo.Lineage, nConflicted int, members [][]int, n int) *Result {
	counts := make([][]int, r.workers(n))
	r.shareRounds(n, func(w, lo, hi int) {
		tally := make([]int, len(lin.Candidates))
		dead := make([]bool, nConflicted)
		src := &prob.SplitMix{}
		rng := rand.New(src)
		count := func(c int) { tally[c]++ }
		for round := lo; round < hi; round++ {
			src.ReseedAt(r.Seed, round)
			clear(dead)
			for _, m := range members {
				keep := drawKeep(rng, len(m), r.Policy)
				for j, i := range m {
					if j != keep {
						dead[i] = true
					}
				}
			}
			lin.ForEachAnswer(dead, count)
		}
		counts[w] = tally
	})
	res := &Result{N: n, Groups: g.count}
	for c, cand := range lin.Candidates {
		total := 0
		for _, tally := range counts {
			total += tally[c]
		}
		if total > 0 {
			res.Tuples = append(res.Tuples, tupleFreq(intern.Names(cand.Tuple), total, n))
		}
	}
	sortTuples(res.Tuples)
	return res
}

// tallyCell accumulates one tuple's observations across rounds.
type tallyCell struct {
	count int
	row   []string
}

type roundTally struct {
	cells map[string]*tallyCell
	err   error
}

// runRounds runs the n rounds on repaired copies of the database, each
// evaluated by eval.
func (r *Runner) runRounds(eval roundEval, n int) (*Result, error) {
	g, err := r.keyGroups(n)
	if err != nil {
		return nil, err
	}
	return r.evalRounds(g, eval, n)
}

// evalRounds is the clone-and-evaluate round: R − R_del is a copy-on-write
// clone of the sealed database, evaluated by eval.
func (r *Runner) evalRounds(g *roundGroups, eval roundEval, n int) (*Result, error) {
	tallies := make([]roundTally, r.workers(n))
	r.shareRounds(n, func(w, lo, hi int) {
		t := &tallies[w]
		t.cells = map[string]*tallyCell{}
		src := &prob.SplitMix{}
		rng := rand.New(src)
		var dels []relation.Fact
		var packBuf [64]byte
		emit := func(tuple []intern.Sym) {
			// Key by packed symbols; names materialize once per
			// distinct tuple, never per round.
			k := string(intern.PackSyms(packBuf[:0], tuple))
			c := t.cells[k]
			if c == nil {
				c = &tallyCell{row: intern.Names(tuple)}
				t.cells[k] = c
			}
			c.count++
		}
		for round := lo; round < hi; round++ {
			src.ReseedAt(r.Seed, round)
			dels = dels[:0]
			for _, groups := range g.tables {
				dels = sampleRdelInto(rng, groups, r.Policy, dels)
			}
			db := g.base
			if len(dels) > 0 {
				// Sorting by interned id makes every DeleteAll insertion
				// an append into the clone's removed set: the round's
				// repair costs O(|R_del| log |R_del|), not O(|D|).
				slices.SortFunc(dels, func(a, b relation.Fact) int {
					if a.ID() < b.ID() {
						return -1
					}
					if a.ID() > b.ID() {
						return 1
					}
					return 0
				})
				db = g.base.Clone()
				db.DeleteAll(dels)
			}
			if err := eval(db, emit); err != nil {
				t.err = err
				return
			}
		}
	})

	merged := map[string]*tallyCell{}
	for i := range tallies {
		t := &tallies[i]
		if t.err != nil {
			return nil, t.err
		}
		for k, c := range t.cells {
			m := merged[k]
			if m == nil {
				m = &tallyCell{row: c.row}
				merged[k] = m
			}
			m.count += c.count
		}
	}
	res := &Result{N: n, Groups: g.count}
	for _, c := range merged {
		res.Tuples = append(res.Tuples, tupleFreq(c.row, c.count, n))
	}
	sortTuples(res.Tuples)
	return res, nil
}

func tupleFreq(row []string, count, n int) TupleFreq {
	return TupleFreq{Row: row, Count: count, P: float64(count) / float64(n)}
}

// sortTuples orders the result by the tuples themselves: TupleKey is a
// process-local interned encoding with no stable order.
func sortTuples(tuples []TupleFreq) {
	slices.SortFunc(tuples, func(a, b TupleFreq) int {
		return slices.Compare(a.Row, b.Row)
	})
}
