package core

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"

	"repro/internal/abc"
	"repro/internal/constraint"
	"repro/internal/fo"
	"repro/internal/intern"
	"repro/internal/logic"
	"repro/internal/markov"
	"repro/internal/prob"
	"repro/internal/relation"
	"repro/internal/repair"
)

// This file implements the "localization of repairs" optimization sketched
// in Section 6 of the paper (after Eiter et al.): for EGD and denial
// constraints — where every chain is deletion-only and violations never
// span conflict components — the repairing process factorizes: the
// connected components of the conflict hypergraph repair independently and
// the repair distribution of the whole database is the product of the
// per-component distributions over the untouched facts.
//
// Factorization additionally requires the chain generator to be *local*:
// the relative probabilities it assigns to operations fixing one component
// must not depend on the state of other components. The uniform generator
// and the trust generator are local (their weights are per-conflict
// constants); the preference generator of Example 4 is not (its weights
// count facts across the whole database), and using it here would silently
// change the semantics, so ComputeFactored requires the caller to assert
// locality via the Local marker interface.
//
// On top of locality the engine layers two compounding optimizations:
//
//   - Parallelism: components repair independently, so their exact
//     explorations run on a worker pool (opt.Workers goroutines, inner DAG
//     workers capped to one while several components are in flight).
//     Components are formed and merged in deterministic order, so the
//     result is bit-identical for every worker count.
//
//   - Structural memoization: when the generator's weights are invariant
//     under renaming of constants (StructuralGenerator) and Σ mentions no
//     constants, two components that are isomorphic up to constant
//     renaming have isomorphic local semantics. Each component is renamed
//     to its canonical form up to constant renaming (canon.go: colour
//     refinement plus individualization, pruned by interchangeable
//     constants, with a sound first-occurrence fallback past a
//     fixed search budget); the packed canonical fact ids key a semantics
//     cache, so N isomorphic islands cost one DAG exploration plus N
//     cheap renamings however their constants are named (materialized
//     lazily — atomic-query marginals read the shared canonical semantics
//     directly and never materialize at all).

// LocalGenerator marks generators whose per-component transition weights
// are independent of the rest of the database, licensing factorization.
type LocalGenerator interface {
	markov.Generator
	// LocalWeights documents (and asserts) locality; implementations
	// simply return true.
	LocalWeights() bool
}

// StructuralGenerator marks local generators whose weights are invariant
// under injective renaming of constants: renaming the constants of a
// component permutes its repairs without changing any probability. Uniform
// and UniformDeletions qualify (their weights count extensions, never
// inspect constants); Trust and Preference do not (their weights depend on
// the identity of the facts involved) and must not implement the marker.
// Structural generators opt a ComputeFactored call into the
// isomorphism-keyed semantics cache, provided Σ mentions no constants
// (a constraint constant would survive renaming and break invariance).
type StructuralGenerator interface {
	LocalGenerator
	// StructuralWeights documents (and asserts) renaming-invariance;
	// implementations simply return true.
	StructuralWeights() bool
}

// ErrNotFactorable is returned when the instance or generator does not
// support component-wise factorization.
var ErrNotFactorable = errors.New("core: instance/generator does not factorize across conflict components")

// ErrEnumerationBudget is returned by CP and OCA when a repair enumeration
// exceeds maxEnumeratedRepairs: for a conjunctive query, the product of
// the repair counts of one lineage group (the components one candidate's
// witnesses link); for any other non-atomic query, the product over every
// component. Atomic queries never hit it (they route through
// FactProbability); past it, EstimateCP and CPOrEstimate trade exactness
// for sampling.
var ErrEnumerationBudget = errors.New("core: factored repair enumeration exceeds the budget")

// Component is one conflict component together with its exact local
// semantics. Components obtained from the structural cache hold a shared
// canonical semantics and materialize their renamed copy lazily on first
// Semantics call; fact marginals read the canonical side directly.
type Component struct {
	// Facts are the component's facts, sorted (each fact belongs to
	// exactly one component).
	Facts []relation.Fact

	// canon is the semantics of the canonicalized component, shared by
	// every component with the same cache key; nil when the component was
	// computed directly (cache disabled, non-structural generator).
	canon *Semantics
	// canonFacts and inv carry the canonicalization computed when the
	// component was built (canonFacts[i] is the image of Facts[i], inv the
	// canonical→original constant table), so per-query marginals and the
	// lazy Semantics materialization never re-run canonicalize. Set only
	// alongside canon.
	canonFacts []relation.Fact
	inv        []intern.Sym

	semOnce sync.Once
	sem     *Semantics

	// weights caches the local repair probabilities in repair order for
	// SampleRepair, which draws from them on every call.
	wOnce   sync.Once
	weights []*big.Rat
}

// Semantics returns the component's exact local semantics, materializing
// the constant-renamed copy of the shared canonical semantics on first use
// for cache-served components. The result is a pure function of
// Component.Facts — independent of worker scheduling and of which
// isomorphic component populated the cache.
func (c *Component) Semantics() *Semantics {
	c.semOnce.Do(func() {
		if c.sem == nil {
			table := canonSymTable(len(c.inv))
			ren := make(map[intern.Sym]intern.Sym, len(c.inv))
			for i, orig := range c.inv {
				ren[table[i]] = orig
			}
			c.sem = renameSemantics(c.canon, ren)
		}
	})
	return c.sem
}

// repairWeights returns the cached probability weights of the local
// repairs, aligned with Semantics().Repairs.
func (c *Component) repairWeights() []*big.Rat {
	c.wOnce.Do(func() {
		repairs := c.Semantics().Repairs
		c.weights = make([]*big.Rat, len(repairs))
		for i, r := range repairs {
			c.weights[i] = r.P
		}
	})
	return c.weights
}

// NumRepairs returns the number of distinct local repairs without
// materializing cached semantics.
func (c *Component) NumRepairs() int { return len(c.localSemantics().Repairs) }

// localSemantics returns the semantics the component's probabilities are
// read from without materializing a renamed copy: the shared canonical
// semantics for cache-served components, the component's own otherwise.
// Renaming is an isomorphism of the local chain, so every probability
// read there equals the one Semantics() would give; localFact maps a
// fact of the component to its image in it.
func (c *Component) localSemantics() *Semantics {
	if c.canon != nil {
		return c.canon
	}
	return c.sem
}

// localFact maps a fact of the component into localSemantics.
func (c *Component) localFact(fact relation.Fact) relation.Fact {
	if c.canon != nil {
		for i, cf := range c.Facts {
			if cf == fact {
				return c.canonFacts[i]
			}
		}
	}
	return fact
}

// marginal returns the probability that the fact (which must belong to the
// component) survives in a local repair, conditioned on success.
func (c *Component) marginal(fact relation.Fact) *big.Rat {
	sem, fact := c.localSemantics(), c.localFact(fact)
	// Repair masses are summed with the small-rational fast path; the
	// canonical big.Rat is materialized once for the final division.
	var acc prob.Rat
	for _, r := range sem.Repairs {
		if r.DB.Contains(fact) {
			acc.AddBig(r.P)
		}
	}
	p := acc.Big()
	if sem.SuccessP.Sign() != 0 {
		p.Quo(p, sem.SuccessP)
	}
	return p
}

// Factored is the factorized exact semantics: the untouched core plus one
// independent Semantics per conflict component. The full repair
// distribution is the product distribution.
type Factored struct {
	initial *relation.Database
	sigma   *constraint.Set
	part    *abc.Partition
	// Untouched holds the facts in no violation; they survive every
	// deletion-only repair.
	Untouched *relation.Database

	compOnce   sync.Once
	components []*Component

	// CacheHits and CacheMisses count the structural-cache outcomes among
	// the components this call explored: misses are the distinct canonical
	// component shapes explored for the first time (in this call, for a
	// persistent FactoredOptions.Cache), hits the components served by
	// renaming an already explored shape. Both are zero when the cache did
	// not apply (non-structural generator, constants in Σ, or
	// FactoredOptions.NoCache).
	CacheHits, CacheMisses int
	// Reused counts the components carried over verbatim from the previous
	// Factored by ComputeFactoredDelta — their conflict component was not
	// touched by the delta, so the resident semantics is reused without any
	// cache traffic. Zero for from-scratch builds; when the structural cache
	// applies, Reused + CacheHits + CacheMisses == Partition().Len().
	Reused int
}

// Partition returns the resident conflict partition the semantics is
// aligned with; Components()[i] covers Partition().Islands()[i].
func (f *Factored) Partition() *abc.Partition { return f.part }

// Components lists the conflict components in deterministic order (sorted
// by smallest fact), aligned with Partition().Islands(). The list is
// assembled from the islands' payloads on the first call — the one
// O(components) view of a Factored, which a resident server's
// publications never build — and shared afterwards; it must not be
// modified. Safe for concurrent readers.
func (f *Factored) Components() []*Component {
	f.compOnce.Do(func() {
		islands := f.part.Islands()
		f.components = make([]*Component, len(islands))
		for i, isl := range islands {
			f.components[i] = isl.Payload.(*Component)
		}
	})
	return f.components
}

// SemanticsCache is a persistent structural semantics cache: canonical
// component shapes mapped to their explored local semantics. A zero of it
// is created per call when FactoredOptions.Cache is nil; a long-lived
// server passes one explicitly so isomorphic components pay a single DAG
// exploration across deltas, not per build. A cache is valid only for a
// fixed (Σ, generator, exploration options) configuration — entries are
// keyed by component shape alone — and is safe for concurrent use.
type SemanticsCache struct {
	mu      sync.Mutex
	calls   uint64
	entries map[string]*cacheEntry
}

type cacheEntry struct {
	once sync.Once
	call uint64 // the cache call that created the entry, for hit accounting
	sem  *Semantics
	err  error
}

// NewSemanticsCache returns an empty cache.
func NewSemanticsCache() *SemanticsCache {
	return &SemanticsCache{entries: map[string]*cacheEntry{}}
}

// Len reports the number of distinct component shapes cached.
func (c *SemanticsCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// begin opens an accounting scope: entries created under the returned call
// number are this build's misses, everything older a hit.
func (c *SemanticsCache) begin() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	return c.calls
}

// drop removes the entries created under call.
func (c *SemanticsCache) drop(call uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.entries {
		if e.call == call {
			delete(c.entries, k)
		}
	}
}

func (c *SemanticsCache) entry(key string, call uint64) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{call: call}
		c.entries[key] = e
	}
	return e
}

// FactoredOptions tunes ComputeFactoredDelta beyond the exploration options.
type FactoredOptions struct {
	// NoCache disables the structural semantics cache even for structural
	// generators; every component is explored directly. Benchmarks use it
	// to isolate the cache's contribution.
	NoCache bool
	// Cache, when set, is the persistent structural cache to consult and
	// populate instead of a per-call one, keeping isomorphic shapes warm
	// across builds. Ignored under NoCache or a non-structural generator.
	Cache *SemanticsCache
}

// FactDelta is one applied database change: a fact inserted or deleted.
type FactDelta struct {
	Fact   relation.Fact
	Insert bool
}

// FactoredDelta describes how a database evolved from a previously computed
// Factored, letting ComputeFactoredDelta rebuild the semantics with work
// proportional to the touched conflict region.
type FactoredDelta struct {
	// Prev is the factored semantics of the pre-delta database. Nil means
	// build from scratch (only Part is consulted).
	Prev *Factored
	// Part is the post-delta conflict partition, derived from Prev's by
	// abc.Partition.Update along the applied operations. Islands carried
	// from Prev's partition hold their Component as Payload and are reused
	// verbatim. The partition must come from the same lineage as Prev —
	// and from builds with the same generator and exploration options — or
	// the reused semantics would be silently wrong.
	Part *abc.Partition
	// Fresh lists the islands of Part with no Payload, the ones the build
	// explores, ordered by smallest fact; every other island of Part must
	// carry its Component. Ignored when Prev is nil: a from-scratch build
	// explores every island.
	Fresh []*abc.Island
	// Removed accumulates the islands dissolved by the Updates between
	// Prev's partition and Part; their facts return to the untouched core
	// when they are still present and conflict-free.
	Removed []*abc.Island
	// Ops are the applied changes, in order (as reported changed by
	// Database.Insert/Delete).
	Ops []FactDelta
}

// ComputeFactored builds the factorized semantics from scratch. It
// requires a constraint set without TGDs (so chains are deletion-only and
// components never interact) and a LocalGenerator. Per-component
// explorations run on opt.Workers goroutines (≤ 0 means GOMAXPROCS), and
// structural generators share one exploration across isomorphic
// components; the result is bit-identical for every worker count and cache
// state.
func ComputeFactored(inst *repair.Instance, g LocalGenerator, opt markov.ExploreOptions) (*Factored, error) {
	// The root state caches V(D,Σ); reuse it instead of re-running the
	// homomorphism search, and form components with the id-keyed
	// union-find of the abc package.
	return ComputeFactoredDelta(inst.Initial(), inst.Sigma(), g, opt, FactoredOptions{},
		FactoredDelta{Part: abc.NewPartition(inst.Root().Violations())})
}

// ComputeFactoredDelta rebuilds the factorized semantics of db after a
// delta: components untouched by the delta (d.Part islands carried from
// d.Prev) are reused verbatim, and only the fresh islands are explored, on
// opt.Workers goroutines — against the persistent structural cache when
// one is passed. db is the post-delta database; with d.Prev nil this is a
// from-scratch build over d.Part. The result is a pure function of (db, Σ,
// generator, options), bit-identical to a from-scratch ComputeFactored on
// db for every worker count, reuse pattern, and cache state. Explored
// islands carry their Component as Payload into later delta builds.
func ComputeFactoredDelta(db *relation.Database, sigma *constraint.Set, g LocalGenerator, opt markov.ExploreOptions, fopt FactoredOptions, d FactoredDelta) (*Factored, error) {
	for _, c := range sigma.All() {
		if c.Kind() == constraint.TGD {
			return nil, fmt.Errorf("%w: TGD %s allows insertions that may couple components", ErrNotFactorable, c)
		}
	}
	if !g.LocalWeights() {
		return nil, fmt.Errorf("%w: generator %s is not local", ErrNotFactorable, g.Name())
	}

	part := d.Part
	fresh := d.Fresh
	var untouched *relation.Database
	if d.Prev == nil {
		fresh = part.Islands()
		// The untouched core is assembled into a fresh database (near-linear
		// with copy-on-write auto-sealing) rather than cloning the initial
		// database and deleting every conflicted fact, which is quadratic at
		// scale.
		untouched = relation.NewDatabase()
		for _, f := range db.Facts() {
			if part.IslandOf(f) == nil {
				untouched.Insert(f)
			}
		}
		untouched.Seal()
	} else {
		// Incremental maintenance, O(delta + touched region).
		untouched = updateUntouched(d.Prev.Untouched, db, part, d.Ops, d.Removed, fresh)
	}

	// Cap the inner DAG workers while several components are in flight:
	// the component pool already saturates the CPUs, and the DAG result is
	// bit-identical for every inner worker count.
	inner := opt
	if len(fresh) > 1 {
		inner.Workers = 1
	}

	scope := newBuildScope(sigma, g, inner, fopt)
	results := make([]explored, len(fresh))
	errs := make([]error, len(fresh))
	work := func(fi int) {
		e, err := scope.explore(fresh[fi])
		if err != nil {
			errs[fi] = err
			return
		}
		results[fi] = e
		// Resident partitions carry the component to later delta builds;
		// islands are private to this build until the caller publishes, so
		// the write is unsynchronized but unshared.
		fresh[fi].Payload = e.comp
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(fresh) {
		workers = len(fresh)
	}
	if workers <= 1 {
		for fi := range fresh {
			work(fi)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for fi := range next {
					work(fi)
				}
			}()
		}
		for fi := range fresh {
			next <- fi
		}
		close(next)
		wg.Wait()
	}
	// Errors are reported in deterministic component order, independent of
	// which worker failed first.
	for _, err := range errs {
		if err != nil {
			scope.rollback()
			return nil, err
		}
	}

	out := &Factored{initial: db, sigma: sigma, part: part, Untouched: untouched, Reused: part.Len() - len(fresh)}
	// Deterministic accounting regardless of worker scheduling: results is
	// in island order, so the first fresh component of each shape is the
	// miss candidate and every other one a hit.
	out.CacheHits, out.CacheMisses = scope.accounting(results)
	return out, nil
}

// computeComponent explores one component in isolation. vios, when
// non-nil, is the component's violation set V(facts,Σ), seeded into the
// instance so the exploration skips the from-scratch homomorphism search —
// the island that induced the component already carries exactly those
// violations.
func computeComponent(sigma *constraint.Set, g markov.Generator, opt markov.ExploreOptions, facts []relation.Fact, vios *constraint.Violations) (*Semantics, error) {
	sub := relation.FromFacts(facts...)
	subInst, err := repair.NewInstance(sub, sigma)
	if err != nil {
		return nil, err
	}
	if vios != nil {
		subInst.SeedRootViolations(vios)
	}
	return Compute(subInst, g, opt)
}

// renameViolations maps an island's violations into the canonical constant
// space of its cache key. On the structural path Σ mentions no constants
// and the canonical renaming is injective, so each image is a violation
// of the canonical instance and together they are exactly V(canon,Σ):
// every island with the same key renames to the identical set, making the
// seed independent of which component populates the cache entry.
func renameViolations(vios []constraint.Violation, ren map[intern.Sym]intern.Sym) *constraint.Violations {
	out := make([]constraint.Violation, len(vios))
	for i, v := range vios {
		h := make(logic.Subst, len(v.H))
		for x, a := range v.H {
			if c, ok := ren[a]; ok {
				a = c
			}
			h[x] = a
		}
		out[i] = constraint.NewViolation(v.Constraint, h)
	}
	return constraint.ViolationsOf(out)
}

// renameSemantics deep-copies a semantics with every repair fact's
// constants mapped through ren. Probabilities, sequence counts, and
// per-length counts are invariant under the renaming; repairs are re-sorted
// by the renamed database keys so the copy is in canonical repair order.
func renameSemantics(sem *Semantics, ren map[intern.Sym]intern.Sym) *Semantics {
	out := &Semantics{
		Mode:             sem.Mode,
		SuccessP:         new(big.Rat).Set(sem.SuccessP),
		FailP:            new(big.Rat).Set(sem.FailP),
		AbsorbingStates:  sem.AbsorbingStates,
		FailingStates:    sem.FailingStates,
		TotalSequences:   new(big.Int).Set(sem.TotalSequences),
		FailingSequences: new(big.Int).Set(sem.FailingSequences),
	}
	if sem.SequencesByLength != nil {
		out.SequencesByLength = make([]*big.Int, len(sem.SequencesByLength))
		for i, cnt := range sem.SequencesByLength {
			out.SequencesByLength[i] = new(big.Int).Set(cnt)
		}
	}
	// The lineage inputs are renamed with the repairs: a cache-served
	// component answers queries over its own constants, never over those
	// of the component that populated the cache entry.
	if sem.lineageDB != nil {
		facts := sem.lineageDB.Facts()
		renamed := make([]relation.Fact, len(facts))
		for i, f := range facts {
			renamed[i] = renameFact(f, ren)
		}
		out.lineageDB = relation.FromFacts(renamed...)
		out.lineageDB.Seal()
		out.conflicted = make([]relation.Fact, len(sem.conflicted))
		for i, f := range sem.conflicted {
			out.conflicted[i] = renameFact(f, ren)
		}
	}
	out.Repairs = make([]Repair, len(sem.Repairs))
	keys := make([]string, len(sem.Repairs))
	for i, r := range sem.Repairs {
		facts := r.DB.Facts()
		renamed := make([]relation.Fact, len(facts))
		for j, f := range facts {
			renamed[j] = renameFact(f, ren)
		}
		db := relation.FromFacts(renamed...)
		out.Repairs[i] = Repair{
			DB:        db,
			P:         new(big.Rat).Set(r.P),
			Sequences: r.Sequences,
			SeqCount:  new(big.Int).Set(r.SeqCount),
		}
		keys[i] = db.Key()
	}
	sort.Sort(&repairsByKey{keys: keys, repairs: out.Repairs})
	return out
}

// renameFact maps a fact's arguments through ren (identity for arguments
// outside the map).
func renameFact(f relation.Fact, ren map[intern.Sym]intern.Sym) relation.Fact {
	orig := f.Args()
	args := make([]intern.Sym, len(orig))
	for i, a := range orig {
		if r, ok := ren[a]; ok {
			args[i] = r
		} else {
			args[i] = a
		}
	}
	return relation.FactOf(f.Pred(), args)
}

// NumRepairs returns the number of distinct operational repairs of the full
// database: the product of the per-component repair counts.
func (f *Factored) NumRepairs() *big.Int {
	n := big.NewInt(1)
	for _, c := range f.Components() {
		n.Mul(n, big.NewInt(int64(c.NumRepairs())))
	}
	return n
}

// FactProbability returns the exact probability that the fact appears in an
// operational repair: 1 for untouched facts, the component-local marginal
// for conflicted facts, and 0 for facts absent from the database. The
// component is found through the partition's resident fact→island index,
// so the lookup is O(|component repairs|) regardless of the number of
// components. This answers atomic queries exactly in time polynomial in
// the component sizes even when the full repair count is astronomical.
func (f *Factored) FactProbability(fact relation.Fact) *big.Rat {
	if isl := f.part.IslandOf(fact); isl != nil {
		return isl.Payload.(*Component).marginal(fact)
	}
	if f.Untouched.Contains(fact) {
		return prob.One()
	}
	return prob.Zero()
}

// maxEnumeratedRepairs bounds the repair enumeration of CP and OCA: per
// lineage group for conjunctive queries, over the whole product for any
// other non-atomic query.
const maxEnumeratedRepairs = 1 << 20

// atomicQueryFact resolves queries of the form Q(x̄) := R(t̄) — a single
// positive atom whose arguments are constants or output variables, with
// every output variable occurring in the atom — to the single ground fact
// the tuple selects. For such queries Q holds in a repair iff the fact is
// present, so CP(t̄) is exactly the fact's marginal. ok reports whether the
// query has that shape; zero reports that the tuple selects a fact that
// occurs in no database (never interned, or absent), so CP is exactly 0.
func (f *Factored) atomicQueryFact(q *fo.Query, tuple []string) (fact relation.Fact, zero, ok bool) {
	atom, isAtom := q.F.(fo.Atom)
	if !isAtom {
		return relation.Fact{}, false, false
	}
	if len(tuple) != len(q.Out) {
		return relation.Fact{}, true, true // Holds rejects the tuple everywhere
	}
	outIdx := map[intern.Sym]int{}
	for i, t := range q.Out {
		outIdx[t.Sym()] = i
	}
	used := make([]bool, len(q.Out))
	args := make([]intern.Sym, len(atom.A.Args))
	for i, t := range atom.A.Args {
		if !t.IsVar() {
			args[i] = t.Sym()
			continue
		}
		j, isOut := outIdx[t.Sym()]
		if !isOut {
			return relation.Fact{}, false, false
		}
		used[j] = true
		sym, interned := intern.Lookup(tuple[j])
		if !interned {
			return relation.Fact{}, true, true // constant occurs in no database
		}
		args[i] = sym
	}
	for _, u := range used {
		if !u {
			// An output variable outside the atom makes Holds depend on
			// active-domain membership, not on a single fact.
			return relation.Fact{}, false, false
		}
	}
	fct, exists := relation.LookupFact(atom.A.Pred, args)
	if !exists {
		return relation.Fact{}, true, true
	}
	return fct, false, true
}

// CP computes the exact conditional probability of a tuple. Atomic queries
// (a single positive atom over constants and output variables) are routed
// through FactProbability and never enumerate, whatever the scale.
// Conjunctive queries whose output variables all occur in the body are
// answered from the tuple's witness lineage (lineageCP): only the
// components its witnesses touch are enumerated, group by group. Other
// queries enumerate the product distribution. Past maxEnumeratedRepairs
// CP returns ErrEnumerationBudget instead of running forever —
// CPOrEstimate falls back to sampling automatically.
func (f *Factored) CP(q *fo.Query, tuple []string) (*big.Rat, error) {
	if fact, zero, ok := f.atomicQueryFact(q, tuple); ok {
		if zero {
			return prob.Zero(), nil
		}
		return f.FactProbability(fact), nil
	}
	if fl, ok := f.lineage(q, tuplePass(q, tuple)); ok {
		if len(fl.lin.Candidates) == 0 || f.zeroSuccess() {
			return prob.Zero(), nil
		}
		return f.lineageCP(fl, &fl.lin.Candidates[0], make([]bool, len(fl.conflicted)))
	}
	return f.productCP(q, tuple)
}

// CPOrEstimate computes CP exactly when feasible — always for atomic
// queries, and for arbitrary queries while the product distribution fits
// the enumeration budget — and otherwise falls back to the (ε, δ) sampling
// estimate. exact reports which route produced the value.
func (f *Factored) CPOrEstimate(q *fo.Query, tuple []string, eps, delta float64, seed int64) (p *big.Rat, exact bool, err error) {
	p, err = f.CP(q, tuple)
	if err == nil {
		return p, true, nil
	}
	if !errors.Is(err, ErrEnumerationBudget) {
		return nil, false, err
	}
	est, err := f.EstimateCP(q, tuple, eps, delta, seed)
	if err != nil {
		return nil, false, err
	}
	return new(big.Rat).SetFloat64(est), false, nil
}

// OCA returns the operational consistent answers over the factored
// semantics. Atomic queries scan the initial database once and read each
// matching fact's exact marginal off its component — polynomial at any
// scale. Conjunctive queries whose output variables all occur in the body
// build one witness lineage and answer each candidate by lineageCP. Other
// queries enumerate the product distribution. All but the first are
// bounded by maxEnumeratedRepairs, as in CP.
func (f *Factored) OCA(q *fo.Query) (*AnswerSet, error) {
	if as, ok := f.atomicOCA(q); ok {
		return as, nil
	}
	if fl, ok := f.lineage(q, q.Lineage); ok {
		out := &AnswerSet{Query: q}
		if f.zeroSuccess() {
			return out, nil
		}
		dead := make([]bool, len(fl.conflicted))
		for c := range fl.lin.Candidates {
			cand := &fl.lin.Candidates[c]
			p, err := f.lineageCP(fl, cand, dead)
			if err != nil {
				return nil, err
			}
			if p.Sign() > 0 {
				out.Answers = append(out.Answers, Answer{Tuple: intern.Names(cand.Tuple), P: p})
			}
		}
		sortAnswers(out)
		return out, nil
	}
	return f.productOCA(q)
}

// forEachProductRepair enumerates the full product distribution — every
// combination of one local repair per component over the untouched core —
// calling fn with each full repair and its mass, and returns the total
// mass. It refuses past maxEnumeratedRepairs. db is reused between calls.
func (f *Factored) forEachProductRepair(fn func(db *relation.Database, p *big.Rat)) (*big.Rat, error) {
	total := f.NumRepairs()
	if !total.IsInt64() || total.Int64() > maxEnumeratedRepairs {
		return nil, fmt.Errorf("%w: %s repairs > %d; FactProbability answers atomic queries and witness lineage conjunctive ones, EstimateCP samples the rest",
			ErrEnumerationBudget, total.String(), maxEnumeratedRepairs)
	}
	den := prob.Zero()
	db := f.Untouched.Clone()
	comps := f.Components()
	var rec func(i int, p *big.Rat)
	rec = func(i int, p *big.Rat) {
		if i == len(comps) {
			den.Add(den, p)
			fn(db, p)
			return
		}
		for _, r := range comps[i].Semantics().Repairs {
			for _, fact := range r.DB.Facts() {
				db.Insert(fact)
			}
			rec(i+1, new(big.Rat).Mul(p, r.P))
			for _, fact := range r.DB.Facts() {
				db.Delete(fact)
			}
		}
	}
	rec(0, prob.One())
	return den, nil
}

// productCP is CP by enumerating the product distribution, evaluating the
// query on every full repair: the route of queries without a witness
// lineage, and the reference the lineage route is tested against.
func (f *Factored) productCP(q *fo.Query, tuple []string) (*big.Rat, error) {
	num := prob.Zero()
	den, err := f.forEachProductRepair(func(db *relation.Database, p *big.Rat) {
		if q.Holds(db, tuple) {
			num.Add(num, p)
		}
	})
	if err != nil {
		return nil, err
	}
	if den.Sign() == 0 {
		return prob.Zero(), nil
	}
	return num.Quo(num, den), nil
}

// productOCA is OCA by enumerating the product distribution (see
// productCP).
func (f *Factored) productOCA(q *fo.Query) (*AnswerSet, error) {
	num := map[string]*Answer{}
	den, err := f.forEachProductRepair(func(db *relation.Database, p *big.Rat) {
		for _, tuple := range q.Answers(db) {
			k := fo.TupleKey(tuple)
			a, ok := num[k]
			if !ok {
				a = &Answer{Tuple: tuple, P: prob.Zero()}
				num[k] = a
			}
			a.P.Add(a.P, p)
		}
	})
	if err != nil {
		return nil, err
	}
	out := &AnswerSet{Query: q}
	for _, a := range num {
		if den.Sign() != 0 {
			a.P.Quo(a.P, den)
		} else {
			a.P = prob.Zero()
		}
		if a.P.Sign() > 0 {
			out.Answers = append(out.Answers, *a)
		}
	}
	sortAnswers(out)
	return out, nil
}

// factoredLineage is the witness lineage of a conjunctive query over the
// factored instance. The conflicted list holds every component fact, in
// component order, and comp[i] is the component of conflicted fact i.
type factoredLineage struct {
	lin        *fo.Lineage
	conflicted []relation.Fact
	comp       []int
}

// lineage runs a witness pass of q (q.Lineage or q.TupleLineage) over the
// initial database, or reports false when q is not a conjunctive query
// with every output variable in its body. Every full
// repair is the untouched core plus one local repair per component, a
// subset of the database keeping every non-component fact, so the tuple
// answers in it iff it is certain or one of its witnesses survives.
func (f *Factored) lineage(q *fo.Query, pass func(*relation.Database, []relation.Fact) (*fo.Lineage, bool)) (*factoredLineage, bool) {
	if _, unconstrained, ok := q.CQ(); !ok || len(unconstrained) > 0 {
		return nil, false
	}
	fl := &factoredLineage{}
	for ci, c := range f.Components() {
		for _, fact := range c.Facts {
			fl.conflicted = append(fl.conflicted, fact)
			fl.comp = append(fl.comp, ci)
		}
	}
	db := f.initial
	if !db.Sealed() {
		db = db.Clone() // see atomicOCA: unsealed snapshots are single-owner
	}
	fl.lin, _ = pass(db, fl.conflicted)
	return fl, true
}

// zeroSuccess reports that some component's repairing process never
// succeeds: the full success mass is then 0 and, as in Semantics.CP,
// every conditional probability is 0.
func (f *Factored) zeroSuccess() bool {
	for _, c := range f.Components() {
		if c.localSemantics().SuccessP.Sign() == 0 {
			return true
		}
	}
	return false
}

// lineageCP returns the conditional probability that a lineage candidate
// answers under the product distribution. A certain candidate gives 1.
// Otherwise the components its witnesses touch are unioned into groups —
// two components share a group when one witness spans both — and groups
// are independent, so
//
//	CP = 1 − Π_g P(no witness of group g survives).
//
// Each group enumerates only its own components' local repairs, under
// maxEnumeratedRepairs; components no witness touches drop out. dead is
// scratch indexed like fl.conflicted.
func (f *Factored) lineageCP(fl *factoredLineage, cand *fo.LineageCandidate, dead []bool) (*big.Rat, error) {
	if cand.Certain {
		return prob.One(), nil
	}
	parent := map[int]int{}
	var find func(c int) int
	find = func(c int) int {
		p, ok := parent[c]
		if !ok || p == c {
			parent[c] = c
			return c
		}
		r := find(p)
		parent[c] = r
		return r
	}
	for _, w := range cand.Witnesses {
		root := find(fl.comp[w[0]])
		for _, i := range w[1:] {
			if r := find(fl.comp[i]); r != root {
				parent[r] = root
			}
		}
	}
	groups := map[int][][]int{} // root component → the group's witnesses
	var roots []int
	for _, w := range cand.Witnesses {
		root := find(fl.comp[w[0]])
		if _, ok := groups[root]; !ok {
			roots = append(roots, root)
		}
		groups[root] = append(groups[root], w)
	}
	none := prob.One()
	for _, root := range roots {
		p, err := f.noWitnessSurvives(fl, groups[root], dead)
		if err != nil {
			return nil, err
		}
		none.Mul(none, p)
	}
	return none.Sub(prob.One(), none), nil
}

// noWitnessSurvives enumerates the local repairs of the components one
// lineage group's witnesses touch and returns the conditional probability
// that none of the witnesses keeps all its facts.
func (f *Factored) noWitnessSurvives(fl *factoredLineage, witnesses [][]int, dead []bool) (*big.Rat, error) {
	type member struct {
		sem    *Semantics
		facts  []int           // conflicted indices of the witness facts in the component
		images []relation.Fact // those facts mapped into sem
	}
	var members []*member
	byComp := map[int]*member{}
	count := int64(1)
	comps := f.Components()
	for _, w := range witnesses {
		for _, i := range w {
			c := comps[fl.comp[i]]
			m := byComp[fl.comp[i]]
			if m == nil {
				m = &member{sem: c.localSemantics()}
				byComp[fl.comp[i]] = m
				members = append(members, m)
				count *= int64(len(m.sem.Repairs))
				if count > maxEnumeratedRepairs {
					return nil, fmt.Errorf("%w: the components one tuple's witnesses link have more than %d repairs",
						ErrEnumerationBudget, maxEnumeratedRepairs)
				}
			}
			if !slices.Contains(m.facts, i) {
				m.facts = append(m.facts, i)
				m.images = append(m.images, c.localFact(fl.conflicted[i]))
			}
		}
	}
	var none prob.Rat
	var rec func(k int, p *big.Rat)
	rec = func(k int, p *big.Rat) {
		if k == len(members) {
			if !fo.SomeWitnessAlive(witnesses, dead) {
				none.AddBig(p)
			}
			return
		}
		m := members[k]
		for _, r := range m.sem.Repairs {
			for j, i := range m.facts {
				dead[i] = !r.DB.Contains(m.images[j])
			}
			rec(k+1, new(big.Rat).Mul(p, r.P))
		}
	}
	rec(0, prob.One())
	out := none.Big()
	for _, m := range members {
		out.Quo(out, m.sem.SuccessP)
	}
	return out, nil
}

// atomicOCA answers an atomic query by a single scan over the initial
// database: each fact matching the atom's pattern yields one candidate
// tuple whose probability is the fact's marginal (the tuple determines the
// fact, so no aggregation is needed).
func (f *Factored) atomicOCA(q *fo.Query) (*AnswerSet, bool) {
	atom, isAtom := q.F.(fo.Atom)
	if !isAtom {
		return nil, false
	}
	outIdx := map[intern.Sym]int{}
	for i, t := range q.Out {
		outIdx[t.Sym()] = i
	}
	used := make([]bool, len(q.Out))
	for _, t := range atom.A.Args {
		if !t.IsVar() {
			continue
		}
		j, isOut := outIdx[t.Sym()]
		if !isOut {
			return nil, false
		}
		used[j] = true
	}
	for _, u := range used {
		if !u {
			return nil, false
		}
	}
	out := &AnswerSet{Query: q}
	db := f.initial
	if !db.Sealed() {
		// A database with a pending delta is single-owner (even reads
		// populate merged per-predicate views), and served snapshots keep
		// theirs unsealed so publication stays O(delta); concurrent readers
		// scan a private O(delta) clone instead.
		db = db.Clone()
	}
	for _, fact := range db.FactsByPred(atom.A.Pred) {
		fargs := fact.Args()
		if len(fargs) != len(atom.A.Args) {
			continue
		}
		binding := make([]intern.Sym, len(q.Out))
		bound := make([]bool, len(q.Out))
		match := true
		for i, t := range atom.A.Args {
			if !t.IsVar() {
				if t.Sym() != fargs[i] {
					match = false
					break
				}
				continue
			}
			j := outIdx[t.Sym()]
			if bound[j] && binding[j] != fargs[i] {
				match = false // repeated variable bound inconsistently
				break
			}
			binding[j], bound[j] = fargs[i], true
		}
		if !match {
			continue
		}
		p := f.FactProbability(fact)
		if p.Sign() <= 0 {
			continue
		}
		tuple := make([]string, len(q.Out))
		for j, sym := range binding {
			tuple[j] = intern.Name(sym)
		}
		out.Answers = append(out.Answers, Answer{Tuple: tuple, P: p})
	}
	sortAnswers(out)
	return out, true
}

// sortAnswers orders an answer set lexicographically by tuple, matching
// Semantics.OCA.
func sortAnswers(as *AnswerSet) {
	sort.Slice(as.Answers, func(i, j int) bool {
		a, b := as.Answers[i].Tuple, as.Answers[j].Tuple
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}

// TotalSequences returns the exact number of complete sequences of the
// full chain M_Σ(D). Probabilities under the sequence-uniform mode do not
// factorize across components (interleavings weigh components by length),
// but the *count* does: every complete sequence is an interleaving of
// per-component complete sequences, so the total is the binomial
// convolution of the per-component length-stratified counts. It requires
// the components to have been explored with
// markov.ExploreOptions.TrackLengths.
func (f *Factored) TotalSequences() (*big.Int, error) {
	// T[m] counts the interleavings of complete sequences of the first i
	// components with total length m.
	T := []*big.Int{big.NewInt(1)}
	for _, c := range f.Components() {
		cl := c.localSemantics().SequencesByLength
		if cl == nil {
			return nil, fmt.Errorf("core: per-length sequence counts unavailable; recompute with markov.ExploreOptions.TrackLengths")
		}
		nt := make([]*big.Int, len(T)+len(cl)-1)
		for i := range nt {
			nt[i] = new(big.Int)
		}
		var binom big.Int
		for m, tm := range T {
			if tm.Sign() == 0 {
				continue
			}
			for l, cnt := range cl {
				if cnt.Sign() == 0 {
					continue
				}
				// The l operations of the new component choose their slots
				// among the m+l positions.
				binom.Binomial(int64(m+l), int64(l))
				term := new(big.Int).Mul(tm, cnt)
				term.Mul(term, &binom)
				nt[m+l].Add(nt[m+l], term)
			}
		}
		T = nt
	}
	total := new(big.Int)
	for _, t := range T {
		total.Add(total, t)
	}
	return total, nil
}

// SampleRepair draws one full repair exactly from the factorized
// distribution: one local repair per component, independently. Unlike a
// chain walk this costs O(|D| + Σ |component repairs|) per draw.
func (f *Factored) SampleRepair(rng *rand.Rand) *relation.Database {
	db := f.Untouched.Clone()
	for _, c := range f.Components() {
		repairs := c.Semantics().Repairs
		pick := repairs[prob.Pick(rng, c.repairWeights())]
		for _, fact := range pick.DB.Facts() {
			db.Insert(fact)
		}
	}
	return db
}

// EstimateCP approximates CP(t̄) with the additive (ε, δ) guarantee of
// Theorem 9, drawing exact factored repairs instead of chain walks; each
// sample is orders of magnitude cheaper than a walk on large instances.
func (f *Factored) EstimateCP(q *fo.Query, tuple []string, eps, delta float64, seed int64) (float64, error) {
	n, err := prob.HoeffdingSamples(eps, delta)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	hits := 0
	for i := 0; i < n; i++ {
		if q.Holds(f.SampleRepair(rng), tuple) {
			hits++
		}
	}
	return float64(hits) / float64(n), nil
}
