package repair

import (
	"fmt"
	"sync"

	"repro/internal/constraint"
	"repro/internal/ops"
	"repro/internal/relation"
)

// Options tunes the repairing operation space.
type Options struct {
	// NullInsertions switches TGD repairs to the null-based insertions of
	// Section 6 ("Null Values"): instead of grounding existential head
	// variables over every base constant (|dom|^|z̄| candidate operations),
	// each TGD violation gets a single canonical insertion whose
	// existential positions carry fresh labeled nulls. This is an
	// extension beyond Definition 1 (null facts live outside B(D,Σ)) and
	// trades the full Definition 3 minimality comparison against grounded
	// candidates for a polynomial operation space.
	NullInsertions bool
}

// Instance bundles the fixed context of a repairing process: the initial
// (possibly inconsistent) database D, the constraint set Σ, and the base
// B(D,Σ) from which operations draw their facts.
type Instance struct {
	initial *relation.Database
	sigma   *constraint.Set
	base    *relation.Base
	opts    Options

	// delOps caches the justified deletions of a violation, keyed by its
	// interned body image: they are a pure function of the body facts and
	// recur at every state where the violation survives. Safe for
	// concurrent walkers.
	delOpsMu sync.RWMutex
	delOps   map[string][]ops.Op

	// rootViolations caches V(D,Σ) of the initial database; root states
	// share it (violation sets are immutable once built).
	rootVioOnce    sync.Once
	rootViolations *constraint.Violations

	// rootExts caches the valid extensions of the empty sequence. Every
	// walk and exploration starts at ε over the same sealed database and
	// the shared root violation set, so the enumeration is a pure function
	// of the instance and is computed once (see State.Extensions).
	rootExtOnce sync.Once
	rootExts    []ops.Op

	// conflicts is the conflict index of a TGD-free instance, built on
	// first use (see Conflicts).
	conflictOnce sync.Once
	conflicts    *ConflictIndex
}

// NewInstance builds the context for repairing d under sigma. The database
// is cloned; later mutations of d do not affect the instance.
func NewInstance(d *relation.Database, sigma *constraint.Set) (*Instance, error) {
	return NewInstanceOpts(d, sigma, Options{})
}

// NewInstanceOpts is NewInstance with explicit options.
func NewInstanceOpts(d *relation.Database, sigma *constraint.Set, opts Options) (*Instance, error) {
	base, err := sigma.Base(d)
	if err != nil {
		return nil, fmt.Errorf("building base B(D,Σ): %w", err)
	}
	initial := d.Clone()
	// Seal the private copy: every walk and tree exploration clones it as
	// its root, and a sealed database clones in O(1) (copy-on-write).
	initial.Seal()
	return &Instance{
		initial: initial,
		sigma:   sigma,
		base:    base,
		opts:    opts,
		delOps:  map[string][]ops.Op{},
	}, nil
}

// MustInstance is NewInstance that panics on error.
func MustInstance(d *relation.Database, sigma *constraint.Set) *Instance {
	inst, err := NewInstance(d, sigma)
	if err != nil {
		panic(err)
	}
	return inst
}

// Initial returns (a private copy of) the initial database; callers must
// not modify it.
func (in *Instance) Initial() *relation.Database { return in.initial }

// Sigma returns the constraint set.
func (in *Instance) Sigma() *constraint.Set { return in.sigma }

// Base returns B(D,Σ).
func (in *Instance) Base() *relation.Base { return in.base }

// Opts returns the instance options.
func (in *Instance) Opts() Options { return in.opts }

// Consistent reports whether the initial database already satisfies Σ.
func (in *Instance) Consistent() bool { return in.sigma.Satisfied(in.initial) }

// justifiedDeletions returns the cached justified deletions of a
// violation, computing and caching them on first use. The cache key is the
// interned body image, so the two orientations of an EGD match share one
// entry and the lookup builds no strings.
func (in *Instance) justifiedDeletions(v constraint.Violation) []ops.Op {
	key := v.BodyPack()
	in.delOpsMu.RLock()
	cached, ok := in.delOps[key]
	in.delOpsMu.RUnlock()
	if ok {
		return cached
	}
	computed := ops.JustifiedDeletions(v)
	in.delOpsMu.Lock()
	if cached, ok := in.delOps[key]; ok {
		computed = cached
	} else {
		in.delOps[key] = computed
	}
	in.delOpsMu.Unlock()
	return computed
}

// SeedRootViolations installs a precomputed V(D,Σ) for the root state,
// skipping the from-scratch homomorphism search of the first Root call.
// The set must be exactly the violations of the initial database — callers
// that factor a database into conflict components already hold each
// component's violations and seed them here. A no-op if the root
// violations were already computed.
func (in *Instance) SeedRootViolations(vs *constraint.Violations) {
	in.rootVioOnce.Do(func() { in.rootViolations = vs })
}

// Root returns the state of the empty repairing sequence ε. The root's
// violation set is computed once per instance and shared by every root
// state (walks start from identical roots), so repeated walks skip the
// from-scratch homomorphism search.
func (in *Instance) Root() *State {
	return &State{
		inst:       in,
		db:         in.initial.Clone(),
		violations: in.rootVios(),
	}
}

// rootVios returns V(D,Σ) of the initial database, computing it on first
// use (on a clone, so the shared initial database is only read); the set
// is shared and must not be modified.
func (in *Instance) rootVios() *constraint.Violations {
	in.rootVioOnce.Do(func() {
		in.rootViolations = constraint.FindViolations(in.initial.Clone(), in.sigma)
	})
	return in.rootViolations
}

// rootExtensions returns the valid extensions of the empty sequence,
// computing them on first use; the list is shared and must not be
// modified.
func (in *Instance) rootExtensions() []ops.Op {
	in.rootExtOnce.Do(func() {
		in.rootExts = in.Root().computeExtensions()
	})
	return in.rootExts
}
