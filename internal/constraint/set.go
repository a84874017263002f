package constraint

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/intern"
	"repro/internal/logic"
	"repro/internal/relation"
)

// Set is an ordered collection of constraints with stable identifiers.
// Identifiers ("c0", "c1", ...) name constraints inside violation keys, so
// a Set must not be mutated once violations derived from it are in flight.
type Set struct {
	constraints []*Constraint
	byID        map[string]*Constraint
	// bodyPreds and tgdHeadPreds cache which predicates occur in constraint
	// bodies and in TGD heads, so MayIntroduceViolations is a map probe per
	// touched predicate instead of a scan over the whole set.
	bodyPreds    map[intern.Sym]bool
	tgdHeadPreds map[intern.Sym]bool
	hasTGD       bool
}

// NewSet builds a set from the given constraints, assigning sequential IDs
// to those that do not have one. Constraints are shared, not copied; a
// constraint may belong to only one set.
func NewSet(cs ...*Constraint) *Set {
	s := &Set{
		byID:         map[string]*Constraint{},
		bodyPreds:    map[intern.Sym]bool{},
		tgdHeadPreds: map[intern.Sym]bool{},
	}
	for _, c := range cs {
		s.Add(c)
	}
	return s
}

// Add appends a constraint, assigning it an ID if needed.
func (s *Set) Add(c *Constraint) {
	if c.id == "" {
		c.id = fmt.Sprintf("c%d", len(s.constraints))
		c.refreshViolationKeys()
	}
	if _, dup := s.byID[c.id]; dup {
		panic(fmt.Sprintf("constraint: duplicate id %q in set", c.id))
	}
	s.constraints = append(s.constraints, c)
	s.byID[c.id] = c
	for _, a := range c.body {
		s.bodyPreds[a.Pred] = true
	}
	if c.kind == TGD {
		s.hasTGD = true
		for _, a := range c.head {
			s.tgdHeadPreds[a.Pred] = true
		}
	}
}

// HasTGDs reports whether the set contains a tuple-generating dependency.
// Without TGDs the repairing operation space is deletion-only: every
// justified operation removes a subset of some violation body, which lets
// the repair layer derive a state's extensions from its parent's.
func (s *Set) HasTGDs() bool { return s.hasTGD }

// Len reports the number of constraints.
func (s *Set) Len() int { return len(s.constraints) }

// All returns the constraints in insertion order; the slice must not be
// modified.
func (s *Set) All() []*Constraint { return s.constraints }

// ByID looks a constraint up by identifier.
func (s *Set) ByID(id string) (*Constraint, bool) {
	c, ok := s.byID[id]
	return c, ok
}

// Satisfied reports whether D |= Σ.
func (s *Set) Satisfied(d *relation.Database) bool {
	for _, c := range s.constraints {
		if !c.Satisfied(d) {
			return false
		}
	}
	return true
}

// Schema collects the predicates mentioned by the constraints into schema,
// checking arity consistency.
func (s *Set) Schema(schema *relation.Schema) error {
	for _, c := range s.constraints {
		for _, a := range c.body {
			if err := schema.AddSym(a.Pred, a.Arity()); err != nil {
				return err
			}
		}
		for _, a := range c.head {
			if err := schema.AddSym(a.Pred, a.Arity()); err != nil {
				return err
			}
		}
	}
	return nil
}

// Consts returns the distinct constant names mentioned anywhere in the set.
func (s *Set) Consts() []string { return intern.Names(s.ConstSyms()) }

// ConstSyms returns the distinct constant symbols mentioned anywhere in the
// set.
func (s *Set) ConstSyms() []intern.Sym {
	seen := map[intern.Sym]bool{}
	var out []intern.Sym
	for _, c := range s.constraints {
		for _, t := range c.Consts() {
			if !seen[t.Sym()] {
				seen[t.Sym()] = true
				out = append(out, t.Sym())
			}
		}
	}
	return out
}

// Base constructs B(D,Σ): the base whose schema covers both the database
// and the constraints and whose constants are dom(D) plus the constants of
// the constraints.
func (s *Set) Base(d *relation.Database) (*relation.Base, error) {
	schema := relation.NewSchema()
	if err := schema.AddDatabase(d); err != nil {
		return nil, err
	}
	if err := s.Schema(schema); err != nil {
		return nil, err
	}
	consts := append([]intern.Sym(nil), d.DomSyms()...)
	consts = append(consts, s.ConstSyms()...)
	return relation.NewBaseSyms(schema, consts), nil
}

// String renders the set one constraint per line, each terminated by a dot.
func (s *Set) String() string {
	var b strings.Builder
	for _, c := range s.constraints {
		b.WriteString(c.String())
		b.WriteString(".\n")
	}
	return b.String()
}

// Violation is a pair (κ, h): constraint κ is violated in a database via
// the body homomorphism h (Definition 2). h binds exactly the universal
// variables of κ. Construct violations with NewViolation so the interned
// identity and cached body image are populated; they sit on the hot path
// of incremental violation maintenance.
type Violation struct {
	Constraint *Constraint
	H          logic.Subst

	entry *vioEntry
}

// NewViolation builds a violation, interning its identity. The first
// construction of a given violation computes and caches its body image and
// canonical encodings; every later construction is a table lookup. The
// substitution is restricted to the universal variables (which internal
// callers always bind exactly) and shared with the cache; callers must not
// modify it.
func NewViolation(c *Constraint, h logic.Subst) Violation {
	e := c.vioEntryFor(h)
	return Violation{Constraint: c, H: e.h, entry: e}
}

// ID returns the interned identity of the violation: the constraint's
// process-unique number in the high word and the dense per-constraint
// violation id in the low word. All hot-path violation bookkeeping is keyed
// by this.
func (v Violation) ID() uint64 {
	if v.entry != nil {
		return v.entry.id
	}
	if v.Constraint == nil {
		return 0
	}
	return NewViolation(v.Constraint, v.H).ID()
}

// Key returns the canonical string encoding of the violation, stable across
// processes: the constraint ID together with the encoded assignment. It is
// built on first use and cached on the interned violation.
func (v Violation) Key() string {
	if v.Constraint == nil {
		return "|"
	}
	e := v.entry
	if e == nil {
		e = v.Constraint.vioEntryFor(v.H)
	}
	if k := e.legacyKey.Load(); k != nil {
		return *k
	}
	k := v.Constraint.id + "|" + e.h.Key()
	e.legacyKey.Store(&k)
	return k
}

// BodyKey returns the canonical string encoding of h(ϕ) as a fact set;
// violations with equal body images (e.g. the two orientations of an EGD
// match) share it. It is built lazily — hot paths use the interned body
// image directly.
func (v Violation) BodyKey() string {
	e := v.entry
	if e == nil {
		if v.Constraint == nil {
			return ""
		}
		e = v.Constraint.vioEntryFor(v.H)
	}
	if k := e.bodyKey.Load(); k != nil {
		return *k
	}
	var b strings.Builder
	for i, f := range e.bodyFacts {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(f.Key())
	}
	k := b.String()
	e.bodyKey.Store(&k)
	return k
}

// bodyPack returns the process-local packed encoding of the body image,
// used as the deletion-operation cache key.
func (v Violation) bodyPack() string {
	if v.entry != nil {
		return v.entry.bodyPack
	}
	if v.Constraint == nil {
		return ""
	}
	return v.Constraint.vioEntryFor(v.H).bodyPack
}

// BodyPack exposes bodyPack for intra-module callers (the repair package's
// deletion cache); the encoding is process-local and must not be persisted.
func (v Violation) BodyPack() string { return v.bodyPack() }

// BodyFacts returns h(ϕ): the (distinct) facts of the body image under h.
// For a violation of D, these facts all belong to D. The slice is shared;
// callers must not modify it.
func (v Violation) BodyFacts() []relation.Fact {
	if v.entry != nil {
		return v.entry.bodyFacts
	}
	if v.Constraint == nil || len(v.Constraint.body) == 0 {
		return nil
	}
	return v.Constraint.vioEntryFor(v.H).bodyFacts
}

// bodyHasFact reports whether h(ϕ) contains the fact; body images are a
// handful of facts, so a linear scan of interned ids beats any hashing.
func (v Violation) bodyHasFact(f relation.Fact) bool {
	for _, g := range v.BodyFacts() {
		if g == f {
			return true
		}
	}
	return false
}

// String renders the violation as (id: constraint, {x -> a, ...}).
func (v Violation) String() string {
	return fmt.Sprintf("(%s: %s, %s)", v.Constraint.id, v.Constraint, v.H)
}

// Violations is the set V(D,Σ) for some database D. It is stored as a
// slice sorted by Violation.ID — violation ids are contiguous per
// constraint, so per-constraint operations work on subranges, membership
// is a binary search, and set difference is a linear merge. Construction
// appends (normalizing lazily on first read), which keeps incremental
// maintenance allocation-light: one slice per update instead of a rebuilt
// hash map.
type Violations struct {
	vs     []Violation
	sorted bool
}

// NewViolations returns an empty violation set.
func NewViolations() *Violations { return &Violations{sorted: true} }

// FindViolations computes V(D,Σ).
func FindViolations(d *relation.Database, s *Set) *Violations {
	vs := NewViolations()
	for _, c := range s.constraints {
		relation.ForEachHom(c.body, d, logic.NewSubst(), func(h logic.Subst) bool {
			if c.violatedBy(d, h) {
				vs.add(NewViolation(c, h))
			}
			return true
		})
	}
	vs.norm()
	return vs
}

// ViolationsOf builds a violation set from an explicit slice (copied, then
// normalized). Callers that already know V(D,Σ) — e.g. a conflict island
// carrying exactly its component's violations — use it to seed downstream
// consumers without re-running the homomorphism search.
func ViolationsOf(vs []Violation) *Violations {
	out := &Violations{vs: append([]Violation(nil), vs...)}
	out.norm()
	return out
}

func (vs *Violations) add(v Violation) {
	if n := len(vs.vs); vs.sorted && n > 0 && vs.vs[n-1].ID() >= v.ID() {
		vs.sorted = false
	}
	vs.vs = append(vs.vs, v)
}

// appendRun bulk-appends a run that is itself ID-sorted and deduplicated
// (a subslice of a normalized set), checking sortedness once at the seam
// instead of once per element. The incremental-maintenance paths copy whole
// per-constraint ranges this way.
func (vs *Violations) appendRun(run []Violation) {
	if len(run) == 0 {
		return
	}
	if n := len(vs.vs); vs.sorted && n > 0 && vs.vs[n-1].ID() >= run[0].ID() {
		vs.sorted = false
	}
	vs.vs = append(vs.vs, run...)
}

// norm sorts the slice by id and drops duplicate ids (adds are idempotent,
// matching the map-based predecessor).
func (vs *Violations) norm() {
	if vs.sorted {
		return
	}
	slices.SortFunc(vs.vs, func(a, b Violation) int {
		ai, bi := a.ID(), b.ID()
		switch {
		case ai < bi:
			return -1
		case ai > bi:
			return 1
		}
		return 0
	})
	out := vs.vs[:0]
	for i, v := range vs.vs {
		if i == 0 || v.ID() != out[len(out)-1].ID() {
			out = append(out, v)
		}
	}
	vs.vs = out
	vs.sorted = true
}

// Len reports the number of violations.
func (vs *Violations) Len() int {
	vs.norm()
	return len(vs.vs)
}

// Empty reports whether there are no violations, i.e. D |= Σ.
func (vs *Violations) Empty() bool {
	vs.norm()
	return len(vs.vs) == 0
}

// search returns the index of id in the sorted slice, or -1.
func (vs *Violations) search(id uint64) int {
	vs.norm()
	lo, hi := 0, len(vs.vs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if vs.vs[mid].ID() < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(vs.vs) && vs.vs[lo].ID() == id {
		return lo
	}
	return -1
}

// Has reports whether the violation with the given interned id is present.
func (vs *Violations) Has(id uint64) bool { return vs.search(id) >= 0 }

// constraintRange returns the subslice of violations belonging to c;
// violation ids are namespaced by the constraint's process-unique number,
// so they occupy a contiguous id range.
func (vs *Violations) constraintRange(c *Constraint) []Violation {
	vs.norm()
	lo := uint64(c.cnum) << 32
	hi := uint64(c.cnum+1) << 32
	start, end := len(vs.vs), len(vs.vs)
	l, r := 0, len(vs.vs)
	for l < r {
		mid := int(uint(l+r) >> 1)
		if vs.vs[mid].ID() < lo {
			l = mid + 1
		} else {
			r = mid
		}
	}
	start = l
	r = len(vs.vs)
	for l < r {
		mid := int(uint(l+r) >> 1)
		if vs.vs[mid].ID() < hi {
			l = mid + 1
		} else {
			r = mid
		}
	}
	end = l
	return vs.vs[start:end]
}

// Get returns the violation with the given interned id.
func (vs *Violations) Get(id uint64) (Violation, bool) {
	if i := vs.search(id); i >= 0 {
		return vs.vs[i], true
	}
	return Violation{}, false
}

// ByID returns the violations sorted by interned id; the slice is shared
// and must not be modified. This is the iteration order hot paths use — it
// is deterministic for a fixed instance but process-dependent; use All for
// the stable canonical order.
func (vs *Violations) ByID() []Violation {
	vs.norm()
	return vs.vs
}

// All returns the violations in deterministic (key-sorted) order, matching
// the order the string-keyed predecessor produced.
func (vs *Violations) All() []Violation {
	vs.norm()
	out := append([]Violation(nil), vs.vs...)
	slices.SortFunc(out, func(a, b Violation) int { return strings.Compare(a.Key(), b.Key()) })
	return out
}

// Keys returns the sorted canonical violation keys.
func (vs *Violations) Keys() []string {
	vs.norm()
	keys := make([]string, 0, len(vs.vs))
	for _, v := range vs.vs {
		keys = append(keys, v.Key())
	}
	sort.Strings(keys)
	return keys
}

// Minus returns the violations of vs whose ids are not in other:
// V(D,Σ) − V(D',Σ). Both sets are id-sorted, so this is a linear merge.
func (vs *Violations) Minus(other *Violations) []Violation {
	vs.norm()
	other.norm()
	var out []Violation
	j := 0
	for _, v := range vs.vs {
		id := v.ID()
		for j < len(other.vs) && other.vs[j].ID() < id {
			j++
		}
		if j >= len(other.vs) || other.vs[j].ID() != id {
			out = append(out, v)
		}
	}
	return out
}

// involvedScanMax is the largest violation set ForEachInvolvedFact
// deduplicates by scanning earlier bodies; larger sets use a hash set so
// the cost stays linear.
const involvedScanMax = 32

// ForEachInvolvedFact calls visit once for every distinct fact of
// InvolvedFacts, in violation order rather than sorted, until visit
// returns false. Up to involvedScanMax violations it allocates nothing: a
// body fact is a repeat iff an earlier body holds it (bodies are a
// handful of distinct facts). Callers that only aggregate over the
// involved facts — the preference generator's normalizing weight under
// TGDs, at every walk step — use it instead of building and sorting the
// set.
func (vs *Violations) ForEachInvolvedFact(visit func(relation.Fact) bool) {
	vs.norm()
	if len(vs.vs) > involvedScanMax {
		seen := make(map[relation.Fact]struct{}, 2*len(vs.vs))
		for _, v := range vs.vs {
			for _, f := range v.BodyFacts() {
				if _, dup := seen[f]; dup {
					continue
				}
				seen[f] = struct{}{}
				if !visit(f) {
					return
				}
			}
		}
		return
	}
	for i, v := range vs.vs {
	facts:
		for _, f := range v.BodyFacts() {
			for _, u := range vs.vs[:i] {
				if u.bodyHasFact(f) {
					continue facts
				}
			}
			if !visit(f) {
				return
			}
		}
	}
}

// InvolvedFacts returns the union of h(ϕ) over all violations: the facts of
// the database that participate in at least one violation. This is the set
// V_Σ(D) of atoms used by the preference generator of Example 4 and the
// localization optimization of Section 6.
func (vs *Violations) InvolvedFacts() []relation.Fact {
	vs.norm()
	seen := map[relation.Fact]struct{}{}
	var out []relation.Fact
	for _, v := range vs.vs {
		for _, f := range v.BodyFacts() {
			if _, dup := seen[f]; !dup {
				seen[f] = struct{}{}
				out = append(out, f)
			}
		}
	}
	relation.SortFacts(out)
	return out
}
