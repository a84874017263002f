package constraint

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/intern"
	"repro/internal/logic"
	"repro/internal/relation"
)

// Kind distinguishes the constraint classes.
type Kind int

const (
	// TGD is a tuple-generating dependency ∀x̄∀ȳ (ϕ(x̄,ȳ) → ∃z̄ ψ(x̄,z̄)).
	TGD Kind = iota
	// EGD is an equality-generating dependency ∀x̄ (ϕ(x̄) → xi = xj).
	EGD
	// DC is a denial constraint ∀x̄ ¬ϕ(x̄).
	DC
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case TGD:
		return "TGD"
	case EGD:
		return "EGD"
	case DC:
		return "DC"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// cnumCounter hands every constraint a process-unique number; violation
// identities are namespaced by it, so violations of structurally equal
// constraints in different sets never collide.
var cnumCounter atomic.Uint32

// Constraint is a single TGD, EGD, or DC. Universal quantifiers are
// implicit: every variable of the body is universally quantified; variables
// appearing only in a TGD head are existentially quantified.
//
// Constraints are immutable after construction through the NewXxx helpers.
// Each constraint owns an intern table for its violations: a violation is
// identified by the tuple of constants bound to the universal variables (in
// first-occurrence order), interned to a dense id whose high word is the
// constraint's process-unique number. Violation identity checks — the req2
// bookkeeping, incremental maintenance, set membership — are therefore
// integer comparisons, and a violation's body image is computed once per
// distinct violation instead of once per state.
type Constraint struct {
	id   string
	kind Kind
	body []logic.Atom
	head []logic.Atom // TGD only
	left logic.Term   // EGD only
	rght logic.Term   // EGD only

	cnum     uint32
	uvars    []intern.Sym // universal variable symbols, first-occurrence order
	exvars   []logic.Term // TGD: head variables not in the body
	vioMu    sync.RWMutex
	vioIDs   map[string]uint32
	vioSlice atomic.Pointer[[]*vioEntry]
}

// vioEntry is the interned identity and cached derived data of a violation.
type vioEntry struct {
	id        uint64
	h         logic.Subst // canonical binding of the universal variables
	bodyFacts []relation.Fact
	bodyPack  string // packed sorted body fact ids (process-local cache key)
	// legacyKey caches constraint id + "|" + h.Key(), the stable encoding,
	// built on first Key call: only diagnostics, Violations.All/Keys, the
	// trust generator and null naming read it, so interning never pays
	// for the per-binding rendering.
	legacyKey atomic.Pointer[string]
	bodyKey   atomic.Pointer[string]
}

// NewTGD builds the TGD body → ∃z̄ head, where z̄ are the head variables not
// occurring in the body.
func NewTGD(body, head []logic.Atom) (*Constraint, error) {
	c := &Constraint{kind: TGD, body: body, head: head}
	if err := c.validate(); err != nil {
		return nil, err
	}
	c.finish()
	return c, nil
}

// NewEGD builds the EGD body → left = right.
func NewEGD(body []logic.Atom, left, right logic.Term) (*Constraint, error) {
	c := &Constraint{kind: EGD, body: body, left: left, rght: right}
	if err := c.validate(); err != nil {
		return nil, err
	}
	c.finish()
	return c, nil
}

// NewDC builds the denial constraint ¬body.
func NewDC(body []logic.Atom) (*Constraint, error) {
	c := &Constraint{kind: DC, body: body}
	if err := c.validate(); err != nil {
		return nil, err
	}
	c.finish()
	return c, nil
}

// MustTGD is NewTGD that panics on error; for constraints that are valid by
// construction (tests, examples).
func MustTGD(body, head []logic.Atom) *Constraint {
	c, err := NewTGD(body, head)
	if err != nil {
		panic(err)
	}
	return c
}

// MustEGD is NewEGD that panics on error.
func MustEGD(body []logic.Atom, left, right logic.Term) *Constraint {
	c, err := NewEGD(body, left, right)
	if err != nil {
		panic(err)
	}
	return c
}

// MustDC is NewDC that panics on error.
func MustDC(body []logic.Atom) *Constraint {
	c, err := NewDC(body)
	if err != nil {
		panic(err)
	}
	return c
}

// finish populates the caches of a validated constraint.
func (c *Constraint) finish() {
	c.cnum = cnumCounter.Add(1)
	c.uvars = logic.VarSymsOf(c.body)
	if c.kind == TGD {
		bodyVars := map[intern.Sym]bool{}
		for _, v := range c.uvars {
			bodyVars[v] = true
		}
		for _, v := range logic.VarsOf(c.head) {
			if !bodyVars[v.Sym()] {
				c.exvars = append(c.exvars, v)
			}
		}
	}
	c.vioIDs = map[string]uint32{}
	initial := make([]*vioEntry, 1, 16)
	c.vioSlice.Store(&initial)
}

func (c *Constraint) validate() error {
	if len(c.body) == 0 {
		return errors.New("constraint body must be a non-empty conjunction of atoms")
	}
	switch c.kind {
	case TGD:
		if len(c.head) == 0 {
			return errors.New("TGD head must be a non-empty conjunction of atoms")
		}
	case EGD:
		if !c.left.IsVar() || !c.rght.IsVar() {
			return errors.New("EGD equality must relate two variables")
		}
		bodyVars := map[intern.Sym]bool{}
		for _, v := range logic.VarsOf(c.body) {
			bodyVars[v.Sym()] = true
		}
		if !bodyVars[c.left.Sym()] || !bodyVars[c.rght.Sym()] {
			return fmt.Errorf("EGD equality variables %s, %s must occur in the body",
				c.left.Name(), c.rght.Name())
		}
		if c.left == c.rght {
			return errors.New("EGD equality x = x is trivially satisfied")
		}
	case DC:
		if len(c.head) != 0 {
			return errors.New("DC must not have a head")
		}
	default:
		return fmt.Errorf("unknown constraint kind %d", int(c.kind))
	}
	return nil
}

// ID returns the constraint's identifier within its Set ("" before the
// constraint is added to a Set).
func (c *Constraint) ID() string { return c.id }

// Kind reports the constraint class.
func (c *Constraint) Kind() Kind { return c.kind }

// Body returns the body conjunction ϕ. The slice must not be modified.
func (c *Constraint) Body() []logic.Atom { return c.body }

// Head returns the head conjunction ψ of a TGD (nil otherwise). The slice
// must not be modified.
func (c *Constraint) Head() []logic.Atom { return c.head }

// Equality returns the two variables related by an EGD (zero terms
// otherwise).
func (c *Constraint) Equality() (left, right logic.Term) { return c.left, c.rght }

// UniversalVars returns the distinct variables of the body in order of
// first occurrence; these are the universally quantified variables and the
// domain of every violation homomorphism.
func (c *Constraint) UniversalVars() []logic.Term {
	out := make([]logic.Term, len(c.uvars))
	for i, s := range c.uvars {
		out[i] = logic.VarSym(s)
	}
	return out
}

// ExistentialVars returns, for a TGD, the head variables that do not occur
// in the body (the existentially quantified z̄); nil for EGDs and DCs. The
// slice is cached and must not be modified.
func (c *Constraint) ExistentialVars() []logic.Term { return c.exvars }

// Consts returns the distinct constants mentioned by the constraint.
func (c *Constraint) Consts() []logic.Term {
	atoms := append([]logic.Atom{}, c.body...)
	atoms = append(atoms, c.head...)
	return logic.ConstsOf(atoms)
}

// String renders the constraint in the text format accepted by the parser.
func (c *Constraint) String() string {
	var b strings.Builder
	b.WriteString(logic.AtomsString(c.body))
	switch c.kind {
	case TGD:
		b.WriteString(" -> ")
		if ex := c.ExistentialVars(); len(ex) > 0 {
			b.WriteString("exists ")
			for i, v := range ex {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString(v.Name())
			}
			b.WriteString(": ")
		}
		b.WriteString(logic.AtomsString(c.head))
	case EGD:
		b.WriteString(" -> ")
		b.WriteString(c.left.Name())
		b.WriteString(" = ")
		b.WriteString(c.rght.Name())
	case DC:
		b.WriteString(" -> false")
	}
	return b.String()
}

// Satisfied reports whether the database satisfies the constraint:
//
//   - a TGD holds when every body homomorphism extends to a head
//     homomorphism;
//   - an EGD holds when every body homomorphism equates the two variables;
//   - a DC holds when the body has no homomorphism into the database.
func (c *Constraint) Satisfied(d *relation.Database) bool {
	ok := true
	relation.ForEachHom(c.body, d, logic.NewSubst(), func(h logic.Subst) bool {
		if c.violatedBy(d, h) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// violatedBy reports whether the body homomorphism h witnesses a violation
// of c in d.
func (c *Constraint) violatedBy(d *relation.Database, h logic.Subst) bool {
	switch c.kind {
	case TGD:
		return !relation.HasHom(c.head, d, h)
	case EGD:
		l, _ := h.Lookup(c.left.Sym())
		r, _ := h.Lookup(c.rght.Sym())
		return l != r
	case DC:
		return true
	}
	return false
}

// vioEntryFor interns the violation of c witnessed by h (which must bind
// every universal variable) and returns its cached entry; the body image,
// identity, and canonical encodings are computed once per distinct
// violation process-wide.
func (c *Constraint) vioEntryFor(h logic.Subst) *vioEntry {
	var stack [64]byte
	var vals [16]intern.Sym
	uvals := vals[:0]
	for _, v := range c.uvars {
		uvals = append(uvals, h[v])
	}
	key := intern.PackSyms(stack[:0], uvals)
	c.vioMu.RLock()
	local, ok := c.vioIDs[string(key)]
	c.vioMu.RUnlock()
	if ok {
		return (*c.vioSlice.Load())[local]
	}
	c.vioMu.Lock()
	defer c.vioMu.Unlock()
	if local, ok := c.vioIDs[string(key)]; ok {
		return (*c.vioSlice.Load())[local]
	}

	canon := make(logic.Subst, len(c.uvars))
	for _, v := range c.uvars {
		canon[v] = h[v]
	}
	e := &vioEntry{h: canon}
	for _, a := range canon.ApplyAtoms(c.body) {
		f := relation.MustFactFromAtom(a)
		dup := false
		for _, g := range e.bodyFacts {
			if g == f {
				dup = true
				break
			}
		}
		if !dup {
			e.bodyFacts = append(e.bodyFacts, f)
		}
	}
	relation.SortFacts(e.bodyFacts)
	ids := make([]uint32, len(e.bodyFacts))
	for i, f := range e.bodyFacts {
		ids[i] = f.ID()
	}
	e.bodyPack = string(intern.PackTuple(make([]byte, 0, 4*len(ids)), ids))

	cur := *c.vioSlice.Load()
	local = uint32(len(cur))
	e.id = uint64(c.cnum)<<32 | uint64(local)
	next := append(cur, e)
	c.vioIDs[string(key)] = local
	c.vioSlice.Store(&next)
	return e
}

// refreshViolationKeys drops the cached canonical keys of already
// interned violations; Set.Add calls it when it assigns the constraint its
// id, so violations keyed before the constraint joined a set render with
// the final id on their next Key call (a Set must not be mutated once
// violations are shared between goroutines, which makes this safe).
func (c *Constraint) refreshViolationKeys() {
	c.vioMu.Lock()
	defer c.vioMu.Unlock()
	for _, e := range (*c.vioSlice.Load())[1:] {
		e.legacyKey.Store(nil)
	}
}
