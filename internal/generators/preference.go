package generators

import (
	"fmt"
	"math/big"
	"slices"

	"repro/internal/intern"
	"repro/internal/markov"
	"repro/internal/ops"
	"repro/internal/relation"
	"repro/internal/repair"
)

// Preference is the support-based generator of Example 4, defined for a
// schema with a binary preference relation (by default Pref) under the
// denial constraint Pref(x,y), Pref(y,x) → ⊥ stating that preference is
// not symmetric.
//
// The weight w(α, D) of an atom α = Pref(a,b) is the number of facts
// Pref(a, ·) in D (how often a is preferred); the importance I_Σ(α, D) is
// the weight of α relative to all atoms involved in a violation; and the
// probability of removing α is the importance of its symmetric atom
// ᾱ = Pref(b,a). Intuitively, the more support a product has, the more
// likely the facts preferring something over it are to be removed.
//
// The generator assigns probability zero to every non-singleton deletion
// (and to insertions, which never arise for a DC); the singleton deletion
// probabilities sum to 1 because the involved-atom set is closed under the
// symmetry α ↔ ᾱ.
//
// Without TGDs the weights are read off the state's conflict key
// (repair.State.ConflictKey), never off its database or violation set:
// every reachable database is the initial one minus some conflicted
// facts, so w(a, D) is w(a, D₀) minus the deleted conflicted facts
// Pred(a, ·). A table per conflict index and predicate, built once and
// held by the index, gives each conflicted fact's argument weights in D₀;
// a step then costs one pass over the key's bits plus one lookup per
// extension, so neither a walk nor the DAG sweep builds a database for
// the generator. Under TGDs the weights are counted in the database.
type Preference struct {
	// Pred is the preference predicate; empty means "Pref".
	Pred string
}

// Name implements markov.Generator.
func (p Preference) Name() string { return "preference" }

// Memoryless implements markov.Markovian: the importance weights count
// facts of the state's current database (and of its violation set, itself a
// function of the database), never the path that produced it. Note the
// generator is memoryless but NOT local (the weight of an atom counts
// support across the whole database), so the DAG engine applies exactly
// where core.ComputeFactored is unsound.
func (p Preference) Memoryless() bool { return true }

// name returns the preference predicate's name.
func (p Preference) name() string {
	if p.Pred == "" {
		return "Pref"
	}
	return p.Pred
}

// Transitions implements markov.Generator: the probability of deleting
// α = Pref(a,b) is its IntWeights weight w(ᾱ) = w(b, D) over the involved
// total Σ_{β ∈ V_Σ(D)} w(β, D); every other extension has probability 0.
func (p Preference) Transitions(s *repair.State, exts []ops.Op) ([]*big.Rat, error) {
	ws, involved, err := p.weights(s, exts, nil)
	if err != nil {
		return nil, err
	}
	return ratios(s, ws, involved)
}

// ratios divides the extension weights by the involved total.
func ratios(s *repair.State, ws []int64, involved int64) ([]*big.Rat, error) {
	if involved == 0 {
		return nil, zeroTotal(s)
	}
	total := new(big.Rat).SetInt64(involved)
	out := make([]*big.Rat, len(ws))
	for i, w := range ws {
		r := new(big.Rat).SetInt64(w)
		out[i] = r.Quo(r, total)
	}
	return out, nil
}

// IntWeights implements markov.IntWeighter: the preference probabilities
// are ratios of support counts, so walks sample them from raw integer
// weights. The weight of deleting α = Pref(a,b) is w(ᾱ) = w(b, D), and
// Transitions divides it by the involved total Σ_{β ∈ V_Σ(D)} w(β, D).
// The two agree exactly when the extension weights add up to that total
// (the symmetry-closure property of Example 4), so IntWeights declines
// (ok = false) otherwise and lets markov.Step judge the chain.
func (p Preference) IntWeights(s *repair.State, exts []ops.Op, dst []int64) (ws []int64, ok bool, err error) {
	ws, involved, err := p.weights(s, exts, dst)
	if err == nil {
		ok, err = agree(s, ws[len(dst):], involved)
	}
	return ws, ok, err
}

// agree reports whether the extension weights ws sum to the involved
// total; it fails when they sum to zero.
func agree(s *repair.State, ws []int64, involved int64) (bool, error) {
	var total int64
	for _, w := range ws {
		total += w
	}
	if total == 0 {
		return false, zeroTotal(s)
	}
	return total == involved, nil
}

func zeroTotal(s *repair.State) error {
	return fmt.Errorf("generators: preference generator has zero total weight at state %q", s)
}

func badShape(f relation.Fact, pred intern.Sym) error {
	return fmt.Errorf("generators: preference generator saw violation atom %s outside %s/2", f, pred)
}

// weights appends to dst the weight of every extension — w(b, D) for the
// single deletion of Pref(a,b), 0 for any other operation — and returns
// the involved total Σ_{β ∈ V_Σ(D)} w(β, D). It fails when an involved
// atom is not Pred/2. Without TGDs it reads the state's conflict key,
// under TGDs its database.
func (p Preference) weights(s *repair.State, exts []ops.Op, dst []int64) ([]int64, int64, error) {
	k, ok := s.ConflictKey()
	if !ok {
		return p.databaseWeights(s, exts, dst)
	}
	t := k.Index().Table(repair.TableKey{Kind: "generators.Preference", Arg: p.name()}, func(ix *repair.ConflictIndex) any {
		return newPrefTable(ix, s.Instance().Initial(), intern.S(p.name()))
	}).(*prefTable)
	return t.weights(&k, exts, dst)
}

// prefTable is the preference weights of a TGD-free instance, per key bit.
// The constants that are an argument of a conflicted Pred/2 fact are
// numbered; w0[c] is w(c, D₀), the number of Pred/2 facts of the initial
// database with first argument c. A state's weight w(c, D) is w0[c] minus
// the conflicted facts with first argument c that its key no longer holds
// — the group of bits first[i] == c.
type prefTable struct {
	pred intern.Sym
	w0   []int64
	// first[i] and second[i] number the arguments of bit i's fact, or are
	// -1 when that fact is not Pred/2.
	first, second []int32
	// badBody lists, ascending, the root bodies holding a fact outside
	// Pred/2, and badBit the first such fact of each, in body order: the
	// fact the database path's violation scan meets first.
	badBody, badBit []int32
}

// newPrefTable builds the table of the index's conflicted facts over the
// initial database db.
func newPrefTable(ix *repair.ConflictIndex, db *relation.Database, pred intern.Sym) *prefTable {
	t := &prefTable{pred: pred, first: make([]int32, ix.Conflicted()), second: make([]int32, ix.Conflicted())}
	num := map[intern.Sym]int32{}
	constant := func(c intern.Sym) int32 {
		n, ok := num[c]
		if !ok {
			n = int32(len(t.w0))
			num[c] = n
			t.w0 = append(t.w0, databaseWeight(db, pred, c))
		}
		return n
	}
	for i := range t.first {
		f := ix.Fact(i)
		if f.Pred() != pred || f.Arity() != 2 {
			t.first[i], t.second[i] = -1, -1
			continue
		}
		t.first[i], t.second[i] = constant(f.Args()[0]), constant(f.Args()[1])
	}
	for b := range ix.Bodies() {
		for _, i := range ix.Body(b) {
			if t.first[i] < 0 {
				t.badBody, t.badBit = append(t.badBody, int32(b)), append(t.badBit, i)
				break
			}
		}
	}
	return t
}

// weights is Preference.weights on a conflict key, in one pass over the
// key's bits plus one bit lookup per extension. The current weights
// w(c, D) are staged in dst's spare capacity past the extension weights,
// so a caller that reuses its buffer, as every engine does, allocates
// nothing once warm.
func (t *prefTable) weights(k *repair.ConflictKey, exts []ops.Op, dst []int64) ([]int64, int64, error) {
	ix := k.Index()
	// The database path scans the violations by id and each body in
	// order, so the first held body with a bad fact names the same fact.
	for j, b := range t.badBody {
		if k.HoldsBody(int(b)) {
			return dst, 0, badShape(ix.Fact(int(t.badBit[j])), t.pred)
		}
	}
	n := len(dst)
	dst = slices.Grow(dst, len(exts)+len(t.w0))
	cur := append(dst[n+len(exts):n+len(exts)], t.w0...)
	for i, c := range t.first {
		if c >= 0 && !k.Holds(i) {
			cur[c]--
		}
	}
	// Every involved fact is Pred/2: a held body with another fact failed
	// above.
	var involved int64
	for i, c := range t.first {
		if c >= 0 && k.Involved(i) {
			involved += cur[c]
		}
	}
	for _, op := range exts {
		var w int64
		if op.IsDelete() && op.Size() == 1 {
			if i := ix.Bit(op.Facts()[0]); i >= 0 && t.second[i] >= 0 {
				w = cur[t.second[i]]
			}
		}
		dst = append(dst, w)
	}
	return dst, involved, nil
}

// databaseWeights is Preference.weights counted in the state's database
// and violation set: the path under TGDs, whose states have no conflict
// key.
func (p Preference) databaseWeights(s *repair.State, exts []ops.Op, dst []int64) ([]int64, int64, error) {
	db := s.Result()
	pred := intern.S(p.name())
	var involved int64
	var bad relation.Fact
	badFact := false
	s.Violations().ForEachInvolvedFact(func(f relation.Fact) bool {
		if f.Pred() != pred || f.Arity() != 2 {
			bad, badFact = f, true
			return false
		}
		involved += databaseWeight(db, pred, f.Args()[0])
		return true
	})
	if badFact {
		return dst, 0, badShape(bad, pred)
	}
	for _, op := range exts {
		var w int64
		if op.IsDelete() && op.Size() == 1 {
			w = databaseWeight(db, pred, op.Facts()[0].Args()[1])
		}
		dst = append(dst, w)
	}
	return dst, involved, nil
}

// databaseWeight returns w(a, D): the number of Pred/2 facts Pred(a, ·) of
// db. It probes the per-position index bucket of (Pred, 0, a) — plus any
// pending delta — instead of scanning the whole relation.
func databaseWeight(db *relation.Database, pred intern.Sym, a intern.Sym) int64 {
	var n int64
	db.ForEachAt(pred, 0, a, func(f relation.Fact) bool {
		if f.Arity() == 2 {
			n++
		}
		return true
	})
	return n
}

var (
	_ markov.Generator   = Preference{}
	_ markov.IntWeighter = Preference{}
	_ markov.Markovian   = Preference{}
)
