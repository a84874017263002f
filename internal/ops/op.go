package ops

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/relation"
)

// Op is a single operation +F or −F over a set of facts F ⊆ B(D,Σ).
// The fact set is non-empty, deduplicated, and canonically sorted.
// The zero Op is invalid; construct with Insert or Delete.
//
// Operations are interned by content (polarity plus the sorted fact ids),
// so identity checks and deduplication during extension enumeration are
// pointer comparisons, and the canonical string key of each distinct
// operation is built exactly once per process.
type Op struct {
	insert bool
	entry  *opEntry
}

type opEntry struct {
	facts []relation.Fact // canonical order, shared
	key   string          // canonical encoding including polarity
}

var (
	opMu  sync.RWMutex
	opIDs = map[string]*opEntry{}
)

// Insert returns the operation +F.
func Insert(fs ...relation.Fact) Op { return newOp(true, fs) }

// Delete returns the operation −F.
func Delete(fs ...relation.Fact) Op { return newOp(false, fs) }

func newOp(insert bool, fs []relation.Fact) Op {
	if len(fs) == 0 {
		panic("ops: operation over an empty fact set")
	}
	seen := make(map[relation.Fact]struct{}, len(fs))
	facts := make([]relation.Fact, 0, len(fs))
	for _, f := range fs {
		if _, dup := seen[f]; !dup {
			seen[f] = struct{}{}
			facts = append(facts, f)
		}
	}
	relation.SortFacts(facts)

	var stack [64]byte
	packed := stack[:0]
	if insert {
		packed = append(packed, '+')
	} else {
		packed = append(packed, '-')
	}
	for _, f := range facts {
		id := f.ID()
		packed = append(packed, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	opMu.RLock()
	e, ok := opIDs[string(packed)]
	opMu.RUnlock()
	if ok {
		return Op{insert: insert, entry: e}
	}
	opMu.Lock()
	defer opMu.Unlock()
	if e, ok := opIDs[string(packed)]; ok {
		return Op{insert: insert, entry: e}
	}
	var b strings.Builder
	if insert {
		b.WriteByte('+')
	} else {
		b.WriteByte('-')
	}
	for i, f := range facts {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(f.Key())
	}
	e = &opEntry{facts: facts, key: b.String()}
	opIDs[string(packed)] = e
	return Op{insert: insert, entry: e}
}

// IsInsert reports whether the operation is +F.
func (o Op) IsInsert() bool { return o.insert }

// IsDelete reports whether the operation is −F.
func (o Op) IsDelete() bool { return !o.insert }

// Facts returns F in canonical order; the slice must not be modified.
func (o Op) Facts() []relation.Fact {
	if o.entry == nil {
		return nil
	}
	return o.entry.facts
}

// Size reports |F|.
func (o Op) Size() int { return len(o.Facts()) }

// Key returns the canonical encoding of the operation, usable as a map
// key; it is computed once per distinct operation.
func (o Op) Key() string {
	if o.entry == nil {
		return ""
	}
	return o.entry.key
}

// String renders the operation like the paper: +R(a, b) for singletons,
// +{R(a, b), S(c)} for larger sets.
func (o Op) String() string {
	sign := "+"
	if !o.insert {
		sign = "-"
	}
	facts := o.Facts()
	if len(facts) == 1 {
		return sign + facts[0].String()
	}
	parts := make([]string, len(facts))
	for i, f := range facts {
		parts[i] = f.String()
	}
	return fmt.Sprintf("%s{%s}", sign, strings.Join(parts, ", "))
}

// Equal reports whether two operations are identical; interning makes this
// a pointer comparison.
func (o Op) Equal(p Op) bool { return o.insert == p.insert && o.entry == p.entry }

// Apply returns op(D) as a fresh database, leaving d untouched.
func (o Op) Apply(d *relation.Database) *relation.Database {
	out := d.Clone()
	o.Do(out)
	return out
}

// Do applies the operation to d in place and returns the facts that
// actually changed (were inserted or removed); feeding those to Undo
// restores d exactly. When every fact changed — always, for an operation
// justified at d — the result is the operation's own fact slice, so
// callers must not modify it.
func (o Op) Do(d *relation.Database) []relation.Fact {
	facts := o.Facts()
	var changed []relation.Fact
	for i, f := range facts {
		var ok bool
		if o.insert {
			ok = d.Insert(f)
		} else {
			ok = d.Delete(f)
		}
		// changed stays nil while every fact so far changed; the first
		// unchanged fact starts a copy of the prefix that did.
		switch {
		case !ok && changed == nil:
			changed = append(make([]relation.Fact, 0, len(facts)), facts[:i]...)
		case ok && changed != nil:
			changed = append(changed, f)
		}
	}
	if changed == nil {
		return facts
	}
	return changed
}

// Undo reverts a previous Do given its returned change set.
func (o Op) Undo(d *relation.Database, changed []relation.Fact) {
	for _, f := range changed {
		if o.insert {
			d.Delete(f)
		} else {
			d.Insert(f)
		}
	}
}

// InBase reports whether every fact of the operation lies in the base, as
// Definition 1 requires.
func (o Op) InBase(b *relation.Base) bool { return b.ContainsAll(o.Facts()) }

// SortOps orders operations canonically (by key) for deterministic output;
// keys are interned, so no strings are built.
func SortOps(os []Op) {
	slices.SortFunc(os, func(a, b Op) int { return strings.Compare(a.Key(), b.Key()) })
}
