package abc

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/constraint"
	"repro/internal/logic"
	"repro/internal/relation"
)

func partitionSet(t *testing.T) *constraint.Set {
	t.Helper()
	x, y, z := logic.Var("x"), logic.Var("y"), logic.Var("z")
	key := constraint.MustEGD(
		[]logic.Atom{logic.NewAtom("R", x, y), logic.NewAtom("R", x, z)},
		y, z,
	)
	dc := constraint.MustDC([]logic.Atom{
		logic.NewAtom("E", x, y),
		logic.NewAtom("E", y, z),
	})
	return constraint.NewSet(key, dc)
}

func randomPartitionDB(rng *rand.Rand) *relation.Database {
	dom := []string{"a", "b", "c", "d", "e"}
	d := relation.NewDatabase()
	n := 2 + rng.Intn(10)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			d.Insert(relation.NewFact("R", dom[rng.Intn(5)], dom[rng.Intn(5)]))
		} else {
			d.Insert(relation.NewFact("E", dom[rng.Intn(5)], dom[rng.Intn(5)]))
		}
	}
	return d
}

// TestNewPartitionMatchesConflictGraph: the partition's islands are exactly
// ConflictGraph.Components over the same violations, in the same order, and
// IslandOf inverts the fact→island relation.
func TestNewPartitionMatchesConflictGraph(t *testing.T) {
	set := partitionSet(t)
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomPartitionDB(rng)
		vs := constraint.FindViolations(d, set)
		p := NewPartition(vs)
		want := NewConflictGraph(vs).Components()
		if !reflect.DeepEqual(p.Components(), want) {
			t.Logf("seed %d: partition %v, conflict graph %v", seed, p.Components(), want)
			return false
		}
		for _, isl := range p.Islands() {
			for _, f := range isl.Facts {
				if p.IslandOf(f) != isl {
					t.Logf("seed %d: IslandOf(%s) does not return its island", seed, f)
					return false
				}
			}
		}
		nvios := 0
		for _, isl := range p.Islands() {
			nvios += len(isl.Violations())
		}
		if nvios != vs.Len() {
			t.Logf("seed %d: islands hold %d violations, want %d", seed, nvios, vs.Len())
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPartitionUpdateMatchesRebuild: a chain of random single-fact updates,
// each maintained incrementally via UpdateViolationsDelta + Update, always
// matches the from-scratch partition of the current database — islands,
// order, violations, and the fact index. Along the way every returned fresh island must carry a nil
// Payload and every island outside the churn must be shared by pointer.
func TestPartitionUpdateMatchesRebuild(t *testing.T) {
	set := partitionSet(t)
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomPartitionDB(rng)
		vs := constraint.FindViolations(d, set)
		p := NewPartition(vs)
		for _, isl := range p.Islands() {
			isl.Payload = isl // mark: pre-existing island
		}
		dom := []string{"a", "b", "c", "d", "e"}
		steps := 30 + rng.Intn(20)
		for s := 0; s < steps; s++ {
			var f relation.Fact
			if rng.Intn(2) == 0 {
				f = relation.NewFact("R", dom[rng.Intn(5)], dom[rng.Intn(5)])
			} else {
				f = relation.NewFact("E", dom[rng.Intn(5)], dom[rng.Intn(5)])
			}
			insert := rng.Intn(2) == 0
			var ok bool
			if insert {
				ok = d.Insert(f)
			} else {
				ok = d.Delete(f)
			}
			if !ok {
				continue
			}
			after, elim, intro := constraint.UpdateViolationsDelta(d, set, vs, []relation.Fact{f}, insert)
			next, fresh, removed := p.Update(elim, intro, []relation.Fact{f})
			vs = after

			for _, isl := range fresh {
				if isl.Payload != nil {
					t.Logf("seed %d step %d: fresh island has a payload", seed, s)
					return false
				}
				isl.Payload = isl
			}
			rem := map[*Island]bool{}
			for _, isl := range removed {
				rem[isl] = true
			}
			for _, isl := range next.Islands() {
				if rem[isl] {
					t.Logf("seed %d step %d: removed island still listed", seed, s)
					return false
				}
				if isl.Payload == nil {
					t.Logf("seed %d step %d: island lost its payload", seed, s)
					return false
				}
			}
			p = next

			want := NewPartition(constraint.FindViolations(d, set))
			if !reflect.DeepEqual(p.Components(), want.Components()) {
				t.Logf("seed %d step %d: incremental %v, rebuild %v", seed, s, p.Components(), want.Components())
				return false
			}
			for _, isl := range p.Islands() {
				for _, g := range isl.Facts {
					if p.IslandOf(g) != isl {
						t.Logf("seed %d step %d: index maps %s to the wrong island", seed, s, g)
						return false
					}
				}
			}
			for _, g := range d.Facts() {
				if p.IslandOf(g) != nil && !factInIslands(p, g) {
					t.Logf("seed %d step %d: stale index entry for %s", seed, s, g)
					return false
				}
			}
			nvios := 0
			for _, isl := range p.Islands() {
				nvios += len(isl.Violations())
			}
			if nvios != vs.Len() {
				t.Logf("seed %d step %d: islands hold %d violations, want %d", seed, s, nvios, vs.Len())
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func factInIslands(p *Partition, f relation.Fact) bool {
	isl := p.IslandOf(f)
	for _, g := range isl.Facts {
		if g == f {
			return true
		}
	}
	return false
}

// TestPartitionUpdateNoChurnSharing: an update outside the conflict region
// returns the same partition with no churn.
func TestPartitionUpdateNoChurnSharing(t *testing.T) {
	set := partitionSet(t)
	d := relation.FromFacts(
		relation.NewFact("R", "a", "b"),
		relation.NewFact("R", "a", "c"),
	)
	vs := constraint.FindViolations(d, set)
	p := NewPartition(vs)
	if p.Len() != 1 {
		t.Fatalf("want 1 island, got %d", p.Len())
	}
	f := relation.NewFact("R", "z", "w")
	if !d.Insert(f) {
		t.Fatal("insert was a no-op")
	}
	_, elim, intro := constraint.UpdateViolationsDelta(d, set, vs, []relation.Fact{f}, true)
	next, fresh, removed := p.Update(elim, intro, []relation.Fact{f})
	if next != p || fresh != nil || removed != nil {
		t.Fatalf("clean insert churned the partition: fresh=%v removed=%v", fresh, removed)
	}
}

// partitionView is everything a reader can observe of a partition over a
// fixed fact universe, captured as values so a later update that mutated
// shared structure would show up as a difference.
type partitionView struct {
	Len, NumViolations int
	Islands            [][]relation.Fact
	Violations         [][]uint64
	IslandOf           [][]relation.Fact // per universe fact; nil when in no island
}

func viewOf(p *Partition, universe []relation.Fact) partitionView {
	v := partitionView{Len: p.Len(), NumViolations: p.NumViolations()}
	for _, isl := range p.Islands() {
		v.Islands = append(v.Islands, slices.Clone(isl.Facts))
		var ids []uint64
		for _, x := range isl.Violations() {
			ids = append(ids, x.ID())
		}
		v.Violations = append(v.Violations, ids)
	}
	for _, f := range universe {
		var facts []relation.Fact
		if isl := p.IslandOf(f); isl != nil {
			facts = slices.Clone(isl.Facts)
		}
		v.IslandOf = append(v.IslandOf, facts)
	}
	return v
}

// FuzzPartitionUpdate drives a partition through random insert/delete
// toggles the way the resident server does — an insertion's violations
// from the semi-naive search, a deletion's from its fact's island — and
// checks after every update that the partition observes exactly like a
// from-scratch NewPartition of the current database (island order and
// facts, each island's ID-sorted violations, the counts, and IslandOf over
// every fact of the universe), and that every earlier partition in the
// lineage still observes exactly as it did when it was made: readers
// holding an old snapshot are isolated from later updates.
func FuzzPartitionUpdate(f *testing.F) {
	f.Add([]byte{0x00, 0x11, 0x21, 0x12, 0x00})
	f.Add([]byte{0x13, 0x35, 0x57, 0x79, 0x9b, 0x13, 0x57})
	f.Add([]byte{0x02, 0x24, 0x46, 0x68, 0x8a, 0xac, 0x24, 0x68, 0x02})
	set := constraint.NewSet(
		constraint.MustEGD([]logic.Atom{logic.NewAtom("R", logic.Var("x"), logic.Var("y")), logic.NewAtom("R", logic.Var("x"), logic.Var("z"))}, logic.Var("y"), logic.Var("z")),
		constraint.MustDC([]logic.Atom{logic.NewAtom("E", logic.Var("x"), logic.Var("y")), logic.NewAtom("E", logic.Var("y"), logic.Var("z"))}),
	)
	dom := []string{"a", "b", "c", "d", "e"}
	var universe []relation.Fact
	for _, pred := range []string{"R", "E"} {
		for _, x := range dom {
			for _, y := range dom {
				universe = append(universe, relation.NewFact(pred, x, y))
			}
		}
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		d := relation.NewDatabase()
		p := NewPartition(constraint.FindViolations(d, set))
		type published struct {
			p    *Partition
			view partitionView
		}
		lineage := []published{{p, viewOf(p, universe)}}
		for step, b := range ops {
			fact := universe[int(b)%len(universe)]
			insert := !d.Contains(fact)
			changed := []relation.Fact{fact}
			var elim, intro []constraint.Violation
			if insert {
				d.Insert(fact)
				intro = constraint.IntroducedViolations(d, set, nil, changed, true)
			} else {
				d.Delete(fact)
				if isl := p.IslandOf(fact); isl != nil {
					elim = constraint.EliminatedBy(isl.Violations(), changed, nil)
				}
			}
			p, _, _ = p.Update(elim, intro, changed)

			want := viewOf(NewPartition(constraint.FindViolations(d, set)), universe)
			if got := viewOf(p, universe); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d (%s insert=%v): incremental partition\n  %+v\nrebuild\n  %+v", step, fact, insert, got, want)
			}
			lineage = append(lineage, published{p, want})
			for i, old := range lineage {
				if got := viewOf(old.p, universe); !reflect.DeepEqual(got, old.view) {
					t.Fatalf("step %d: partition %d of the lineage changed after publication", step, i)
				}
			}
		}
	})
}
