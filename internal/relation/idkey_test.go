package relation

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestIDKeyMatchesSortedFactIDs: the packed key is exactly the database's
// fact ids, sorted ascending, 4 bytes big-endian each — so byte-wise
// lexicographic order on keys equals numeric order on id sequences.
func TestIDKeyMatchesSortedFactIDs(t *testing.T) {
	d := NewDatabase()
	for i := 0; i < 17; i++ {
		d.Insert(NewFact("R", fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i%3)))
	}
	var want []uint32
	for _, f := range d.Facts() {
		want = append(want, f.ID())
	}
	slices.Sort(want)

	key := d.IDKey()
	if len(key) != 4*len(want) {
		t.Fatalf("key length = %d, want %d", len(key), 4*len(want))
	}
	for i, id := range want {
		if got := binary.BigEndian.Uint32([]byte(key[4*i : 4*i+4])); got != id {
			t.Errorf("key[%d] = %d, want %d", i, got, id)
		}
	}

	got := d.AppendFactIDs(nil)
	if !slices.Equal(got, want) {
		t.Errorf("AppendFactIDs = %v, want %v", got, want)
	}
}

// TestIDKeyGroupingMatchesKey is the property suite for the two-tier key
// scheme: across randomized Insert/Delete/Clone/Seal interleavings, two
// databases have equal IDKey iff they have equal legacy Key — the binary
// merge tier and the string presentation tier group identically.
func TestIDKeyGroupingMatchesKey(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// A small closed fact universe so random trajectories collide often.
	var universe []Fact
	for i := 0; i < 12; i++ {
		universe = append(universe, NewFact("S", fmt.Sprintf("c%d", i/4), fmt.Sprintf("d%d", i%4)))
	}

	var dbs []*Database
	seed := NewDatabase()
	for _, f := range universe[:6] {
		seed.Insert(f)
	}
	dbs = append(dbs, seed)
	for step := 0; step < 400; step++ {
		d := dbs[rng.Intn(len(dbs))]
		switch rng.Intn(5) {
		case 0:
			dbs = append(dbs, d.Clone())
		case 1:
			d.Seal()
		case 2, 3:
			d.Insert(universe[rng.Intn(len(universe))])
		case 4:
			d.Delete(universe[rng.Intn(len(universe))])
		}
	}

	for i, a := range dbs {
		ik, sk := a.IDKey(), a.Key()
		for _, b := range dbs[i+1:] {
			sameID := ik == b.IDKey()
			sameKey := sk == b.Key()
			if sameID != sameKey {
				t.Fatalf("grouping disagrees: IDKey equal=%v, Key equal=%v for %s vs %s",
					sameID, sameKey, a, b)
			}
		}
	}
}

// TestAppendFactIDsMergesDeltas: the delta weave (snapshot minus removed
// plus added) equals a from-scratch enumeration at every step of a mixed
// trajectory, including after sealing.
func TestAppendFactIDsMergesDeltas(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var universe []Fact
	for i := 0; i < 20; i++ {
		universe = append(universe, NewFact("T", fmt.Sprintf("x%d", i)))
	}
	d := NewDatabase()
	check := func() {
		t.Helper()
		var want []uint32
		for _, f := range d.Facts() {
			want = append(want, f.ID())
		}
		slices.Sort(want)
		if got := d.AppendFactIDs(make([]uint32, 0, d.Size())); !slices.Equal(got, want) {
			t.Fatalf("AppendFactIDs = %v, want %v (db %s)", got, want, d)
		}
	}
	for step := 0; step < 300; step++ {
		f := universe[rng.Intn(len(universe))]
		switch rng.Intn(4) {
		case 0:
			d.Delete(f)
		case 1:
			if rng.Intn(10) == 0 {
				d.Seal()
			}
			d.Insert(f)
		default:
			d.Insert(f)
		}
		check()
	}
}

// TestKeyMatchesSortedJoin: across random insert/delete/clone/seal
// histories, Key — the snapshot's cached key order merged with the delta
// — is byte for byte the database's fact keys sorted with sort.Strings
// and joined by ';'.
func TestKeyMatchesSortedJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var universe []Fact
	for i := 0; i < 30; i++ {
		// Mixed predicates and argument lengths, so key order differs from
		// id order and from the canonical fact order.
		universe = append(universe, NewFact([]string{"R", "Pref", "S"}[i%3], fmt.Sprintf("c%d", i*7%13), fmt.Sprintf("d%d", i%5)))
	}
	want := func(d *Database) string {
		var keys []string
		for _, f := range d.Facts() {
			keys = append(keys, f.Key())
		}
		sort.Strings(keys)
		return strings.Join(keys, ";")
	}
	dbs := []*Database{NewDatabase()}
	for step := 0; step < 2000; step++ {
		d := dbs[rng.Intn(len(dbs))]
		switch r := rng.Intn(10); {
		case r < 4:
			d.Insert(universe[rng.Intn(len(universe))])
		case r < 7:
			d.Delete(universe[rng.Intn(len(universe))])
		case r < 8:
			d.Seal()
		case r < 9:
			dbs = append(dbs, d.Clone())
		}
		if got, w := d.Key(), want(d); got != w {
			t.Fatalf("step %d: Key = %q, want %q", step, got, w)
		}
	}
}
