package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/intern"
	"repro/internal/relation"
	"repro/internal/workload"
)

// canonPreds are the predicates of the random structures: unary, two
// binary, and ternary.
var canonPreds = []struct {
	name  string
	arity int
}{{"CanonU", 1}, {"CanonE", 2}, {"CanonF", 2}, {"CanonT", 3}}

// randomStructure draws up to nfacts distinct facts over the constants
// tag_0..tag_{m-1}, arguments drawn with repetition (so E(a, a) occurs).
func randomStructure(rng *rand.Rand, tag string, m, nfacts int) []relation.Fact {
	seen := map[relation.Fact]bool{}
	var facts []relation.Fact
	for tries := 0; len(facts) < nfacts && tries < 8*nfacts; tries++ {
		p := canonPreds[rng.Intn(len(canonPreds))]
		args := make([]string, p.arity)
		for i := range args {
			args[i] = fmt.Sprintf("%s_%d", tag, rng.Intn(m))
		}
		fa := relation.NewFact(p.name, args...)
		if !seen[fa] {
			seen[fa] = true
			facts = append(facts, fa)
		}
	}
	relation.SortFacts(facts)
	return facts
}

// renamedCopy maps the constants of facts through a random bijection onto
// fresh names under tag and shuffles the fact order.
func renamedCopy(rng *rand.Rand, facts []relation.Fact, tag string) []relation.Fact {
	var consts []intern.Sym
	for _, fa := range facts {
		consts = append(consts, fa.Args()...)
	}
	slices.Sort(consts)
	consts = slices.Compact(consts)
	perm := rng.Perm(len(consts))
	ren := map[intern.Sym]intern.Sym{}
	for i, c := range consts {
		ren[c] = intern.S(fmt.Sprintf("%s_%d", tag, perm[i]))
	}
	out := make([]relation.Fact, len(facts))
	for i, fa := range facts {
		out[i] = renameFact(fa, ren)
	}
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// bruteForm is the reference canonical form: the lexicographically
// smallest sorted tuple list over every labelling of the constants
// (m! of them), with predicates ranked by name. Two fact sets have equal
// forms exactly when they are isomorphic up to constant renaming.
func bruteForm(facts []relation.Fact) string {
	var consts []intern.Sym
	for _, fa := range facts {
		consts = append(consts, fa.Args()...)
	}
	slices.Sort(consts)
	consts = slices.Compact(consts)
	index := map[intern.Sym]int{}
	for i, c := range consts {
		index[c] = i
	}
	predRank := map[string]uint64{}
	for i, p := range canonPreds {
		predRank[p.name] = uint64(i)
	}
	type enc struct {
		pred uint64
		args []int
	}
	encs := make([]enc, len(facts))
	for i, fa := range facts {
		encs[i].pred = predRank[fa.PredName()]
		for _, a := range fa.Args() {
			encs[i].args = append(encs[i].args, index[a])
		}
	}
	label := make([]int, len(consts))
	for i := range label {
		label[i] = i
	}
	cur := make([]uint64, len(facts))
	var best []uint64
	visit := func() {
		for i, e := range encs {
			w := e.pred<<40 | uint64(len(e.args))<<32
			for j, a := range e.args {
				w |= uint64(label[a]) << (8 * (2 - j))
			}
			cur[i] = w
		}
		slices.Sort(cur)
		if best == nil || slices.Compare(cur, best) < 0 {
			best = append(best[:0], cur...)
		}
	}
	// Heap's algorithm over the labellings.
	var heap func(k int)
	heap = func(k int) {
		if k <= 1 {
			visit()
			return
		}
		for i := 0; i < k-1; i++ {
			heap(k - 1)
			if k%2 == 0 {
				label[i], label[k-1] = label[k-1], label[i]
			} else {
				label[0], label[k-1] = label[k-1], label[0]
			}
		}
		heap(k - 1)
	}
	heap(len(label))
	return fmt.Sprint(best)
}

// checkCanonical verifies the internal consistency of one canonicalize
// result: canon[i] is facts[i] renamed through inv, inv is injective, and
// the key was produced by the canonical search.
func checkCanonical(t *testing.T, facts []relation.Fact) string {
	t.Helper()
	canon, key, inv, st := canonicalize(facts)
	if st.fallback {
		t.Fatalf("%s: fallback key after %d leaves", relation.FactsString(facts), st.leaves)
	}
	table := canonSymTable(len(inv))
	back := map[intern.Sym]intern.Sym{}
	for i, orig := range inv {
		back[table[i]] = orig
	}
	if len(back) != len(inv) {
		t.Fatalf("inverse renaming is not injective: %v", inv)
	}
	for i, cf := range canon {
		if got := renameFact(cf, back); got != facts[i] {
			t.Fatalf("canon[%d] = %s renames back to %s, want %s", i, cf, got, facts[i])
		}
	}
	return key
}

// TestCanonicalizeInvariantUnderRenaming: the key of a random structure
// is unchanged by a random renaming of its constants and a shuffle of its
// facts, for structures of up to 7 constants mixing unary, binary, and
// ternary predicates with repeated arguments.
func TestCanonicalizeInvariantUnderRenaming(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 300; i++ {
		m := 1 + rng.Intn(7)
		s := randomStructure(rng, fmt.Sprintf("inv%d", i), m, 1+rng.Intn(12))
		key := checkCanonical(t, s)
		for j := 0; j < 3; j++ {
			r := renamedCopy(rng, s, fmt.Sprintf("inv%d_r%d", i, j))
			if got := checkCanonical(t, r); got != key {
				t.Fatalf("structure %d: renamed copy %s has a different key than %s",
					i, relation.FactsString(r), relation.FactsString(s))
			}
		}
	}
}

// TestCanonicalizeMatchesBruteForce: key equality coincides with
// isomorphism as decided by the all-labellings oracle. The structures are
// small and dense so that isomorphic-but-different and same-shape-but-not-
// isomorphic pairs both occur often.
func TestCanonicalizeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	formOf := map[string]string{}        // key → oracle form
	keyOf := map[string]string{}         // oracle form → key
	sets := map[string]map[string]bool{} // oracle form → distinct fact sets
	for i := 0; i < 400; i++ {
		m := 1 + rng.Intn(7)
		s := randomStructure(rng, fmt.Sprintf("bf%d", i%5), m, 1+rng.Intn(6))
		if i%3 == 0 {
			s = renamedCopy(rng, s, fmt.Sprintf("bf%d", i%4))
		}
		key := checkCanonical(t, s)
		form := bruteForm(s)
		if prev, ok := formOf[key]; ok && prev != form {
			t.Fatalf("unsound: %s shares key with a non-isomorphic structure (%s vs %s)",
				relation.FactsString(s), form, prev)
		}
		if prev, ok := keyOf[form]; ok && prev != key {
			t.Fatalf("not canonical: isomorphic structure %s got a second key", relation.FactsString(s))
		}
		formOf[key], keyOf[form] = form, key
		sorted := slices.Clone(s)
		relation.SortFacts(sorted)
		if sets[form] == nil {
			sets[form] = map[string]bool{}
		}
		sets[form][relation.FactsString(sorted)] = true
	}
	shared := 0
	for _, set := range sets {
		if len(set) > 1 {
			shared++
		}
	}
	if shared < 20 {
		t.Fatalf("only %d isomorphism classes were hit twice; the oracle comparison is too weak", shared)
	}
}

func cycle(tag string, n int) []relation.Fact {
	var facts []relation.Fact
	for i := 0; i < n; i++ {
		facts = append(facts, relation.NewFact("CanonE", fmt.Sprintf("%s%d", tag, i), fmt.Sprintf("%s%d", tag, (i+1)%n)))
	}
	relation.SortFacts(facts)
	return facts
}

func undirected(edges [][2]string) []relation.Fact {
	var facts []relation.Fact
	for _, e := range edges {
		facts = append(facts, relation.NewFact("CanonE", e[0], e[1]), relation.NewFact("CanonE", e[1], e[0]))
	}
	relation.SortFacts(facts)
	return facts
}

// rootCells runs colour refinement alone and returns its cell count.
func rootCells(facts []relation.Fact) int {
	cs := new(canonState)
	cs.load(facts)
	cs.st = new(canonStats)
	return cs.refine(make([]uint64, len(cs.syms)))
}

// TestCanonicalizeSeparatesRefinementTwins: pairs that colour refinement
// alone leaves as one uniform cell — a directed 6-cycle vs two directed
// 3-cycles, and K3,3 vs the triangular prism (both 3-regular on six
// vertices) — get different keys, while renamed copies keep theirs.
func TestCanonicalizeSeparatesRefinementTwins(t *testing.T) {
	k33 := undirected([][2]string{
		{"k0", "k3"}, {"k0", "k4"}, {"k0", "k5"},
		{"k1", "k3"}, {"k1", "k4"}, {"k1", "k5"},
		{"k2", "k3"}, {"k2", "k4"}, {"k2", "k5"},
	})
	prism := undirected([][2]string{
		{"p0", "p1"}, {"p1", "p2"}, {"p2", "p0"},
		{"p3", "p4"}, {"p4", "p5"}, {"p5", "p3"},
		{"p0", "p3"}, {"p1", "p4"}, {"p2", "p5"},
	})
	twins := []struct {
		name string
		a, b []relation.Fact
	}{
		{"6-cycle vs two 3-cycles", cycle("c", 6), append(cycle("a", 3), cycle("b", 3)...)},
		{"K3,3 vs prism", k33, prism},
		// Not vertex-transitive: the search must compare branches
		// starting on the 3-cycle and on the 4-cycle.
		{"7-cycle vs 3-cycle + 4-cycle", cycle("s", 7), append(cycle("t", 3), cycle("q", 4)...)},
	}
	rng := rand.New(rand.NewSource(17))
	for _, tw := range twins {
		if ca, cb := rootCells(tw.a), rootCells(tw.b); ca != 1 || cb != 1 {
			t.Fatalf("%s: refinement gives %d and %d cells; the pair no longer needs individualization", tw.name, ca, cb)
		}
		ka, kb := checkCanonical(t, tw.a), checkCanonical(t, tw.b)
		if ka == kb {
			t.Errorf("%s: non-isomorphic structures share a key", tw.name)
		}
		if bruteForm(tw.a) == bruteForm(tw.b) {
			t.Fatalf("%s: the oracle calls the pair isomorphic", tw.name)
		}
		for i, s := range [][]relation.Fact{tw.a, tw.b} {
			want := []string{ka, kb}[i]
			for j := 0; j < 8; j++ {
				if got := checkCanonical(t, renamedCopy(rng, s, "twin")); got != want {
					t.Errorf("%s: renamed copy of side %d changed its key", tw.name, i)
				}
			}
		}
	}
}

// TestCanonicalizeAsymmetricRegular: the Frucht graph is 3-regular, so
// colour refinement leaves all twelve vertices in one cell, yet it has no
// automorphism, so no branch can stand in for another: the key is
// invariant only if the search really takes the least form over all of
// them.
func TestCanonicalizeAsymmetricRegular(t *testing.T) {
	var edges [][2]string
	ring := func(i int) string { return fmt.Sprintf("fr%02d", i%12) }
	for i := 0; i < 12; i++ {
		edges = append(edges, [2]string{ring(i), ring(i + 1)})
	}
	// Chords of the LCF notation [−5,−2,−4,2,5,−2,2,5,−2,−5,4,2].
	for _, c := range [][2]int{{0, 7}, {1, 11}, {2, 10}, {3, 5}, {4, 9}, {6, 8}} {
		edges = append(edges, [2]string{ring(c[0]), ring(c[1])})
	}
	frucht := undirected(edges)
	if c := rootCells(frucht); c != 1 {
		t.Fatalf("refinement gives %d cells on a 3-regular graph, want 1", c)
	}
	key := checkCanonical(t, frucht)
	rng := rand.New(rand.NewSource(18))
	for j := 0; j < 10; j++ {
		if got := checkCanonical(t, renamedCopy(rng, frucht, "frr")); got != key {
			t.Fatalf("renamed copy %d of the Frucht graph changed its key", j)
		}
	}
}

// TestCanonicalizeSymmetryGuard: highly symmetric components canonicalize
// within a small fixed number of search leaves — a 12-value key group and
// a workload.Cliques component in one leaf (transposition pruning), a
// directed 8-cycle in one leaf per rotation and an undirected one in one
// per rotation and reflection — not in the thousands an unpruned search
// would visit on the key group.
func TestCanonicalizeSymmetryGuard(t *testing.T) {
	var group []relation.Fact
	for i := 0; i < 12; i++ {
		group = append(group, relation.NewFact("R", "k", fmt.Sprintf("v%d", i)))
	}
	relation.SortFacts(group)
	cliqueDB, _ := workload.Cliques(workload.CliqueConfig{Groups: 1, GroupSize: 8, Seed: 3})
	cases := []struct {
		name      string
		facts     []relation.Fact
		maxLeaves int
	}{
		{"keygroup12", group, 1},
		{"cliques", cliqueDB.Facts(), 1},
		{"cycle8", cycle("cy", 8), 8},
		{"undirected-cycle8", undirected([][2]string{
			{"u0", "u1"}, {"u1", "u2"}, {"u2", "u3"}, {"u3", "u4"},
			{"u4", "u5"}, {"u5", "u6"}, {"u6", "u7"}, {"u7", "u0"},
		}), 16},
	}
	for _, tc := range cases {
		_, _, _, st := canonicalize(tc.facts)
		if st.fallback || st.leaves > tc.maxLeaves {
			t.Errorf("%s: %d leaves, %d refinements, fallback=%v; want ≤ %d leaves",
				tc.name, st.leaves, st.nodes, st.fallback, tc.maxLeaves)
		}
	}
}

// TestCanonicalizeWorkBudget: refinement peels a directed path one
// constant per end per round, so its work grows quadratically with the
// length. A 200-fact path stays canonical; a 5000-fact one — far beyond
// exact exploration — exhausts the work budget and takes the fallback
// key instead of quadratic time.
func TestCanonicalizeWorkBudget(t *testing.T) {
	path := func(n int) []relation.Fact {
		var facts []relation.Fact
		for i := 0; i < n; i++ {
			facts = append(facts, relation.NewFact("CanonE", fmt.Sprintf("wp%d", i), fmt.Sprintf("wp%d", i+1)))
		}
		relation.SortFacts(facts)
		return facts
	}
	if _, _, _, st := canonicalize(path(200)); st.fallback {
		t.Error("200-fact path took the fallback key")
	}
	if _, _, _, st := canonicalize(path(5000)); !st.fallback {
		t.Error("5000-fact path did not take the fallback key")
	}
}

// TestCanonicalizeFallback: past the leaf budget the key is the sorted id
// set of the facts renamed in first-occurrence order.
func TestCanonicalizeFallback(t *testing.T) {
	facts := cycle("fb", 5)
	restore := SetCanonLeafBudget(1)
	defer restore()
	canon, key, inv, st := canonicalize(facts)
	if !st.fallback {
		t.Fatalf("budget 1 on a 5-cycle: no fallback after %d leaves", st.leaves)
	}
	// The first-occurrence labelling numbers constants as they appear.
	seen := map[intern.Sym]bool{}
	var order []intern.Sym
	for _, fa := range facts {
		for _, a := range fa.Args() {
			if !seen[a] {
				seen[a] = true
				order = append(order, a)
			}
		}
	}
	if !slices.Equal(inv, order) {
		t.Fatalf("fallback inverse %v, want first-occurrence order %v", inv, order)
	}
	ids := make([]uint32, len(canon))
	for i, cf := range canon {
		ids[i] = cf.ID()
	}
	slices.Sort(ids)
	if want := string(relation.AppendIDKey(nil, ids)); key != want {
		t.Fatal("fallback key is not the sorted first-occurrence id set")
	}
}

// FuzzCanonicalize is a differential fuzz target against the brute-force
// oracle: the fuzzer's bytes spell two fact lists over at most six
// constants, and their keys must be equal exactly when the oracle calls
// them isomorphic; each list must also keep its key under a renaming and
// shuffle drawn from the seed.
//
// Run continuously with:
//
//	go test -run '^$' -fuzz FuzzCanonicalize ./internal/core
//
// CI runs a short smoke pass; seed corpus in testdata/fuzz/FuzzCanonicalize.
func FuzzCanonicalize(f *testing.F) {
	// Two bytes per fact: the first picks the predicate (low two bits)
	// and the first argument, the second the other two arguments.
	f.Add([]byte{0x01, 0x01, 0x05, 0x02, 0x09, 0x00, 0x0d, 0x04, 0x11, 0x05, 0x15, 0x03}, int64(1))
	f.Add([]byte{0x00, 0x00, 0x03, 0x07, 0x06, 0x0c, 0x04, 0x00, 0x03, 0x0e, 0x0a, 0x01}, int64(2))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		decode := func(bs []byte, tag string) []relation.Fact {
			seen := map[relation.Fact]bool{}
			var facts []relation.Fact
			for i := 0; i+1 < len(bs); i += 2 {
				p := canonPreds[bs[i]%4]
				raw := [3]int{int(bs[i]/4) % 6, int(bs[i+1]) % 6, int(bs[i+1]/6) % 6}
				args := make([]string, p.arity)
				for j := range args {
					args[j] = fmt.Sprintf("%s%d", tag, raw[j])
				}
				fa := relation.NewFact(p.name, args...)
				if !seen[fa] {
					seen[fa] = true
					facts = append(facts, fa)
				}
			}
			relation.SortFacts(facts)
			return facts
		}
		if len(data) > 24 {
			data = data[:24]
		}
		half := len(data) / 2
		a, b := decode(data[:half], "fa"), decode(data[half:], "fb")
		ka, kb := checkCanonical(t, a), checkCanonical(t, b)
		if (ka == kb) != (bruteForm(a) == bruteForm(b)) {
			t.Fatalf("key equality %v disagrees with the oracle on %s vs %s",
				ka == kb, relation.FactsString(a), relation.FactsString(b))
		}
		rng := rand.New(rand.NewSource(seed))
		if got := checkCanonical(t, renamedCopy(rng, a, "fz")); got != ka {
			t.Fatalf("renamed copy of %s changed its key", relation.FactsString(a))
		}
	})
}

// canonSink keeps the benchmarked result alive.
var canonSink string

// BenchmarkCanonicalize measures one canonicalize call on the component
// shapes the factored engine sees most: a directed 8-edge path whose
// constants sort along the path, the same path over shuffled constant
// names, and a 12-value key group (the symmetric case pruning handles).
func BenchmarkCanonicalize(b *testing.B) {
	path := func(order []int) []relation.Fact {
		var facts []relation.Fact
		for j := 0; j+1 < len(order); j++ {
			facts = append(facts, relation.NewFact("E",
				fmt.Sprintf("bn%03d", order[j]), fmt.Sprintf("bn%03d", order[j+1])))
		}
		relation.SortFacts(facts)
		return facts
	}
	var group []relation.Fact
	for i := 0; i < 12; i++ {
		group = append(group, relation.NewFact("R", "bk", fmt.Sprintf("bv%02d", i)))
	}
	relation.SortFacts(group)
	cases := []struct {
		name  string
		facts []relation.Fact
	}{
		{"path8", path([]int{0, 1, 2, 3, 4, 5, 6, 7, 8})},
		{"shuffled-path8", path([]int{5, 2, 8, 0, 7, 3, 1, 6, 4})},
		{"keygroup12", group},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			canonicalize(tc.facts) // warm the scratch pool
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, canonSink, _, _ = canonicalize(tc.facts)
			}
		})
	}
}
