package core_test

// Proposition 7 states that TPC — deciding CP(t̄) > 0 — is NP-hard. This
// file makes the reduction executable in the canonical direction: graph
// 3-colorability reduces to TPC under keys and the uniform chain. Every
// node gets three conflicting Color facts (one per color); key repairs keep
// at most one color per node; and the query "the surviving coloring is
// total and proper" has positive probability iff the graph is 3-colorable.
// The engine thus *decides 3-colorability* on small graphs, exhibiting the
// hardness structurally (the paper's Theorem 6 then rules out an FPRAS).

import (
	"fmt"
	"testing"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/fo"
	"repro/internal/generators"
	"repro/internal/logic"
	"repro/internal/markov"
	"repro/internal/relation"
	"repro/internal/repair"
)

// colorInstance encodes a graph: Node/Edge facts are clean; Color(u, c)
// facts for all three colors violate the key Color[1].
func colorInstance(t *testing.T, nodes []string, edges [][2]string) *repair.Instance {
	t.Helper()
	d := relation.NewDatabase()
	for _, n := range nodes {
		d.Insert(f("Node", n))
		for _, c := range []string{"red", "green", "blue"} {
			d.Insert(f("Color", n, c))
		}
	}
	for _, e := range edges {
		d.Insert(f("Edge", e[0], e[1]))
	}
	x, y, z := v("x"), v("y"), v("z")
	key := constraint.MustEGD(
		[]logic.Atom{at("Color", x, y), at("Color", x, z)},
		y, z,
	)
	return repair.MustInstance(d, constraint.NewSet(key))
}

// properColoringQuery: every node has a color, and no edge is
// monochromatic.
func properColoringQuery() *fo.Query {
	x, y, c := v("x"), v("y"), v("c")
	total := fo.ForAll{
		Vars: []logic.Term{x},
		F: fo.Implies{
			L: fo.Atom{A: at("Node", x)},
			R: fo.Exists{Vars: []logic.Term{c}, F: fo.Atom{A: at("Color", x, c)}},
		},
	}
	proper := fo.Not{F: fo.Exists{
		Vars: []logic.Term{x, y, c},
		F: fo.Conj(
			fo.Atom{A: at("Edge", x, y)},
			fo.Atom{A: at("Color", x, c)},
			fo.Atom{A: at("Color", y, c)},
		),
	}}
	return fo.MustQuery("ProperColoring", nil, fo.And{L: total, R: proper})
}

// tpcDecides3Colorability runs the reduction via the factored exact
// engine (per-node color conflicts are independent components).
func tpcDecides3Colorability(t *testing.T, nodes []string, edges [][2]string) bool {
	t.Helper()
	inst := colorInstance(t, nodes, edges)
	fac, err := core.ComputeFactored(inst, generators.Uniform{}, markov.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fac.Components()) != len(nodes) {
		t.Fatalf("components = %d, want one per node (%d)", len(fac.Components()), len(nodes))
	}
	cp, err := fac.CP(properColoringQuery(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return cp.Sign() > 0
}

func TestTPCTriangleIs3Colorable(t *testing.T) {
	nodes := []string{"u", "v", "w"}
	edges := [][2]string{{"u", "v"}, {"v", "w"}, {"w", "u"}}
	if !tpcDecides3Colorability(t, nodes, edges) {
		t.Error("the triangle is 3-colorable; TPC must be positive")
	}
}

func TestTPCK4IsNot3Colorable(t *testing.T) {
	nodes := []string{"a", "b", "c", "d"}
	var edges [][2]string
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			edges = append(edges, [2]string{nodes[i], nodes[j]})
		}
	}
	if tpcDecides3Colorability(t, nodes, edges) {
		t.Error("K4 is not 3-colorable; TPC must be zero")
	}
}

func TestTPCPathAndStar(t *testing.T) {
	// A path and a star are 2-colorable, hence 3-colorable.
	if !tpcDecides3Colorability(t,
		[]string{"p1", "p2", "p3", "p4"},
		[][2]string{{"p1", "p2"}, {"p2", "p3"}, {"p3", "p4"}}) {
		t.Error("paths are 3-colorable")
	}
	if !tpcDecides3Colorability(t,
		[]string{"hub", "s1", "s2", "s3"},
		[][2]string{{"hub", "s1"}, {"hub", "s2"}, {"hub", "s3"}}) {
		t.Error("stars are 3-colorable")
	}
}

// TestTPCK4PlusIsolatedNode: adding an isolated node to K4 keeps it
// non-3-colorable (the reduction must not be fooled by extra components).
func TestTPCK4PlusIsolatedNode(t *testing.T) {
	nodes := []string{"a", "b", "c", "d", "lonely"}
	var edges [][2]string
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			edges = append(edges, [2]string{nodes[i], nodes[j]})
		}
	}
	if tpcDecides3Colorability(t, nodes, edges) {
		t.Error("K4 plus an isolated node is still not 3-colorable")
	}
}

// TestTPCMonolithicAgreesOnTriangle cross-checks the factored reduction
// against the monolithic chain on the smallest graph where that is still
// feasible (a single edge: 2 nodes).
func TestTPCMonolithicAgreesOnEdge(t *testing.T) {
	inst := colorInstance(t, []string{"u", "v"}, [][2]string{{"u", "v"}})
	q := properColoringQuery()

	sem, err := core.Compute(inst, generators.Uniform{}, markov.ExploreOptions{MaxStates: 3_000_000})
	if err != nil {
		t.Fatal(err)
	}
	mono := sem.CP(q, nil)

	fac, err := core.ComputeFactored(inst, generators.Uniform{}, markov.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	facCP, err := fac.CP(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mono.Cmp(facCP) != 0 {
		t.Errorf("monolithic CP %s vs factored CP %s", mono.RatString(), facCP.RatString())
	}
	if mono.Sign() <= 0 {
		t.Error("a single edge is 3-colorable")
	}
	// Sanity: with 3 colors and 2 adjacent nodes, of the 4×4 repair
	// combinations, the proper total colorings are 3·2 = 6.
	want := fmt.Sprintf("%d/%d", 6, 16)
	if mono.RatString() != want {
		t.Logf("note: CP = %s (6 proper of 16 equiprobable outcomes would be %s; repair weights differ per outcome)",
			mono.RatString(), want)
	}
}
