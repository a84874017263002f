package markov

import (
	"fmt"
	"math/big"
	"strings"

	"repro/internal/prob"
	"repro/internal/repair"
)

// Node is a state of the chain tree with its outgoing edges resolved; it is
// produced by BuildTree and used for inspection and for rendering the
// Section 3 figure of the paper.
type Node struct {
	State    *repair.State
	Pi       *big.Rat // path probability from ε to this state
	Children []ChildEdge
}

// ChildEdge pairs a transition edge with its resolved subtree.
type ChildEdge struct {
	Edge
	Node *Node
}

// IsLeaf reports whether the node is absorbing (a complete sequence).
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// BuildTree materializes the whole chain tree. Use only on small instances
// (the tree is exponential in general); opt.MaxStates guards runaway
// inputs.
func BuildTree(inst *repair.Instance, g Generator, opt ExploreOptions) (*Node, error) {
	var path []*Node // path[d] is the open node at depth d
	err := walkTree(inst, g, opt, func(s *repair.State, in Edge, pi prob.Rat, _ []Edge) {
		n := &Node{State: s, Pi: pi.Big()}
		d := s.Len()
		path = append(path[:d], n)
		if d > 0 {
			parent := path[d-1]
			parent.Children = append(parent.Children, ChildEdge{Edge: in, Node: n})
		}
	})
	if err != nil {
		return nil, err
	}
	return path[0], nil
}

// walkTree is the sequence-tree DFS shared by Explore and BuildTree. It
// visits every state in pre-order with its incoming edge (zero at the
// root), its path mass π — the product of the edge probabilities from ε,
// carried as a small-rational prob.Rat — and its outgoing edges, resolved
// through Step (empty at absorbing states). opt.MaxStates bounds the
// number of visited states.
func walkTree(inst *repair.Instance, g Generator, opt ExploreOptions, visit func(s *repair.State, in Edge, pi prob.Rat, edges []Edge)) error {
	visited := 0
	var dfs func(s *repair.State, in Edge, pi prob.Rat) error
	dfs = func(s *repair.State, in Edge, pi prob.Rat) error {
		visited++
		if opt.MaxStates > 0 && visited > opt.MaxStates {
			return ErrStateBudget
		}
		edges, err := Step(g, s)
		if err != nil {
			return err
		}
		visit(s, in, pi, edges)
		for _, e := range edges {
			if err := dfs(s.Child(e.Op), e, pi.MulBig(e.P)); err != nil {
				return err
			}
		}
		return nil
	}
	return dfs(inst.Root(), Edge{}, prob.RatOne())
}

// CountStates returns the number of states in the tree (|RS(D,Σ)| within
// the chain support, including ε).
func (n *Node) CountStates() int {
	total := 1
	for _, c := range n.Children {
		total += c.Node.CountStates()
	}
	return total
}

// Render prints the tree with one state per line, indenting children and
// annotating edges with their probabilities, in the spirit of the paper's
// Section 3 figure:
//
//	ε
//	├─ 2/9 → -Pref(a, b)
//	│   ├─ 1/3 → -Pref(a, b), -Pref(a, c)   [absorbing]
//	...
func (n *Node) Render() string {
	var b strings.Builder
	b.WriteString(n.State.String())
	b.WriteByte('\n')
	renderChildren(&b, n, "")
	return b.String()
}

func renderChildren(b *strings.Builder, n *Node, prefix string) {
	for i, c := range n.Children {
		last := i == len(n.Children)-1
		connector, childPrefix := "├─ ", prefix+"│   "
		if last {
			connector, childPrefix = "└─ ", prefix+"    "
		}
		suffix := ""
		if c.Node.IsLeaf() {
			suffix = "   [absorbing]"
		}
		fmt.Fprintf(b, "%s%s%s → %s%s\n", prefix, connector, c.P.RatString(), c.Node.State, suffix)
		renderChildren(b, c.Node, childPrefix)
	}
}
