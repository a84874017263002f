package core_test

import (
	"math/big"
	"testing"

	"repro/internal/core"
	"repro/internal/generators"
	"repro/internal/markov"
	"repro/internal/repair"
	"repro/internal/workload"
)

// TestSequencesByLength: the per-length sequence histogram maintained under
// ExploreOptions.TrackLengths agrees between the tree and DAG explorers,
// sums to TotalSequences, and matches the hand count for the 3-chain (all 9
// complete sequences delete either one middle fact or two facts).
func TestSequencesByLength(t *testing.T) {
	d, sigma := workload.Chain(workload.ChainConfig{Facts: 3})
	inst := repair.MustInstance(d, sigma)
	opt := markov.ExploreOptions{TrackLengths: true, MaxStates: 100000}

	tree, err := core.ComputeTreeMode(inst, generators.Uniform{}, opt, core.WalkInduced)
	if err != nil {
		t.Fatal(err)
	}
	dag, err := core.ComputeDAGMode(inst, generators.Uniform{}, opt, core.WalkInduced)
	if err != nil {
		t.Fatal(err)
	}
	for _, sem := range []*core.Semantics{tree, dag} {
		if sem.SequencesByLength == nil {
			t.Fatal("TrackLengths set but SequencesByLength is nil")
		}
		sum := new(big.Int)
		for _, c := range sem.SequencesByLength {
			sum.Add(sum, c)
		}
		if sum.Cmp(sem.TotalSequences) != 0 {
			t.Errorf("Σ SequencesByLength = %s, TotalSequences = %s", sum, sem.TotalSequences)
		}
	}
	if len(tree.SequencesByLength) != len(dag.SequencesByLength) {
		t.Fatalf("histogram lengths differ: tree %d vs dag %d",
			len(tree.SequencesByLength), len(dag.SequencesByLength))
	}
	for l := range tree.SequencesByLength {
		if tree.SequencesByLength[l].Cmp(dag.SequencesByLength[l]) != 0 {
			t.Errorf("length %d: tree %s vs dag %s", l,
				tree.SequencesByLength[l], dag.SequencesByLength[l])
		}
	}
	// 3-chain: 3 sequences of length 1 (delete the middle fact, or either
	// violating pair — each leaves a consistent remainder at once) and 6 of
	// length 2 (delete an end fact, then resolve the surviving violation in
	// one of its 3 ways).
	want := map[int]int64{1: 3, 2: 6}
	for l, c := range dag.SequencesByLength {
		if c.Int64() != want[l] {
			t.Errorf("length %d: %s sequences, want %d", l, c, want[l])
		}
	}

	// Untracked runs leave the histogram nil.
	plain, err := core.ComputeDAGMode(inst, generators.Uniform{}, markov.ExploreOptions{}, core.WalkInduced)
	if err != nil {
		t.Fatal(err)
	}
	if plain.SequencesByLength != nil {
		t.Error("SequencesByLength must be nil without TrackLengths")
	}
}
