package markov_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/generators"
	"repro/internal/markov"
	"repro/internal/prob"
	"repro/internal/repair"
	"repro/internal/workload"
)

// TestSequenceDAGTotalMatchesExploreDAG: C(root) computed by the upward
// sweep must equal the downward path-count total of ExploreDAG on the same
// chain — two independent recurrences over the same structure.
func TestSequenceDAGTotalMatchesExploreDAG(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		d, sigma := workload.KeyViolations(workload.KeyConfig{
			Keys:       1 + rng.Intn(4),
			Violations: 1 + rng.Intn(3),
			Seed:       int64(trial),
		})
		inst := repair.MustInstance(d, sigma)
		checkSeqDAGStructure(t, fmt.Sprintf("keys/trial=%d", trial), inst)
	}
	for _, facts := range []int{2, 4, 6, 8} {
		d, sigma := workload.Chain(workload.ChainConfig{Facts: facts})
		checkSeqDAGStructure(t, fmt.Sprintf("chain/facts=%d", facts), repair.MustInstance(d, sigma))
	}
}

func checkSeqDAGStructure(t *testing.T, label string, inst *repair.Instance) {
	t.Helper()
	dag, err := markov.ExploreDAG(inst, generators.Uniform{}, markov.ExploreOptions{})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	sd, err := markov.BuildSequenceDAG(inst, generators.Uniform{}, markov.ExploreOptions{})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if sd.Total().Cmp(dag.Sequences) != 0 {
		t.Fatalf("%s: SequenceDAG total %s, ExploreDAG sequences %s", label, sd.Total(), dag.Sequences)
	}
	if sd.States() != dag.States || sd.Edges() != dag.Edges {
		t.Fatalf("%s: structure mismatch: %d/%d states, %d/%d edges",
			label, sd.States(), dag.States, sd.Edges(), dag.Edges)
	}
}

// TestSequenceDAGSampleIsUniform draws many sequences from the chain-3
// instance (9 complete sequences, known result distribution: the both-ends
// repair has uniform mass exactly 1/9) and checks the empirical result
// frequencies against the exact uniform distribution.
func TestSequenceDAGSampleIsUniform(t *testing.T) {
	d, sigma := workload.Chain(workload.ChainConfig{Facts: 3})
	inst := repair.MustInstance(d, sigma)
	sd, err := markov.BuildSequenceDAG(inst, generators.Uniform{}, markov.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sd.Total().Int64() != 9 {
		t.Fatalf("chain-3 total = %s, want 9", sd.Total())
	}
	ix, err := inst.Conflicts()
	if err != nil {
		t.Fatal(err)
	}
	const n = 18000
	rng := rand.New(rand.NewSource(7))
	freq := map[string]int{}
	var key []byte
	for i := 0; i < n; i++ {
		key = sd.Sample(rng, key[:0])
		if !ix.Consistent(key) {
			t.Fatalf("draw %d: absorbing state is failing on a deletion-only chain", i)
		}
		freq[ix.Database(key).Key()]++
	}
	// Exact uniform result masses: {both ends}: 1/9, the four others: 2/9.
	leaves, err := markov.ExploreDAG(inst, generators.Uniform{}, markov.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range leaves.Leaves {
		want := float64(l.Sequences.Int64()) / 9
		got := float64(freq[l.Key]) / n
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("leaf %s: empirical %f, uniform %f", l.Key, got, want)
		}
	}
}

// TestSequenceDAGSampleDeterministic: the same RNG stream must reproduce
// the same sequence of draws (the estimator's worker-count determinism
// builds on this).
func TestSequenceDAGSampleDeterministic(t *testing.T) {
	d, sigma := workload.KeyViolations(workload.KeyConfig{Keys: 4, Violations: 3, Seed: 2})
	inst := repair.MustInstance(d, sigma)
	sd, err := markov.BuildSequenceDAG(inst, generators.Uniform{}, markov.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	draw := func() []string {
		src := &prob.SplitMix{}
		rng := rand.New(src)
		var out []string
		for i := 0; i < 50; i++ {
			src.ReseedAt(42, i)
			out = append(out, string(sd.Sample(rng, nil)))
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d: %q vs %q", i, a[i], b[i])
		}
	}
}
