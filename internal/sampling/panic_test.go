package sampling

import (
	"errors"
	"math/big"
	"regexp"
	"sync/atomic"
	"testing"

	"repro/internal/fo"
	"repro/internal/logic"
	"repro/internal/markov"
	"repro/internal/ops"
	"repro/internal/repair"
	"repro/internal/workload"
)

// panicAt is a uniform generator whose IntWeights panics at its k-th call.
// It declares no memorylessness, so the uniform mode runs the SNIS walker
// rather than the count-guided DAG, whose sweep recovers panics itself.
type panicAt struct {
	k     int64
	calls *atomic.Int64
}

func (panicAt) Name() string { return "panic-at" }

func (p panicAt) Transitions(_ *repair.State, exts []ops.Op) ([]*big.Rat, error) {
	out := make([]*big.Rat, len(exts))
	for i := range out {
		out[i] = big.NewRat(1, int64(len(exts)))
	}
	return out, nil
}

func (p panicAt) IntWeights(_ *repair.State, exts []ops.Op, dst []int64) ([]int64, bool, error) {
	if p.calls.Add(1) == p.k {
		panic("weights exploded")
	}
	for range exts {
		dst = append(dst, 1)
	}
	return dst, true, nil
}

// TestEstimatorRecoversPanic: a generator that panics in the middle of a
// run fails the estimator call with markov.ErrPanicked, naming the walk
// and the panic, instead of crashing the process — in walk mode and in
// the uniform SNIS fallback, on one worker and on four, over TGD-free key
// groups (key walks) and a TGD chain (walk trees).
func TestEstimatorRecoversPanic(t *testing.T) {
	x, y := logic.Var("X"), logic.Var("Y")
	q := fo.MustQuery("Q", []logic.Term{x, y}, fo.Atom{A: logic.NewAtom("R", x, y)})
	keys := repair.MustInstance(workload.KeyViolations(workload.KeyConfig{Keys: 10, Violations: 6, Seed: 1}))
	walkIndex := regexp.MustCompile(`at walk \d+: weights exploded`)
	for _, inst := range []*repair.Instance{keys, memoCases(t)[0].inst} {
		for _, mode := range []markov.SemanticsMode{markov.WalkInduced, markov.SequenceUniform} {
			for _, workers := range []int{1, 4} {
				g := panicAt{k: 5, calls: new(atomic.Int64)}
				est := &Estimator{Inst: inst, Gen: g, Seed: 1, Workers: workers, Mode: mode}
				_, err := est.EstimateWithN(q, 200)
				if !errors.Is(err, markov.ErrPanicked) || !walkIndex.MatchString(err.Error()) {
					t.Fatalf("%v, workers=%d, %d facts: err = %v, want ErrPanicked naming the walk",
						mode, workers, inst.Initial().Size(), err)
				}
			}
		}
	}
}
