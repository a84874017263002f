package sampling

import (
	"reflect"
	"testing"

	"repro/internal/constraint"
	"repro/internal/fo"
	"repro/internal/generators"
	"repro/internal/logic"
	"repro/internal/markov"
	"repro/internal/relation"
	"repro/internal/repair"
)

// FuzzWalkMemo: on a random small TGD instance — up to six facts over
// A/1, B/1, R/2 and S/2 and three constants, one of three constraint
// sets, grounded or null insertions, the uniform or uniform-deletions
// generator, with or without a step budget — the estimator's Run (or its
// error) from memoized walks, under the default walk-tree budget and a
// tiny one, must equal the live walkers' in walk mode and in the SNIS
// fallback.
func FuzzWalkMemo(f *testing.F) {
	f.Add([]byte{2, 6, 14}, uint8(0), int64(1))       // inclusion, grounded
	f.Add([]byte{0, 4}, uint8(1), int64(2))           // TGD + EGD with failing sequences
	f.Add([]byte{2, 6, 14, 3}, uint8(0x06), int64(3)) // mixed set, null insertions
	f.Add([]byte{2, 18, 0, 1}, uint8(0x3a), int64(4)) // step budget, uniform-deletions
	f.Fuzz(func(t *testing.T, facts []byte, shape uint8, seed int64) {
		if len(facts) > 6 {
			facts = facts[:6]
		}
		consts := []string{"a", "b", "c"}
		d := relation.NewDatabase()
		for _, b := range facts {
			x, y := consts[int(b/4)%3], consts[int(b/12)%3]
			switch b % 4 {
			case 0:
				d.Insert(relation.NewFact("A", x))
			case 1:
				d.Insert(relation.NewFact("B", x))
			case 2:
				d.Insert(relation.NewFact("R", x, y))
			default:
				d.Insert(relation.NewFact("S", x, y))
			}
		}
		x, y, z := v("X"), v("Y"), v("Z")
		inclusion := constraint.MustTGD([]logic.Atom{at("R", x, y)}, []logic.Atom{at("S", y, z)})
		var sigma *constraint.Set
		q := fo.MustQuery("Q", []logic.Term{y, z}, fo.Atom{A: at("S", y, z)})
		switch shape % 4 {
		case 0:
			sigma = constraint.NewSet(inclusion)
		case 1:
			sigma = failingTGDEGD().Sigma()
			q = fo.MustQuery("Q", []logic.Term{x}, fo.Atom{A: at("B", x)})
		default:
			sigma = constraint.NewSet(inclusion,
				constraint.MustEGD([]logic.Atom{at("S", x, y), at("S", x, z)}, y, z),
				constraint.MustDC([]logic.Atom{at("A", x), at("B", x)}))
		}
		inst, err := repair.NewInstanceOpts(d, sigma, repair.Options{NullInsertions: shape&4 != 0})
		if err != nil {
			t.Skip(err)
		}
		var gen markov.Generator = generators.Uniform{}
		if shape&8 != 0 {
			gen = generators.UniformDeletions{}
		}
		maxSteps := int(shape>>4) % 4

		for _, mode := range []markov.SemanticsMode{markov.WalkInduced, markov.SequenceUniform} {
			type outcome struct {
				run *Run
				err string
			}
			run := func(workers int) outcome {
				est := &Estimator{Inst: inst, Gen: gen, Seed: seed, Workers: workers, MaxSteps: maxSteps, Mode: mode}
				r, err := est.EstimateWithN(q, 40)
				if err != nil {
					return outcome{err: err.Error()}
				}
				return outcome{run: r}
			}
			var live, memo, tiny outcome
			withMemoEntries(0, func() { live = run(1) })
			withMemoEntries(memoEntries, func() { memo = run(3) })
			withMemoEntries(5, func() { tiny = run(2) })
			if !reflect.DeepEqual(memo, live) || !reflect.DeepEqual(tiny, live) {
				t.Fatalf("%v on %v under %v: memoized runs differ from live:\nlive %+v\nmemo %+v\ntiny %+v",
					mode, d, sigma, live, memo, tiny)
			}
		}
	})
}
