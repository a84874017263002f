package sampling

import (
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/constraint"
	"repro/internal/fo"
	"repro/internal/generators"
	"repro/internal/logic"
	"repro/internal/markov"
	"repro/internal/ops"
	"repro/internal/prob"
	"repro/internal/relation"
	"repro/internal/repair"
)

// referenceWalk is the stepper's walk with State.Child steps: it draws
// the same operations from the same RNG draws — prob.PickIntSum over
// validated integer weights, prob.Pick over markov.Step's rationals, or
// in uniform mode a uniform pick among the support — and returns the
// operations taken and the absorbing state.
func referenceWalk(inst *repair.Instance, g markov.Generator, uniform bool, rng *rand.Rand) ([]ops.Op, *repair.State, error) {
	s := inst.Root()
	var taken []ops.Op
	for {
		exts := s.Extensions()
		if len(exts) == 0 {
			return taken, s, nil
		}
		ws, total, ok, err := markov.CheckedIntWeights(g, s, exts, nil)
		if err != nil {
			return taken, s, err
		}
		var op ops.Op
		switch {
		case ok && uniform:
			var support []ops.Op
			for i, w := range ws {
				if w > 0 {
					support = append(support, exts[i])
				}
			}
			op = support[rng.Intn(len(support))]
		case ok:
			op = exts[prob.PickIntSum(rng, ws, uint64(total))]
		default:
			edges, err := markov.Step(g, s)
			if err != nil {
				return taken, s, err
			}
			if uniform {
				op = edges[rng.Intn(len(edges))].Op
				break
			}
			ps := make([]*big.Rat, len(edges))
			for i, e := range edges {
				ps[i] = e.P
			}
			op = edges[prob.Pick(rng, ps)].Op
		}
		taken = append(taken, op)
		s = s.Child(op)
	}
}

// FuzzKeyWalk: on a random small TGD-free instance — up to eight facts
// over Pref/2 and R/2 and three constants, under some of the asymmetry
// denial on Pref, a key EGD on R and a three-atom path denial on R (whose
// justified deletions remove one, two or three facts) — and the uniform,
// uniform-deletions, preference or trust generator, a walk stepping the
// key cursor and a reference walk stepping State.Child from the same seed
// must take the same operations, reach the same database and agree on
// success (or fail with the same error), in walk mode and as the SNIS
// proposal; and at every step of a walk markov.CheckedIntWeights must
// weigh the cursor's state exactly as the Child state. The estimator's Run (or its error) must be identical at
// Workers 1 and 3 in both semantics modes, for a conjunctive query (read
// off the key through the witness lineage) and for one with negation
// (evaluated on the caught-up result).
func FuzzKeyWalk(f *testing.F) {
	f.Add([]byte{0, 2, 3, 7, 8, 12}, uint8(0x01), int64(1))   // asymmetric prefs, uniform
	f.Add([]byte{1, 3, 7, 9, 13, 15}, uint8(0x16), int64(2))  // key + path denial, preference
	f.Add([]byte{1, 5, 7, 11, 13, 17}, uint8(0x24), int64(3)) // path denial alone, trust
	f.Add([]byte{0, 1, 2, 3, 6, 7, 8, 9}, uint8(0x4f), int64(4))
	f.Fuzz(func(t *testing.T, facts []byte, shape uint8, seed int64) {
		if len(facts) > 8 {
			facts = facts[:8]
		}
		consts := []string{"a", "b", "c"}
		d := relation.NewDatabase()
		for _, b := range facts {
			x, y := consts[int(b/2)%3], consts[int(b/6)%3]
			if b%2 == 0 {
				d.Insert(relation.NewFact("Pref", x, y))
			} else {
				d.Insert(relation.NewFact("R", x, y))
			}
		}
		x, y, z, w := v("X"), v("Y"), v("Z"), v("W")
		var cs []*constraint.Constraint
		if shape&1 != 0 || shape&6 == 0 {
			cs = append(cs, constraint.MustDC([]logic.Atom{at("Pref", x, y), at("Pref", y, x)}))
		}
		if shape&2 != 0 {
			cs = append(cs, constraint.MustEGD([]logic.Atom{at("R", x, y), at("R", x, z)}, y, z))
		}
		if shape&4 != 0 {
			cs = append(cs, constraint.MustDC([]logic.Atom{at("R", x, y), at("R", y, z), at("R", z, w)}))
		}
		inst, err := repair.NewInstance(d, constraint.NewSet(cs...))
		if err != nil {
			t.Skip(err)
		}
		var gen markov.Generator
		switch (shape >> 3) % 4 {
		case 0:
			gen = generators.Uniform{}
		case 1:
			gen = generators.UniformDeletions{}
		case 2:
			gen = generators.Preference{}
		default:
			tr := generators.NewTrust(big.NewRat(1, 2))
			for i, f := range d.Facts() {
				if err := tr.Set(f, big.NewRat(int64(1+(uint64(i)+uint64(seed))%3), 4)); err != nil {
					t.Fatal(err)
				}
			}
			gen = tr
		}

		for _, uniform := range []bool{false, true} {
			for i := 0; i < 8; i++ {
				src := &prob.SplitMix{}
				src.ReseedAt(seed, i)
				end, err := newStepper(inst, gen, uniform, 0).walk(rand.New(src))
				src.ReseedAt(seed, i)
				want, ref, rerr := referenceWalk(inst, gen, uniform, rand.New(src))
				if (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() {
					t.Fatalf("uniform=%v walk %d on %v: key walk error %v, reference %v", uniform, i, d, err, rerr)
				}
				if err != nil {
					continue
				}
				if got := end.s.Ops(); !reflect.DeepEqual(opStrings(got), opStrings(want)) {
					t.Fatalf("uniform=%v walk %d on %v: key walk took %v, reference %v", uniform, i, d, got, want)
				}
				if end.s.Result().Key() != ref.Result().Key() || end.success != ref.IsSuccessful() {
					t.Fatalf("uniform=%v walk %d on %v: key walk ends at %v (success %v), reference %v (%v)",
						uniform, i, d, end.s.Result(), end.success, ref.Result(), ref.IsSuccessful())
				}
			}
		}

		// At every step of a walk the generator weighs the cursor's state,
		// whose conflict key is read in place, exactly as it weighs the
		// Child state.
		for i := int64(0); i < 4; i++ {
			rng := rand.New(rand.NewSource(seed + i))
			cur := inst.NewCursor()
			s, ref := cur.Reset(), inst.Root()
			for {
				exts := ref.Extensions()
				ws, total, ok, err := markov.CheckedIntWeights(gen, s, s.Extensions(), nil)
				rws, rtotal, rok, rerr := markov.CheckedIntWeights(gen, ref, exts, nil)
				if !reflect.DeepEqual(ws, rws) || total != rtotal || ok != rok || fmt.Sprint(err) != fmt.Sprint(rerr) {
					t.Fatalf("state %q on %v: cursor weighs %v (total %d, ok %v, err %v), Child %v (total %d, ok %v, err %v)",
						ref, d, ws, total, ok, err, rws, rtotal, rok, rerr)
				}
				if len(exts) == 0 {
					break
				}
				op := exts[rng.Intn(len(exts))]
				s, ref = cur.Step(op), ref.Child(op)
			}
		}

		queries := []*fo.Query{
			fo.MustQuery("Q", []logic.Term{x, y}, fo.Disj(fo.Atom{A: at("Pref", x, y)}, fo.Atom{A: at("R", x, y)})),
			fo.MustQuery("Q", []logic.Term{x}, fo.Exists{Vars: []logic.Term{y}, F: fo.Conj(
				fo.Atom{A: at("R", x, y)}, fo.Not{F: fo.Atom{A: at("Pref", y, x)}})}),
		}
		for _, q := range queries {
			for _, mode := range []markov.SemanticsMode{markov.WalkInduced, markov.SequenceUniform} {
				type outcome struct {
					run *Run
					err string
				}
				run := func(workers int) outcome {
					est := &Estimator{Inst: inst, Gen: gen, Seed: seed, Workers: workers, Mode: mode}
					r, err := est.EstimateWithN(q, 40)
					if err != nil {
						return outcome{err: err.Error()}
					}
					return outcome{run: r}
				}
				if one, three := run(1), run(3); !reflect.DeepEqual(one, three) {
					t.Fatalf("%v on %v: Workers 1 and 3 differ:\n1: %+v\n3: %+v", mode, d, one, three)
				}
			}
		}
	})
}

func opStrings(list []ops.Op) []string {
	out := make([]string, len(list))
	for i, op := range list {
		out[i] = op.String()
	}
	return out
}
