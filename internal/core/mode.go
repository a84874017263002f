package core

import (
	"fmt"

	"repro/internal/markov"
)

// SemanticsMode selects which distribution over complete repairing
// sequences the semantics is computed under. It is an alias of
// markov.SemanticsMode (the chain layer owns the notion so that
// internal/sampling can share it without importing core); core re-exports
// it because the mode is most often chosen at this layer.
//
//   - WalkInduced: the PODS 2018 semantics — a sequence's probability is
//     the product of the generator's transition probabilities along it.
//   - SequenceUniform: the PODS 2022 uniform operational semantics — every
//     complete sequence of the chain's support is equally likely, so a
//     repair weighs (sequences producing it) / (total sequences).
type SemanticsMode = markov.SemanticsMode

const (
	WalkInduced     = markov.WalkInduced
	SequenceUniform = markov.SequenceUniform
)

// ParseSemanticsMode maps a CLI name to a mode. It accepts the canonical
// spellings "walk" and "uniform" plus the long forms "walk-induced" and
// "sequence-uniform"; the empty string means walk.
func ParseSemanticsMode(s string) (SemanticsMode, error) {
	switch s {
	case "walk", "walk-induced", "":
		return WalkInduced, nil
	case "uniform", "sequence-uniform":
		return SequenceUniform, nil
	default:
		return 0, fmt.Errorf("core: unknown semantics mode %q (want walk or uniform)", s)
	}
}
