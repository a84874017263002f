package markov

import "fmt"

// SemanticsMode selects the probability distribution a repairing chain
// induces over its complete sequences — and therefore over operational
// repairs. The chain's *support* (which sequences exist at all) is fixed by
// the generator either way; the mode only decides how mass is spread over
// that support.
//
// Core re-exports this type as core.SemanticsMode; CLI surfaces accept it
// via core.ParseSemanticsMode ("walk" / "uniform").
type SemanticsMode int

const (
	// WalkInduced is the paper's semantics (PODS 2018): a complete sequence
	// s has probability π(s), the product of the generator's transition
	// probabilities along s. This is the distribution of the random walk
	// that starts at ε and steps by the generator.
	WalkInduced SemanticsMode = iota

	// SequenceUniform is the uniform operational semantics of Calautti,
	// Livshits, Pieris and Schneider (PODS 2022): every complete sequence in
	// the chain's support is equally likely, so a repair's probability is
	// (number of complete sequences producing it) / (total complete
	// sequences). For the uniform generator the support is *all* repairing
	// sequences, recovering the PODS '22 definition exactly; for a
	// restricted-support generator the mode is uniform over that support.
	SequenceUniform
)

// String implements fmt.Stringer with the CLI spellings.
func (m SemanticsMode) String() string {
	switch m {
	case WalkInduced:
		return "walk"
	case SequenceUniform:
		return "uniform"
	default:
		return fmt.Sprintf("SemanticsMode(%d)", int(m))
	}
}
