package generators

import (
	"math/big"

	"repro/internal/ops"
	"repro/internal/repair"
)

// DatabaseIntWeights is Preference.IntWeights counted in the state's
// database and violation set — the path under TGDs — whatever Σ.
func DatabaseIntWeights(p Preference, s *repair.State, exts []ops.Op) ([]int64, bool, error) {
	ws, involved, err := p.databaseWeights(s, exts, nil)
	if err != nil {
		return ws, false, err
	}
	ok, err := agree(s, ws, involved)
	return ws, ok, err
}

// DatabaseTransitions is Preference.Transitions counted in the state's
// database and violation set, whatever Σ.
func DatabaseTransitions(p Preference, s *repair.State, exts []ops.Op) ([]*big.Rat, error) {
	ws, involved, err := p.databaseWeights(s, exts, nil)
	if err != nil {
		return nil, err
	}
	return ratios(s, ws, involved)
}
