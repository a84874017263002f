package sat

import "io"

// SatisfiableDIMACS decides a DIMACS CNF file by enumerating every
// assignment, for the external tests' checks of exported formulas.
func SatisfiableDIMACS(r io.Reader) (bool, error) {
	c, err := parseDIMACS(r)
	if err != nil {
		return false, err
	}
	return bruteSAT(c), nil
}
