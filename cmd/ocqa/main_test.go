package main

// CLI-level tests for run(): mode validation must fire before any file
// is touched and must enumerate every valid mode, and -mode sat must be
// a working end-to-end pipeline from the text formats to certain answers
// (including the DIMACS export directory).

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const (
	testDB    = "inline:R(a, 1). R(a, 2). R(b, 3)."
	testSigma = "inline:R(X, Y), R(X, Z) -> Y = Z."
	testQuery = "inline:Q(X) := exists Y: R(X, Y)."
)

func runWith(db, sigma, query, mode string, nulls bool, dimacsDir string) error {
	return run(db, sigma, query, "uniform", mode, "walk",
		0.1, 0.1, 1, 1, 1_000_000, nulls, 0, dimacsDir)
}

// TestUnknownModeListsValidModes: the satellite bugfix — an unknown
// -mode is rejected with a usage message enumerating every valid mode,
// and the check runs before any input file is opened (bogus paths must
// not mask the mode error).
func TestUnknownModeListsValidModes(t *testing.T) {
	err := runWith("/no/such/db", "/no/such/sigma", "/no/such/query", "exakt", false, "")
	if err == nil {
		t.Fatal("unknown mode accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"exakt"`) {
		t.Fatalf("error does not echo the bad mode: %q", msg)
	}
	for _, m := range validModes {
		if !strings.Contains(msg, m) {
			t.Fatalf("error does not list valid mode %q: %q", m, msg)
		}
	}
}

// TestValidModesListMatchesSwitch: every advertised mode must get past
// the validation gate and reach its branch (i.e. fail on something other
// than "unknown -mode", or succeed).
func TestValidModesListMatchesSwitch(t *testing.T) {
	for _, m := range validModes {
		err := runWith(testDB, testSigma, testQuery, m, false, "")
		if err != nil && strings.Contains(err.Error(), "unknown -mode") {
			t.Fatalf("advertised mode %q rejected by validation: %v", m, err)
		}
	}
}

// TestSATModeEndToEnd: -mode sat over inline inputs computes the right
// certain set — R(b,3) is conflict-free so b is certain; the a-group can
// resolve to empty, so a is not.
func TestSATModeEndToEnd(t *testing.T) {
	if err := runWith(testDB, testSigma, testQuery, "sat", false, ""); err != nil {
		t.Fatalf("-mode sat: %v", err)
	}
}

// TestSATModeDIMACSExport: -dimacs writes one well-formed CNF file per
// candidate tuple (here: a and b).
func TestSATModeDIMACSExport(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cnf")
	if err := runWith(testDB, testSigma, testQuery, "sat", false, dir); err != nil {
		t.Fatalf("-mode sat -dimacs: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("wrote %d files, want one per candidate (2)", len(entries))
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), "p cnf ") {
			t.Fatalf("%s is not a DIMACS file:\n%s", e.Name(), data)
		}
	}
}

// TestSATModeRejectsNulls: labeled-null insertion repairs are outside
// the SAT encoding's deletion-only repair space.
func TestSATModeRejectsNulls(t *testing.T) {
	err := runWith(testDB, testSigma, testQuery, "sat", true, "")
	if err == nil || !strings.Contains(err.Error(), "-nulls") {
		t.Fatalf("want -nulls rejection, got %v", err)
	}
}

// TestSATModeRejectsNonKeyConstraints: a denial constraint is not a key
// EGD; the error should steer to -mode exact.
func TestSATModeRejectsNonKeyConstraints(t *testing.T) {
	err := runWith(testDB, "inline:R(X, Y), R(Y, X) -> false.", testQuery, "sat", false, "")
	if err == nil || !strings.Contains(err.Error(), "-mode exact") {
		t.Fatalf("want unsupported-constraints error pointing at -mode exact, got %v", err)
	}
}

// TestSATModeDIMACSDeterministic: two exports of the same input, in one
// process, write byte-identical files. The witness clauses follow the
// join's homomorphism order, which walks each predicate's facts in the
// order Database.Seal lays them out, so that layout must not depend on a
// map walk. 600 facts make the parser's database auto-seal part way
// through, so the final seal starts from a non-empty snapshot.
func TestSATModeDIMACSDeterministic(t *testing.T) {
	var db strings.Builder
	db.WriteString("inline:")
	for k := 0; k < 150; k++ {
		for v := 0; v < 2; v++ {
			fmt.Fprintf(&db, "R(k%d, v%d_%d). S(k%d, w%d_%d). ", k, k, v, k, k, v)
		}
	}
	const sigma = "inline:R(X, Y), R(X, Z) -> Y = Z. S(X, Y), S(X, Z) -> Y = Z."
	const query = "inline:Q(X) := exists Y, Z: (R(X, Y) & S(X, Z))."
	dirs := []string{filepath.Join(t.TempDir(), "a"), filepath.Join(t.TempDir(), "b")}
	for _, dir := range dirs {
		if err := runWith(db.String(), sigma, query, "sat", false, dir); err != nil {
			t.Fatalf("-mode sat -dimacs: %v", err)
		}
	}
	entries, err := os.ReadDir(dirs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 150 {
		t.Fatalf("wrote %d files, want one per candidate (150)", len(entries))
	}
	for _, e := range entries {
		a, errA := os.ReadFile(filepath.Join(dirs[0], e.Name()))
		b, errB := os.ReadFile(filepath.Join(dirs[1], e.Name()))
		if errA != nil || errB != nil {
			t.Fatalf("read %s: %v, %v", e.Name(), errA, errB)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs between two exports of the same input", e.Name())
		}
	}
}
