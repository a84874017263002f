package core

// SetCanonLeafBudget replaces the canonicalization leaf budget for the
// duration of a test and returns a function restoring the previous value.
// A budget of 0 sends every component to the first-occurrence fallback.
func SetCanonLeafBudget(n int) (restore func()) {
	prev := canonLeafBudget
	canonLeafBudget = n
	return func() { canonLeafBudget = prev }
}
