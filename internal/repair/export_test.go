package repair

// Built reports whether the state's database or violation set has been
// built: on a Cursor's state, whether either was read since the walk's
// Reset; on a DeferredChild, whether it was materialized. Every other
// state is built.
func (s *State) Built() bool {
	if c := s.cursor; c != nil {
		return c.db != nil || c.vios != nil
	}
	return !s.deferred
}
