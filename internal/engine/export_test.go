package engine

import "repro/internal/delaynoise"

// The session's characterization cache, for the tests that check that
// a session has one and that Bind wires exactly it.

// Chars returns the shared driver-characterization cache.
func (s *Session) Chars() *delaynoise.CharCache { return s.chars }
