package engine

import "repro/internal/delaynoise"

// The session's characterization cache, for the tests that check that
// a configuration turns it on and that Bind wires exactly it.

// Chars returns the shared driver-characterization cache (nil when
// disabled by Config.CharCacheRes < 0).
func (s *Session) Chars() *delaynoise.CharCache { return s.chars }
