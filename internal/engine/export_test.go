package engine

import "repro/internal/delaynoise"

// The session's caches, for the tests that check which caches a
// configuration turns on and that Bind wires exactly them.

// Chars returns the shared driver-characterization cache (nil when
// disabled by Config.CharCacheRes < 0).
func (s *Session) Chars() *delaynoise.CharCache { return s.chars }

// ROMs returns the shared reduced-order-model cache.
func (s *Session) ROMs() *delaynoise.ROMCache { return s.roms }
