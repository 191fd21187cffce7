// Package cachekeydata exercises the cachekey analyzer against the real
// single-flight cache in internal/memo.
package cachekeydata

import "repro/internal/memo"

// goodKey is a pure comparable value: clean.
type goodKey struct {
	Net     string
	Corner  string
	Victim  int
	Rising  bool
	SlewPS  int64
	LoadBit uint64 // pre-hashed float, the sanctioned spelling
}

var good = memo.New[goodKey, int](nil)

// Array components of comparable values are fine too: clean.
type arrayKey struct {
	Name    string
	Moments [4]int64
}

var goodArray = memo.New[arrayKey, string](nil)

type ptrKey struct {
	Name string
	Net  *int
}

var badPtr = memo.New[ptrKey, int](nil) // want "cache key type ptrKey field Net embeds a pointer"

type floatKey struct {
	Slew float64
}

var badFloat = memo.New[floatKey, int](nil) // want "cache key type floatKey field Slew embeds a float"

// The declared type of a cache variable is an instantiation site too.
var badDecl *memo.Cache[*int, string] // want "cache key type \\*int embeds a pointer"

var _ = good
var _ = goodArray
var _ = badPtr
var _ = badFloat
var _ = badDecl
