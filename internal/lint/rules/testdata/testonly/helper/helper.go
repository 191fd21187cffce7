// Package helper is imported only by tests, so its API is exempt.
package helper

// Fixture serves tests only.
func Fixture() {}
