// Package directives holds the testonly suppressions the framework
// itself reports: one without a reason and one that excuses nothing.
package directives

//lint:ignore noiselint/testonly
func NoReason() {}

//lint:ignore noiselint/testonly a stale excuse: Used has a use
func Used() {}

func use() { Used() }
