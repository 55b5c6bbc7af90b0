// Package lib is the dead-surface checker's fixture library.
package lib

// Live is called from the command.
func Live() int { return 1 }

// Dead is exported and called by nothing outside its tests: rule A
// flags it.
func Dead() int { return 2 }

// Named is used by the command only as a fmt.Stringer.
type Named struct{}

// String satisfies fmt.Stringer, so it is not dead although nothing
// calls it by name.
func (Named) String() string { return "named" }

// Unused satisfies no interface and nothing calls it.
func (Named) Unused() {}

// Anon is reached through an anonymous-interface assertion.
type Anon struct{}

// Advance is called only through interface{ Advance(int) }.
func (Anon) Advance(int) {}
