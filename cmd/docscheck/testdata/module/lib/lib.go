// Package lib holds one name of each kind the dead-name rule judges.
package lib

// Dead is referenced by nothing.
func Dead() {}

// BenchOnly is referenced only by the second module.
func BenchOnly() {}

// T has one method that main calls and one that only a test calls.
type T struct{}

// Used is called by main.
func (T) Used() {}

// OnlyTested is called only by lib_test.go.
func (T) OnlyTested() {}

// Namer is satisfied by Wrapper through the method it promotes from Base.
type Namer interface{ Name() string }

// Base is embedded in Wrapper.
type Base struct{}

// Name is reached only through Namer.
func (Base) Name() string { return "base" }

// Wrapper promotes Base.Name.
type Wrapper struct{ Base }
