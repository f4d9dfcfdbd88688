// Package libtest is test support: its names are not judged.
package libtest

// Helper is referenced by nothing.
func Helper() {}
