// Command bench stands in for the benchmark module.
package main

import "fix/lib"

func main() { lib.BenchOnly() }
