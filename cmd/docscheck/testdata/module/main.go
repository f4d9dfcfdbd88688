// Command fix drives lib.
package main

import "fix/lib"

func main() {
	lib.T{}.Used()
	var n lib.Namer = lib.Wrapper{}
	println(n.Name())
}
