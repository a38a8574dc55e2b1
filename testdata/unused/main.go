// Command unused is the module TestUnusedNamesFindings checks: each name
// its internal package declares exercises one rule of the check.
package main

import "unused/internal/a"

func main() {
	_ = a.Used() + int(a.KindA)
	_ = a.Total(a.Square{})
}
