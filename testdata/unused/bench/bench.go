// Package bench stands for a benchmark module whose files, tests
// included, count as references.
package bench

import "unused/internal/a"

// Run calls into the module.
func Run() { a.FromBench() }
