// Package a declares one name for each rule of the unused-name check.
package a

// Used is referenced from the main package, yet allowlisted: a stale entry.
func Used() int { return 1 }

// Dead is referenced only from a test.
func Dead() {}

// dead is referenced only from its own body.
func dead(n int) int {
	if n > 0 {
		return dead(n - 1)
	}
	return 0
}

// Kept is referenced nowhere, and allowlisted.
func Kept() {}

// Shape is what Total reads.
type Shape interface{ Area() float64 }

// Square is a Shape.
type Square struct{}

// Area is called only through Shape.
func (Square) Area() float64 { return 1 }

// Side is called nowhere.
func (Square) Side() float64 { return 1 }

// Total sums the areas of shapes.
func Total(shapes ...Shape) float64 {
	var sum float64
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

// Kind is a block of constants of which only KindA is referenced.
type Kind int

const (
	KindA Kind = iota
	KindB
)

// FromBench is referenced only from the bench directory.
func FromBench() {}

// FromBenchTest is referenced only from a test in the bench directory.
func FromBenchTest() {}
