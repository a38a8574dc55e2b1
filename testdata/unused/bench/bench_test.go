package bench

import (
	"testing"

	"unused/internal/a"
)

func TestRun(t *testing.T) {
	Run()
	a.FromBenchTest()
}
