package graph

import (
	"math"
	"testing"
)

func TestDensity(t *testing.T) {
	g := New(4)
	g.AddWeight(0, 1, 1)
	g.AddWeight(2, 3, 1)
	if d := g.Density(); math.Abs(d-2.0/6) > 1e-12 {
		t.Fatalf("Density = %v, want 1/3", d)
	}
	if New(1).Density() != 0 {
		t.Fatal("singleton density must be 0")
	}
}
