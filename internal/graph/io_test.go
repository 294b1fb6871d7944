package graph

import (
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	g := New(7)
	g.AddWeight(0, 3, 4)
	g.AddWeight(1, 2, 1)
	var sb strings.Builder
	if err := g.Write(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != 7 {
		t.Fatalf("nodes = %d, want 7 (header)", got.NumNodes())
	}
	if got.Weight(0, 3) != 4 || got.Weight(1, 2) != 1 {
		t.Fatal("weights lost in round trip")
	}
	if got.NumEdges() != 2 {
		t.Fatalf("edges = %d", got.NumEdges())
	}
}

func TestReadDefaultsWeight(t *testing.T) {
	g, err := Read(strings.NewReader("0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.Weight(0, 1) != 1 {
		t.Fatal("missing weight should default to 1")
	}
}

func TestReadErrors(t *testing.T) {
	for _, tc := range []struct {
		in, line string
	}{
		{"0", "line 1"},
		{"0 1 2 3", "line 1"},
		{"a 1", "line 1"},
		{"0 b", "line 1"},
		{"0 1 -2", "line 1"},
		{"0 1 1\n0 0 1", "line 2"},                   // self-loop
		{"0 1 1\n-1 3 1", "line 2"},                  // negative node id
		{"2 -3", "line 1"},                           // negative node id
		{"0 1 2000000000\n0 1 2000000000", "line 2"}, // summed weight overflows int32
		{"0 1 3000000000", "line 1"},                 // weight overflows int32
	} {
		_, err := Read(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.line) {
			t.Fatalf("input %q: got %v, want an error naming %s", tc.in, err, tc.line)
		}
	}
}
