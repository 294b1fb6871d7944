package hypergraph

import (
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	h := New(6)
	h.AddMult([]int{0, 1}, 3)
	h.Add([]int{2, 3, 4})
	h.Add([]int{0, 5})
	var sb strings.Builder
	if err := h.Write(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !h.Equal(got) {
		t.Fatalf("round trip mismatch:\n%s", sb.String())
	}
}

func TestReadFormatVariants(t *testing.T) {
	in := `
% a comment
1 2 3
4 5 # 7

2 1 3
`
	h, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if h.Multiplicity([]int{1, 2, 3}) != 2 {
		t.Fatalf("mult({1,2,3}) = %d, want 2 (order-insensitive)", h.Multiplicity([]int{1, 2, 3}))
	}
	if h.Multiplicity([]int{4, 5}) != 7 {
		t.Fatalf("mult({4,5}) = %d, want 7", h.Multiplicity([]int{4, 5}))
	}
}

func TestReadErrors(t *testing.T) {
	for _, tc := range []struct {
		in, line string
	}{
		{"5", "line 1"},
		{"a b", "line 1"},
		{"1 2 # x", "line 1"},
		{"0 1\n1 1 # 1", "line 2"},   // one distinct node
		{"0 1 2\n0 1 # 0", "line 2"}, // zero multiplicity
		{"0 1 # -3", "line 1"},       // negative multiplicity
		{"0 1\n-1 2", "line 2"},      // negative node id
		// Projected weights past int32: one line, then two whose shared
		// pair {0,1} sums past it on the second.
		{"0 1 # 3000000000", "line 1"},
		{"0 1 # 2000000000\n0 1 2 # 2000000000", "line 2"},
	} {
		_, err := Read(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.line) {
			t.Fatalf("input %q: got %v, want an error naming %s", tc.in, err, tc.line)
		}
	}
	// A total past int32 whose pairs all stay within it is accepted.
	h, err := Read(strings.NewReader("0 1 # 2000000000\n2 3 # 2000000000\n1 2 # 147483647"))
	if err != nil {
		t.Fatal(err)
	}
	if w := h.Project().Weight(1, 2); w != 147483647 {
		t.Fatalf("ω(1,2) = %d, want 147483647", w)
	}
}
