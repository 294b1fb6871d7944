package hypergraph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Write serializes the hypergraph in a line-oriented text format: one
// unique hyperedge per line as space-separated node ids, followed by
// "# <multiplicity>" when the multiplicity exceeds 1. Lines are sorted by
// node set for reproducible output.
func (h *Hypergraph) Write(w io.Writer) error {
	type line struct {
		nodes []int
		mult  int
	}
	lines := make([]line, 0, h.NumUnique())
	h.Each(func(nodes []int, mult int) {
		lines = append(lines, line{nodes: nodes, mult: mult})
	})
	slices.SortFunc(lines, func(a, b line) int { return slices.Compare(a.nodes, b.nodes) })
	bw := bufio.NewWriter(w)
	for _, l := range lines {
		for i, u := range l.nodes {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.Itoa(u)); err != nil {
				return err
			}
		}
		if l.mult > 1 {
			if _, err := fmt.Fprintf(bw, " # %d", l.mult); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses the format produced by Write. Blank lines and lines starting
// with "%" are skipped. A multiplicity below 1, a negative node id, a
// hyperedge of fewer than 2 distinct nodes, or a hyperedge that makes a
// pair's projected weight overflow int32 (see Project) fails with an
// error naming the line.
func Read(r io.Reader) (*Hypergraph, error) {
	h := New(0)
	var weights pairWeights
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "%") {
			continue
		}
		mult := 1
		if i := strings.Index(text, "#"); i >= 0 {
			m, err := strconv.Atoi(strings.TrimSpace(text[i+1:]))
			if err != nil {
				return nil, fmt.Errorf("hypergraph: line %d: bad multiplicity: %v", lineNo, err)
			}
			if m < 1 {
				return nil, fmt.Errorf("hypergraph: line %d: multiplicity %d must be ≥ 1", lineNo, m)
			}
			mult = m
			text = strings.TrimSpace(text[:i])
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("hypergraph: line %d: hyperedge needs at least 2 nodes", lineNo)
		}
		nodes := make([]int, len(fields))
		for i, f := range fields {
			u, err := strconv.Atoi(f)
			if err != nil || u < 0 {
				return nil, fmt.Errorf("hypergraph: line %d: bad node id %q", lineNo, f)
			}
			nodes[i] = u
		}
		if slices.Min(nodes) == slices.Max(nodes) {
			return nil, fmt.Errorf("hypergraph: line %d: hyperedge needs at least 2 distinct nodes", lineNo)
		}
		if pair, over := weights.add(h, nodes, mult); over {
			return nil, fmt.Errorf("hypergraph: line %d: projected weight of {%d, %d} overflows int32", lineNo, pair[0], pair[1])
		}
		h.AddMult(nodes, mult)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return h, nil
}

// pairWeights checks, hyperedge by hyperedge, that no pair's projected
// weight ω(u, v) = Σ M(e) over the hyperedges e holding both passes
// int32, the width Project stores. ω(u, v) is at most the total
// multiplicity, so no pair can overflow while that total stays at or
// below math.MaxInt32, and until then add costs one comparison. Past it,
// the exact per-pair sums are kept in a map, seeded from every hyperedge
// so far. The zero value is ready to use.
type pairWeights struct {
	w map[[2]int]int // nil until the total would pass math.MaxInt32
}

// add accounts for mult occurrences of nodes, which are about to be added
// to h, and reports the first pair whose weight would overflow.
func (p *pairWeights) add(h *Hypergraph, nodes []int, mult int) (pair [2]int, over bool) {
	if p.w == nil {
		if mult <= math.MaxInt32-h.NumTotal() {
			return pair, false
		}
		p.w = make(map[[2]int]int)
		h.Each(func(e []int, m int) { p.addEdge(e, m) })
	}
	return p.addEdge(canonical(nodes), mult)
}

// addEdge adds mult to the weight of every pair of the sorted, distinct
// nodes, stopping at the first pair it would push past math.MaxInt32.
func (p *pairWeights) addEdge(nodes []int, mult int) (pair [2]int, over bool) {
	for i, a := range nodes {
		for _, b := range nodes[i+1:] {
			k := [2]int{a, b}
			if p.w[k] > math.MaxInt32-mult {
				return k, true
			}
			p.w[k] += mult
		}
	}
	return pair, false
}
