package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Write serializes the graph as a weighted edge list: "u v w" per line
// with u < v, in sorted order.
func (g *Graph) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%% nodes %d\n", g.NumNodes()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d %d\n", e.U, e.V, e.W); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses the format produced by Write: an optional "% nodes N" header
// followed by "u v w" lines (w defaults to 1 when omitted). Blank lines and
// "%" comments are skipped. A self-loop, a negative node id, or a weight
// that, summed over repeated lines, overflows int32 fails with an error
// naming the line.
func Read(r io.Reader) (*Graph, error) {
	g := New(0)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "%") {
			var n int
			if _, err := fmt.Sscanf(text, "%% nodes %d", &n); err == nil {
				g.EnsureNodes(n)
			}
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("graph: line %d: want \"u v [w]\", got %q", lineNo, text)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad node %q", lineNo, fields[0])
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad node %q", lineNo, fields[1])
		}
		if u == v || u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: line %d: bad edge {%d, %d}", lineNo, u, v)
		}
		w := 1
		if len(fields) == 3 {
			w, err = strconv.Atoi(fields[2])
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("graph: line %d: bad weight %q", lineNo, fields[2])
			}
		}
		g.EnsureNodes(max(u, v) + 1)
		if g.Weight(u, v)+w > math.MaxInt32 {
			return nil, fmt.Errorf("graph: line %d: weight of {%d, %d} overflows int32", lineNo, u, v)
		}
		g.AddWeight(u, v, w)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return g, nil
}
