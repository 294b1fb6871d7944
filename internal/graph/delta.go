package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// DeltaKind discriminates the mutation a DeltaOp performs.
type DeltaKind uint8

// The delta operations a projected-graph edge stream carries.
const (
	// DeltaAdd adds W (> 0) to ω(U, V), inserting the edge if absent.
	DeltaAdd DeltaKind = iota
	// DeltaRemove deletes the edge {U, V} regardless of its weight; a
	// no-op when the pair is not an edge.
	DeltaRemove
	// DeltaSet sets ω(U, V) to exactly W (≥ 0; 0 deletes the edge).
	DeltaSet
)

// DeltaOp is one mutation of a weighted projected graph: an edge insert or
// weight increase (DeltaAdd), an edge delete (DeltaRemove), or an absolute
// weight change (DeltaSet). Batches of DeltaOps are the unit of change the
// incremental reconstruction engine consumes.
type DeltaOp struct {
	Kind DeltaKind
	U, V int
	W    int
}

// Validate reports why op is not a well-formed mutation, or nil: an
// unknown kind, a self-loop or negative node, an add weight ≤ 0, a set
// weight < 0, or a weight past int32, as multiplicities are stored as
// int32 (see Graph.AddWeight). The error names the reason only; callers
// say where the op came from.
func (op DeltaOp) Validate() error {
	switch {
	case op.Kind > DeltaSet:
		return fmt.Errorf("unknown kind %d", op.Kind)
	case op.U == op.V || op.U < 0 || op.V < 0:
		return fmt.Errorf("bad edge {%d, %d}", op.U, op.V)
	case op.Kind == DeltaAdd && op.W <= 0:
		return fmt.Errorf("add weight %d must be > 0", op.W)
	case op.Kind == DeltaSet && op.W < 0:
		return fmt.Errorf("set weight %d must be ≥ 0", op.W)
	case op.W > math.MaxInt32:
		return fmt.Errorf("weight %d overflows int32", op.W)
	}
	return nil
}

// String renders the op in the delta text format (see WriteDeltas).
func (op DeltaOp) String() string {
	switch op.Kind {
	case DeltaAdd:
		return fmt.Sprintf("+ %d %d %d", op.U, op.V, op.W)
	case DeltaRemove:
		return fmt.Sprintf("- %d %d", op.U, op.V)
	default:
		return fmt.Sprintf("= %d %d %d", op.U, op.V, op.W)
	}
}

// WriteDeltas serializes a delta stream in a line-oriented text format,
// one op per line:
//
//	"+ u v w"   add w to ω(u, v) (insert when absent)
//	"- u v"     delete the edge {u, v}
//	"= u v w"   set ω(u, v) to exactly w
func WriteDeltas(w io.Writer, ops []DeltaOp) error {
	bw := bufio.NewWriter(w)
	for _, op := range ops {
		if _, err := fmt.Fprintln(bw, op.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadDeltas parses the format produced by WriteDeltas. Blank lines and
// "%" comments are skipped.
func ReadDeltas(r io.Reader) ([]DeltaOp, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var ops []DeltaOp
	lineNo := 0
	for sc.Scan() {
		lineNo++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "%") {
			continue
		}
		fields := strings.Fields(text)
		op := DeltaOp{}
		switch fields[0] {
		case "+":
			op.Kind = DeltaAdd
		case "-":
			op.Kind = DeltaRemove
		case "=":
			op.Kind = DeltaSet
		default:
			return nil, fmt.Errorf("graph: delta line %d: unknown op %q", lineNo, fields[0])
		}
		wantArgs := 3
		if op.Kind == DeltaRemove {
			wantArgs = 2
		}
		if len(fields) != 1+wantArgs {
			return nil, fmt.Errorf("graph: delta line %d: %q wants %d arguments, got %d",
				lineNo, fields[0], wantArgs, len(fields)-1)
		}
		args := make([]int, wantArgs)
		for i := range args {
			n, err := strconv.Atoi(fields[1+i])
			if err != nil {
				return nil, fmt.Errorf("graph: delta line %d: bad number %q", lineNo, fields[1+i])
			}
			args[i] = n
		}
		op.U, op.V = args[0], args[1]
		if wantArgs == 3 {
			op.W = args[2]
		}
		if err := op.Validate(); err != nil {
			return nil, fmt.Errorf("graph: delta line %d: %w", lineNo, err)
		}
		ops = append(ops, op)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return ops, nil
}

// Tracker applies delta ops to a mutating graph and records which nodes
// they touched, so a long-lived reconstruction session can tell which
// components a batch of deltas may have changed. It keeps no component
// state of its own: Components and Component read the current graph.
//
// All mutations must flow through the Tracker (Apply); mutating the
// underlying graph directly bypasses the touched set.
type Tracker struct {
	g *Graph
	// touched accumulates the endpoints of every op since the last
	// ResetTouched, the dirty seed the incremental engine works from.
	touched map[int]bool
}

// NewTracker builds a Tracker over g. The Tracker takes ownership of g's
// structure: apply all further mutations through Apply.
func NewTracker(g *Graph) *Tracker {
	return &Tracker{g: g, touched: map[int]bool{}}
}

// Graph returns the tracked graph. Callers must not mutate it directly.
func (t *Tracker) Graph() *Graph { return t.g }

// EnsureNodes grows the tracked graph to n nodes; new nodes start
// isolated.
func (t *Tracker) EnsureNodes(n int) { t.g.EnsureNodes(n) }

// Apply performs one delta op on the tracked graph and marks both
// endpoints touched. Node ids beyond the current node set grow it.
func (t *Tracker) Apply(op DeltaOp) {
	if op.U == op.V {
		panic("graph: delta self-loop")
	}
	t.g.EnsureNodes(max(op.U, op.V) + 1)
	// Mark before mutating: if a graph primitive panics mid-op (weight
	// overflow), the endpoints still read as touched, so consumers that
	// survive the panic re-derive this component's state instead of
	// trusting caches.
	t.touched[op.U] = true
	t.touched[op.V] = true
	switch op.Kind {
	case DeltaAdd:
		t.g.AddWeight(op.U, op.V, op.W)
	case DeltaRemove:
		t.g.RemoveEdge(op.U, op.V)
	case DeltaSet:
		t.g.SetWeight(op.U, op.V, op.W)
	}
}

// Component returns the sorted nodes of the component containing u,
// found by a traversal bounded to that component.
func (t *Tracker) Component(u int) []int {
	if u < 0 || u >= t.g.NumNodes() {
		panic(fmt.Sprintf("graph: tracker node %d out of range [0,%d)", u, t.g.NumNodes()))
	}
	comp := []int{u}
	seen := map[int]bool{u: true}
	for i := 0; i < len(comp); i++ {
		t.g.NeighborWeights(comp[i], func(v, _ int) {
			if !seen[v] {
				seen[v] = true
				comp = append(comp, v)
			}
		})
	}
	sort.Ints(comp)
	return comp
}

// Components returns the node sets of all components with at least one
// edge, each sorted ascending, ordered by their smallest node: one scan
// of the graph, matching Graph.ConnectedComponents with singletons
// dropped.
func (t *Tracker) Components() [][]int { return t.g.components(false) }

// Touched returns the sorted nodes mutated since the last ResetTouched.
func (t *Tracker) Touched() []int {
	out := make([]int, 0, len(t.touched))
	for u := range t.touched {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// TouchedSet reports whether u was mutated since the last ResetTouched.
func (t *Tracker) TouchedSet(u int) bool { return t.touched[u] }

// ResetTouched clears the touched set, starting a new delta batch.
func (t *Tracker) ResetTouched() { t.touched = map[int]bool{} }
