package linalg

import "sort"

// Sparse is a compressed-sparse-row matrix. Rows and columns are fixed at
// construction; entries are added once through NewSparseFromTriples.
type Sparse struct {
	RowsN, ColsN int
	rowPtr       []int
	colIdx       []int
	vals         []float64
}

// Triple is one (row, col, value) entry.
type Triple struct {
	Row, Col int
	Val      float64
}

// NewSparseFromTriples builds a CSR matrix from unordered triples;
// duplicate (row, col) entries are summed.
func NewSparseFromTriples(rows, cols int, entries []Triple) *Sparse {
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Row != entries[j].Row {
			return entries[i].Row < entries[j].Row
		}
		return entries[i].Col < entries[j].Col
	})
	s := &Sparse{RowsN: rows, ColsN: cols, rowPtr: make([]int, rows+1)}
	for i := 0; i < len(entries); {
		j := i
		v := 0.0
		for j < len(entries) && entries[j].Row == entries[i].Row && entries[j].Col == entries[i].Col {
			v += entries[j].Val
			j++
		}
		s.colIdx = append(s.colIdx, entries[i].Col)
		s.vals = append(s.vals, v)
		s.rowPtr[entries[i].Row+1]++
		i = j
	}
	for r := 0; r < rows; r++ {
		s.rowPtr[r+1] += s.rowPtr[r]
	}
	return s
}

// NNZ returns the number of stored entries.
func (s *Sparse) NNZ() int { return len(s.vals) }

// MulDense returns s · d for a dense matrix d (shape ColsN×k) as a dense
// RowsN×k matrix, in O(nnz · k).
func (s *Sparse) MulDense(d *Matrix) *Matrix {
	if d.Rows != s.ColsN {
		panic("linalg: sparse·dense shape mismatch")
	}
	out := NewMatrix(s.RowsN, d.Cols)
	for r := 0; r < s.RowsN; r++ {
		or := out.Row(r)
		for p := s.rowPtr[r]; p < s.rowPtr[r+1]; p++ {
			v := s.vals[p]
			dr := d.Row(s.colIdx[p])
			for j, dv := range dr {
				or[j] += v * dv
			}
		}
	}
	return out
}

// Each calls fn for every stored entry.
func (s *Sparse) Each(fn func(row, col int, val float64)) {
	for r := 0; r < s.RowsN; r++ {
		for p := s.rowPtr[r]; p < s.rowPtr[r+1]; p++ {
			fn(r, s.colIdx[p], s.vals[p])
		}
	}
}
