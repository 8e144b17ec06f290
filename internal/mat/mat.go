// Package mat provides the flat row-major matrix storage used for all of
// the pipeline's n x n and n x |Q| state (distance matrices, last-hop
// tables, the Step-3/Step-5 blocker matrices, the q-sink result, and the
// sequential oracles).
//
// A Matrix is one contiguous backing slice; Row(i) returns a zero-copy,
// capacity-capped view of row i. The layout buys three things over
// [][]T-of-separate-allocations:
//
//   - one allocation and one pointer indirection instead of rows+1, so the
//     min-plus closures and row scans of the pipeline walk memory linearly;
//   - disjoint-row writes are safe from concurrent goroutines, which is what
//     lets the source-sharded pipeline write Dist/deltaH rows from worker
//     clones without locks (each source owns exactly one row);
//   - row views can be handed out as a [][]T surface (RowViews) without
//     copying, which is how pkg/apsp keeps its public [][]int64 contract.
//
// Invariants: Row(i) aliases the backing slice but is capacity-capped to the
// row, so appends to a view can never spill into the next row; a Matrix is
// never resized after construction.
//
// Because the storage is flat, a misindexed At/Set/Row would silently read
// or write a neighboring row where the old [][]int64 representation
// panicked. Builds tagged `matcheck` (CI runs the race suite with it) turn
// every access into a bounds-asserted one that fails loudly instead; the
// default build keeps the checks compiled out of the hot loops.
package mat

import "fmt"

// check panics when (i, j) is outside a rows x cols matrix; it compiles to
// nothing unless the matcheck build tag is set.
func check(i, j, rows, cols int) {
	if checkEnabled {
		if uint(i) >= uint(rows) || uint(j) >= uint(cols) {
			panic(fmt.Sprintf("mat: index (%d, %d) out of range for %dx%d matrix", i, j, rows, cols))
		}
	}
}

// checkRow panics when i is not a valid row index; compiled out without
// the matcheck build tag.
func checkRow(i, rows int) {
	if checkEnabled {
		if uint(i) >= uint(rows) {
			panic(fmt.Sprintf("mat: row %d out of range for %d rows", i, rows))
		}
	}
}

// Matrix is a flat row-major rows x cols matrix of int64.
type Matrix struct {
	rows, cols int
	data       []int64
}

// New returns a zero-filled rows x cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]int64, rows*cols)}
}

// NewFilled returns a rows x cols matrix with every element set to fill.
func NewFilled(rows, cols int, fill int64) *Matrix {
	m := New(rows, cols)
	if fill != 0 {
		m.Fill(fill)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Row returns a zero-copy view of row i, capacity-capped to the row so an
// append can never overwrite the next row. Distinct rows may be written
// concurrently.
func (m *Matrix) Row(i int) []int64 {
	checkRow(i, m.rows)
	off := i * m.cols
	return m.data[off : off+m.cols : off+m.cols]
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) int64 {
	check(i, j, m.rows, m.cols)
	return m.data[i*m.cols+j]
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v int64) {
	check(i, j, m.rows, m.cols)
	m.data[i*m.cols+j] = v
}

// Fill sets every element to v.
func (m *Matrix) Fill(v int64) {
	for i := range m.data {
		m.data[i] = v
	}
}

// RowViews materializes the [][]int64 surface: a slice of zero-copy row
// views. Mutating an element through a view mutates the matrix.
func (m *Matrix) RowViews() [][]int64 {
	out := make([][]int64, m.rows)
	for i := range out {
		out[i] = m.Row(i)
	}
	return out
}

// Int is a flat row-major rows x cols matrix of int (last-hop and parent
// tables).
type Int struct {
	rows, cols int
	data       []int
}

// NewInt returns a zero-filled rows x cols int matrix.
func NewInt(rows, cols int) *Int {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	return &Int{rows: rows, cols: cols, data: make([]int, rows*cols)}
}

// NewIntFilled returns a rows x cols int matrix with every element fill.
func NewIntFilled(rows, cols int, fill int) *Int {
	m := NewInt(rows, cols)
	if fill != 0 {
		for i := range m.data {
			m.data[i] = fill
		}
	}
	return m
}

// Rows returns the number of rows.
func (m *Int) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Int) Cols() int { return m.cols }

// Row returns a zero-copy, capacity-capped view of row i.
func (m *Int) Row(i int) []int {
	checkRow(i, m.rows)
	off := i * m.cols
	return m.data[off : off+m.cols : off+m.cols]
}

// At returns element (i, j).
func (m *Int) At(i, j int) int {
	check(i, j, m.rows, m.cols)
	return m.data[i*m.cols+j]
}

// Set assigns element (i, j).
func (m *Int) Set(i, j int, v int) {
	check(i, j, m.rows, m.cols)
	m.data[i*m.cols+j] = v
}

// RowViews materializes the [][]int surface of zero-copy row views.
func (m *Int) RowViews() [][]int {
	out := make([][]int, m.rows)
	for i := range out {
		out[i] = m.Row(i)
	}
	return out
}
