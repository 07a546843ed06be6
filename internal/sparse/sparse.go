// Package sparse provides the sparse-matrix substrate for the SpMV
// workload: COO/CSR representations, a deterministic skewed nonzero
// generator (stand-in for the SparseP input set, which requires SuiteSparse
// downloads), reference SpMV, and the DBCOO partitioning of SparseP [31] —
// a 2D decomposition with vertical (column-block) partitions whose partial
// output vectors are combined with Reduce-Scatter on PIM.
package sparse

import (
	"fmt"
	"math/rand"
	"slices"
)

// COO is a coordinate-format sparse matrix.
type COO struct {
	Rows, Cols int
	RowIdx     []int32
	ColIdx     []int32
	Val        []int32
}

// NNZ returns the nonzero count.
func (m *COO) NNZ() int64 { return int64(len(m.Val)) }

// Config parameterizes the generator.
type Config struct {
	Rows, Cols int
	NNZ        int64
	Skew       float64 // 0 = uniform; higher concentrates nonzeros in early rows
	Seed       int64
}

// Generate produces a deterministic sparse matrix with exactly the requested
// nonzero count. Coordinates are drawn until that many are distinct; a
// coordinate drawn again keeps the value of its last draw.
func Generate(cfg Config) (*COO, error) {
	if cfg.Rows < 1 || cfg.Cols < 1 {
		return nil, fmt.Errorf("sparse: shape %dx%d", cfg.Rows, cfg.Cols)
	}
	if cfg.NNZ < 1 || cfg.NNZ > int64(cfg.Rows)*int64(cfg.Cols) {
		return nil, fmt.Errorf("sparse: nnz %d out of range for %dx%d", cfg.NNZ, cfg.Rows, cfg.Cols)
	}
	if cfg.Skew < 0 {
		return nil, fmt.Errorf("sparse: negative skew %v", cfg.Skew)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Coordinates are packed as row<<32 | col, so sorting the keys orders
	// the nonzeros row-major.
	seen := make(map[uint64]int32, cfg.NNZ)
	for int64(len(seen)) < cfg.NNZ {
		var r int
		if cfg.Skew > 0 {
			// Exponent-skewed row choice: row ~ N * u^(1+skew).
			u := rng.Float64()
			for i := 0.0; i < cfg.Skew; i++ {
				u *= rng.Float64()
			}
			r = int(u * float64(cfg.Rows))
		} else {
			r = rng.Intn(cfg.Rows)
		}
		if r >= cfg.Rows {
			r = cfg.Rows - 1
		}
		c := rng.Intn(cfg.Cols)
		seen[uint64(uint32(r))<<32|uint64(uint32(c))] = int32(rng.Intn(100) + 1)
	}
	keys := make([]uint64, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	m := &COO{Rows: cfg.Rows, Cols: cfg.Cols,
		RowIdx: make([]int32, len(keys)), ColIdx: make([]int32, len(keys)), Val: make([]int32, len(keys))}
	for i, k := range keys {
		m.RowIdx[i] = int32(k >> 32)
		m.ColIdx[i] = int32(uint32(k))
		m.Val[i] = seen[k]
	}
	return m, nil
}

// SpMV computes y = A*x (reference implementation, the ground truth for
// partitioned execution).
func SpMV(m *COO, x []int32) ([]int64, error) {
	if len(x) != m.Cols {
		return nil, fmt.Errorf("sparse: x has %d entries, want %d", len(x), m.Cols)
	}
	y := make([]int64, m.Rows)
	for i := range m.Val {
		y[m.RowIdx[i]] += int64(m.Val[i]) * int64(x[m.ColIdx[i]])
	}
	return y, nil
}

// DBCOOPart is one tile of the DBCOO 2D decomposition: the nonzeros of one
// (row-band, column-block) tile, assigned to one DPU.
type DBCOOPart struct {
	RowBand  int // horizontal band index
	ColBlock int // vertical partition index
	NNZ      int64
}

// DBCOO partitions the matrix into vertical column blocks x horizontal row
// bands (SparseP's DBCOO with the paper's 32 vertical partitions). Each
// column block computes a partial y over its columns; the partials are
// combined with Reduce-Scatter across the blocks.
type DBCOO struct {
	Matrix    *COO
	ColBlocks int
	RowBands  int
	Parts     []DBCOOPart
}

// PartitionDBCOO builds the decomposition; colBlocks*rowBands should equal
// the DPU count.
func PartitionDBCOO(m *COO, colBlocks, rowBands int) (*DBCOO, error) {
	if colBlocks < 1 || rowBands < 1 {
		return nil, fmt.Errorf("sparse: partition %dx%d", colBlocks, rowBands)
	}
	d := &DBCOO{Matrix: m, ColBlocks: colBlocks, RowBands: rowBands}
	counts := make([]int64, colBlocks*rowBands)
	for i := range m.Val {
		cb := int(m.ColIdx[i]) * colBlocks / m.Cols
		rb := int(m.RowIdx[i]) * rowBands / m.Rows
		counts[rb*colBlocks+cb]++
	}
	for rb := 0; rb < rowBands; rb++ {
		for cb := 0; cb < colBlocks; cb++ {
			d.Parts = append(d.Parts, DBCOOPart{
				RowBand: rb, ColBlock: cb, NNZ: counts[rb*colBlocks+cb],
			})
		}
	}
	return d, nil
}

// MaxPartNNZ returns the heaviest tile — the busiest DPU's multiply count.
func (d *DBCOO) MaxPartNNZ() int64 {
	var m int64
	for _, p := range d.Parts {
		if p.NNZ > m {
			m = p.NNZ
		}
	}
	return m
}

// PartialOutputBytes returns the per-DPU partial-result volume that the
// Reduce-Scatter combines: each tile produces a partial y over its row
// band (4-byte accumulators).
func (d *DBCOO) PartialOutputBytes() int64 {
	rowsPerBand := (d.Matrix.Rows + d.RowBands - 1) / d.RowBands
	return int64(rowsPerBand) * 4
}

// PartitionedSpMV executes SpMV tile by tile and combines partials exactly
// as the PIM offload does, returning the same result as SpMV. It is the
// correctness witness that the DBCOO decomposition preserves semantics.
func (d *DBCOO) PartitionedSpMV(x []int32) ([]int64, error) {
	if len(x) != d.Matrix.Cols {
		return nil, fmt.Errorf("sparse: x has %d entries, want %d", len(x), d.Matrix.Cols)
	}
	m := d.Matrix
	y := make([]int64, m.Rows)
	// Per column block: partial y, then reduce (the RS collective).
	for cb := 0; cb < d.ColBlocks; cb++ {
		partial := make([]int64, m.Rows)
		loCol := cb * m.Cols / d.ColBlocks
		hiCol := (cb + 1) * m.Cols / d.ColBlocks
		for i := range m.Val {
			c := int(m.ColIdx[i])
			if c >= loCol && c < hiCol {
				partial[m.RowIdx[i]] += int64(m.Val[i]) * int64(x[c])
			}
		}
		for r := range y {
			y[r] += partial[r]
		}
	}
	return y, nil
}
