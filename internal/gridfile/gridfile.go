// Package gridfile implements the modified Grid File of the paper's §6: an
// in-memory multidimensional grid whose cell boundaries are placed on
// per-dimension quantiles (or uniformly, for the full-grid baseline), whose
// cells store their rows in contiguous row-store pages, and which may keep
// the rows inside every cell sorted on one additional dimension so that
// dimension needs no grid lines (Flood-style, reducing an n-dimensional
// index to n−1 grid dimensions).
package gridfile

import (
	"fmt"
	"sort"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/stats"
)

// BoundsMode selects how grid lines are placed along each grid dimension.
type BoundsMode int

const (
	// Quantile places boundaries on equal-count quantiles of the data
	// (the paper's choice for COAX and Column Files).
	Quantile BoundsMode = iota
	// Uniform places boundaries at equal spacing between min and max
	// (the full-grid baseline).
	Uniform
)

// Config controls a grid file build.
type Config struct {
	// GridDims lists the columns that receive grid lines. May be empty, in
	// which case the structure degenerates to a single (optionally sorted)
	// page.
	GridDims []int
	// SortDim is the column on which rows are sorted inside each cell, or
	// -1 to disable in-cell sorting. Must not also appear in GridDims.
	SortDim int
	// CellsPerDim is the number of cells along every grid dimension (the
	// paper uses the same number of grid lines for each attribute).
	CellsPerDim int
	// Mode selects quantile or uniform boundary placement.
	Mode BoundsMode
	// Label overrides the Name() reported to the benchmark harness.
	Label string
}

// GridFile is the built index. It copies rows out of the source table into
// per-cell contiguous pages; the source table is not retained.
type GridFile struct {
	cfg     Config
	dims    int
	n       int
	bounds  [][]float64 // per grid dim: CellsPerDim+1 ascending boundaries
	strides []int       // row-major strides over the cell lattice
	data    []float64   // all rows, grouped by cell, row-major
	offsets []int64     // per cell: starting row within data; len = cells+1

	// store, when non-nil, supplies main-page rows instead of data — the
	// hook a memory-mapped snapshot uses to decompress cell pages lazily
	// (see internal/mmapsnap). All read paths go through cellPage, so a
	// store-backed grid file answers queries identically to a resident one.
	store PageStore

	// Insert support (see insert.go): per-cell delta pages merged back by
	// Compact.
	overflow map[int]*overflowPage
	inserted int

	// Delete support (see insert.go): a tombstone bitmap over the main
	// pages' row slots. Queries skip dead slots at the visitor boundary;
	// Compact physically drops them. Overflow-page rows are removed in
	// place instead (the pages are small and mutable), so the bitmap only
	// ever covers len(data)/dims slots.
	dead      []uint64
	deadCount int
}

var _ index.Interface = (*GridFile)(nil)

// Build constructs a grid file over every row of t.
func Build(t *dataset.Table, cfg Config) (*GridFile, error) {
	if err := validate(t, cfg); err != nil {
		return nil, err
	}
	g := &GridFile{cfg: cfg, dims: t.Dims(), n: t.Len()}

	g.bounds = make([][]float64, len(cfg.GridDims))
	for i, d := range cfg.GridDims {
		col := t.Column(d)
		switch cfg.Mode {
		case Quantile:
			g.bounds[i] = stats.Quantiles(col, cfg.CellsPerDim)
		case Uniform:
			g.bounds[i] = uniformBounds(col, cfg.CellsPerDim)
		default:
			return nil, fmt.Errorf("gridfile: unknown bounds mode %d", cfg.Mode)
		}
	}

	nCells := 1
	g.strides = make([]int, len(cfg.GridDims))
	for i := len(cfg.GridDims) - 1; i >= 0; i-- {
		g.strides[i] = nCells
		nCells *= cfg.CellsPerDim
	}

	// Pass 1: count rows per cell.
	counts := make([]int64, nCells)
	for i := 0; i < t.Len(); i++ {
		counts[g.cellOf(t.Row(i))]++
	}
	g.offsets = make([]int64, nCells+1)
	for c := 0; c < nCells; c++ {
		g.offsets[c+1] = g.offsets[c] + counts[c]
	}

	// Pass 2: scatter rows into their cell pages.
	g.data = make([]float64, t.Len()*g.dims)
	cursor := make([]int64, nCells)
	copy(cursor, g.offsets[:nCells])
	for i := 0; i < t.Len(); i++ {
		row := t.Row(i)
		c := g.cellOf(row)
		copy(g.data[cursor[c]*int64(g.dims):], row)
		cursor[c]++
	}

	// Pass 3: sort each cell page on the sort dimension.
	if cfg.SortDim >= 0 {
		for c := 0; c < nCells; c++ {
			g.sortCell(c)
		}
	}
	return g, nil
}

func validate(t *dataset.Table, cfg Config) error {
	if cfg.CellsPerDim < 1 {
		return fmt.Errorf("gridfile: CellsPerDim must be ≥ 1, got %d", cfg.CellsPerDim)
	}
	if t.Len() == 0 {
		return fmt.Errorf("gridfile: cannot build over an empty table")
	}
	seen := make(map[int]bool, len(cfg.GridDims))
	for _, d := range cfg.GridDims {
		if d < 0 || d >= t.Dims() {
			return fmt.Errorf("gridfile: grid dimension %d out of range [0,%d)", d, t.Dims())
		}
		if seen[d] {
			return fmt.Errorf("gridfile: grid dimension %d listed twice", d)
		}
		seen[d] = true
	}
	if cfg.SortDim >= t.Dims() {
		return fmt.Errorf("gridfile: sort dimension %d out of range [0,%d)", cfg.SortDim, t.Dims())
	}
	if cfg.SortDim >= 0 && seen[cfg.SortDim] {
		return fmt.Errorf("gridfile: sort dimension %d must not also be a grid dimension", cfg.SortDim)
	}
	return nil
}

// DirectoryBoundedCells returns the largest cells-per-dim (capped at 64)
// such that a gridDims-dimensional directory of 8-byte slots does not
// exceed dataBytes — the paper's §8.2.1 rule that an index directory must
// not outweigh the data it indexes.
func DirectoryBoundedCells(gridDims int, dataBytes int64) int {
	if gridDims <= 0 {
		return 1
	}
	best := 1
	for c := 2; c <= 64; c++ {
		slots := int64(1)
		overflow := false
		for d := 0; d < gridDims; d++ {
			slots *= int64(c)
			if slots*8 > dataBytes {
				overflow = true
				break
			}
		}
		if overflow {
			break
		}
		best = c
	}
	return best
}

func uniformBounds(col []float64, cells int) []float64 {
	min, max := stats.MinMax(col)
	out := make([]float64, cells+1)
	for i := 0; i <= cells; i++ {
		out[i] = min + (max-min)*float64(i)/float64(cells)
	}
	return out
}

// locate maps a value to its cell slot along grid axis i: the largest slot
// whose lower boundary does not exceed v, clamped to the valid range. Build
// and query use the same function, so assignment is consistent.
func (g *GridFile) locate(i int, v float64) int {
	b := g.bounds[i]
	// First boundary index with b[idx] > v; the cell is the one before it.
	idx := sort.Search(len(b), func(j int) bool { return b[j] > v }) - 1
	if idx < 0 {
		idx = 0
	}
	if idx > g.cfg.CellsPerDim-1 {
		idx = g.cfg.CellsPerDim - 1
	}
	return idx
}

func (g *GridFile) cellOf(row []float64) int {
	c := 0
	for i, d := range g.cfg.GridDims {
		c += g.locate(i, row[d]) * g.strides[i]
	}
	return c
}

type cellSorter struct {
	data []float64
	dims int
	key  int
	tmp  []float64
}

func (s *cellSorter) Len() int { return len(s.data) / s.dims }
func (s *cellSorter) Less(i, j int) bool {
	return s.data[i*s.dims+s.key] < s.data[j*s.dims+s.key]
}
func (s *cellSorter) Swap(i, j int) {
	a := s.data[i*s.dims : (i+1)*s.dims]
	b := s.data[j*s.dims : (j+1)*s.dims]
	copy(s.tmp, a)
	copy(a, b)
	copy(b, s.tmp)
}

func (g *GridFile) sortCell(c int) {
	page := g.cellPage(c)
	if len(page) == 0 {
		return
	}
	sort.Sort(&cellSorter{data: page, dims: g.dims, key: g.cfg.SortDim, tmp: make([]float64, g.dims)})
}

func (g *GridFile) cellPage(c int) []float64 {
	if g.store != nil {
		return g.store.CellPage(c)
	}
	return g.data[g.offsets[c]*int64(g.dims) : g.offsets[c+1]*int64(g.dims)]
}

// mainRows reports the number of row slots in the main pages (live and
// tombstoned), derived from the offset table so it holds for both resident
// and store-backed grid files.
func (g *GridFile) mainRows() int { return int(g.offsets[len(g.offsets)-1]) }

// Name implements index.Interface.
func (g *GridFile) Name() string {
	if g.cfg.Label != "" {
		return g.cfg.Label
	}
	return "GridFile"
}

// Len implements index.Interface: the number of live (non-tombstoned)
// rows a query can match.
func (g *GridFile) Len() int { return g.n - g.deadCount }

// StoredRows reports the number of rows physically held in pages,
// including tombstoned ones awaiting Compact.
func (g *GridFile) StoredRows() int { return g.n }

// Tombstones reports the number of dead rows still occupying main pages.
func (g *GridFile) Tombstones() int { return g.deadCount }

// Dims implements index.Interface.
func (g *GridFile) Dims() int { return g.dims }

// NumCells reports the total number of cells in the lattice.
func (g *GridFile) NumCells() int { return len(g.offsets) - 1 }

// GridDims returns a copy of the columns that receive grid lines.
func (g *GridFile) GridDims() []int {
	out := make([]int, len(g.cfg.GridDims))
	copy(out, g.cfg.GridDims)
	return out
}

// SortDim reports the in-cell sort dimension, or -1 when disabled.
func (g *GridFile) SortDim() int { return g.cfg.SortDim }

// CellSizes returns the row count of every cell (main plus overflow) — the
// "page length" distribution of Figure 4a.
func (g *GridFile) CellSizes() []int {
	out := make([]int, g.NumCells())
	for c := range out {
		out[c] = int(g.offsets[c+1] - g.offsets[c])
		if page := g.overflow[c]; page != nil {
			out[c] += len(page.data) / g.dims
		}
	}
	return out
}

// MemoryOverhead implements index.Interface: the directory only — grid
// boundaries plus the per-cell offset table — excluding the row payload.
func (g *GridFile) MemoryOverhead() int64 {
	var b int64
	for _, bd := range g.bounds {
		b += int64(len(bd) * 8)
	}
	b += int64(len(g.offsets) * 8)
	b += int64(len(g.strides) * 8)
	// Each live overflow page costs a map slot and a slice header; the row
	// payload inside it is data, not directory.
	b += int64(len(g.overflow)) * 48
	b += int64(len(g.dead) * 8) // tombstone bitmap
	return b
}

// Query implements index.Interface: the legacy run-to-completion shim over
// Scan.
func (g *GridFile) Query(r index.Rect, visit index.Visitor) {
	g.Scan(r, index.AsYield(visit), nil)
}

// Scan implements index.Interface: the selected rows of ScanBatch, one at
// a time.
func (g *GridFile) Scan(r index.Rect, yield index.Yield, probe *index.Probe) bool {
	return index.ScanRows(g, r, yield, probe)
}

// sortSpan returns the row interval [lo, hi) of a page that can hold
// values in [min, max] on the sort dimension — the whole page when in-cell
// sorting is disabled. Every page walk (query and delete, main and
// overflow) locates its candidates through this one helper.
func (g *GridFile) sortSpan(page []float64, min, max float64) (lo, hi int) {
	nRows := len(page) / g.dims
	sd := g.cfg.SortDim
	if sd < 0 {
		return 0, nRows
	}
	lo = sort.Search(nRows, func(i int) bool { return page[i*g.dims+sd] >= min })
	hi = sort.Search(nRows, func(i int) bool { return page[i*g.dims+sd] > max })
	return lo, hi
}

// querySpan is sortSpan over a query rectangle's sort-dimension window.
func (g *GridFile) querySpan(page []float64, r index.Rect) (lo, hi int) {
	if sd := g.cfg.SortDim; sd >= 0 {
		return g.sortSpan(page, r.Min[sd], r.Max[sd])
	}
	return g.sortSpan(page, 0, 0)
}

// rowSpan is sortSpan pinned to one row's sort-dimension value — the
// candidate window an exact-match delete scans.
func (g *GridFile) rowSpan(page []float64, row []float64) (lo, hi int) {
	if sd := g.cfg.SortDim; sd >= 0 {
		return g.sortSpan(page, row[sd], row[sd])
	}
	return g.sortSpan(page, 0, 0)
}
