// Package core assembles COAX, the paper's primary contribution: it runs
// soft-FD detection, splits the table into inliers and outliers, builds a
// reduced-dimensionality grid-file primary index plus a conventional
// multidimensional outlier index, and answers range/point queries by
// translating constraints on dependent attributes into constraints on
// their predictors (paper §3, §4, Eq. 2).
package core

import (
	"fmt"
	"math"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/gridfile"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/lifecycle"
	"github.com/coax-index/coax/internal/rtree"
	"github.com/coax-index/coax/internal/softfd"
)

// OutlierIndexKind selects the structure holding the records that violate
// the learned dependencies.
type OutlierIndexKind int

const (
	// OutlierGrid stores outliers in a quantile grid file over all
	// dimensions — the layout sketched in the paper's Figure 1 and the
	// default. The resolution obeys the directory-size rule, so the
	// outlier directory stays proportional to the (small) outlier set.
	OutlierGrid OutlierIndexKind = iota
	// OutlierRTree stores outliers in a bulk-loaded R-tree; an ablation
	// alternative that trades directory size for tighter pruning.
	OutlierRTree
)

// Options configures a COAX build. The zero value is not usable; start from
// DefaultOptions.
type Options struct {
	// SoftFD configures dependency detection.
	SoftFD softfd.Config
	// PrimaryCellsPerDim is the grid resolution of the primary index.
	PrimaryCellsPerDim int
	// OutlierCellsPerDim is the grid resolution of the outlier index when
	// OutlierKind == OutlierGrid; 0 sizes it automatically so the outlier
	// directory never exceeds the outlier data (the paper's memory rule).
	OutlierCellsPerDim int
	// OutlierKind selects the outlier structure.
	OutlierKind OutlierIndexKind
	// OutlierRTreeCapacity is the R-tree node capacity when OutlierKind ==
	// OutlierRTree.
	OutlierRTreeCapacity int
	// SortDim forces the in-cell sort dimension of the primary index; -1
	// selects it automatically (the predictor of the largest group).
	SortDim int
	// DisableSortDim turns off in-cell sorting entirely (ablation: without
	// it the primary grid must give the sort dimension its own grid lines).
	DisableSortDim bool
}

// DefaultOptions returns the settings used by the benchmarks.
func DefaultOptions() Options {
	return Options{
		SoftFD:               softfd.DefaultConfig(),
		PrimaryCellsPerDim:   24,
		OutlierCellsPerDim:   0, // auto
		OutlierKind:          OutlierGrid,
		OutlierRTreeCapacity: 10,
		SortDim:              -1,
	}
}

// COAX is the built index.
type COAX struct {
	dims int
	n    int
	cols []string // column names from the build table; may be all-empty

	fd      softfd.Result
	depends []*softfd.PairModel // by column; nil when the column is indexed
	sortDim int

	primary  *gridfile.GridFile // nil when every row is an outlier
	outliers index.Engine       // nil when every row is an inlier

	// Bounding boxes of each partition (§8.2.3: "check whether the query
	// intersects with the primary, the outlier, or both indexes"). Queries
	// that miss a partition's box skip its probe entirely.
	primaryBounds      index.Rect
	outlierBounds      index.Rect
	primaryN, outlierN int

	// Build parameters retained for lazy index creation on Insert.
	primaryCells    int
	outlierKind     OutlierIndexKind
	outlierRTreeCap int

	// Lifecycle state (see mutate.go): the full build options retained for
	// Rebuild, the mutation/drift tracker, the rebuild generation, and the
	// outlier ratio measured at build time (the staleness baseline).
	opt              Options
	tracker          *lifecycle.Tracker
	epoch            uint64
	baseOutlierRatio float64
}

var _ index.Interface = (*COAX)(nil)

// Build constructs COAX over t.
func Build(t *dataset.Table, opt Options) (*COAX, error) {
	if opt.PrimaryCellsPerDim < 1 {
		return nil, fmt.Errorf("core: PrimaryCellsPerDim must be ≥ 1, got %d", opt.PrimaryCellsPerDim)
	}
	if t.Len() == 0 {
		return nil, fmt.Errorf("core: cannot build over an empty table")
	}

	fd, err := softfd.Detect(t, opt.SoftFD)
	if err != nil {
		return nil, fmt.Errorf("core: soft-FD detection: %w", err)
	}
	return BuildWithFD(t, fd, opt)
}

// newSkeleton assembles the model-dependent state shared by the in-memory
// and streaming builds: dependency routing, the mutation tracker, and the
// sort dimension. The caller still owes row counts and index structures.
func newSkeleton(cols []string, dims int, fd softfd.Result, opt Options) (*COAX, error) {
	c := &COAX{
		dims:            dims,
		cols:            append([]string(nil), cols...),
		fd:              fd,
		primaryCells:    opt.PrimaryCellsPerDim,
		outlierKind:     opt.OutlierKind,
		outlierRTreeCap: opt.OutlierRTreeCapacity,
		opt:             opt,
	}
	if c.primaryCells < 1 {
		c.primaryCells = 1
	}
	if c.outlierRTreeCap < 2 {
		c.outlierRTreeCap = 10
	}
	c.depends = make([]*softfd.PairModel, dims)
	for gi := range fd.Groups {
		g := &fd.Groups[gi]
		for mi := range g.Models {
			m := &g.Models[mi]
			c.depends[m.D] = m
		}
	}
	c.initTracker()

	if err := c.pickSortDim(opt); err != nil {
		return nil, err
	}
	return c, nil
}

// BuildWithFD constructs COAX from pre-detected dependencies; used by tests
// and by tools that detect once and build several variants.
func BuildWithFD(t *dataset.Table, fd softfd.Result, opt Options) (*COAX, error) {
	c, err := newSkeleton(t.Cols, t.Dims(), fd, opt)
	if err != nil {
		return nil, err
	}
	c.n = t.Len()

	primaryTab, outlierTab := c.split(t)
	c.primaryN, c.outlierN = primaryTab.Len(), outlierTab.Len()
	if c.n > 0 {
		c.baseOutlierRatio = float64(c.outlierN) / float64(c.n)
	}

	if primaryTab.Len() > 0 {
		cfg := gridfile.Config{
			GridDims:    c.primaryGridDims(),
			SortDim:     c.sortDim,
			CellsPerDim: opt.PrimaryCellsPerDim,
			Mode:        gridfile.Quantile,
			Label:       "COAX-primary",
		}
		p, err := gridfile.Build(primaryTab, cfg)
		if err != nil {
			return nil, fmt.Errorf("core: building primary index: %w", err)
		}
		c.primary = p
	}

	if outlierTab.Len() > 0 {
		out, err := buildOutlierIndex(outlierTab, opt)
		if err != nil {
			return nil, fmt.Errorf("core: building outlier index: %w", err)
		}
		c.outliers = out
	}
	return c, nil
}

func buildOutlierIndex(t *dataset.Table, opt Options) (index.Engine, error) {
	switch opt.OutlierKind {
	case OutlierRTree:
		capEntries := opt.OutlierRTreeCapacity
		if capEntries < 2 {
			capEntries = 10
		}
		return rtree.Bulk(t, rtree.Config{MaxEntries: capEntries})
	case OutlierGrid:
		cells := opt.OutlierCellsPerDim
		if cells < 1 {
			cells = gridfile.DirectoryBoundedCells(t.Dims(), t.SizeBytes())
		}
		dims := make([]int, t.Dims())
		for i := range dims {
			dims[i] = i
		}
		return gridfile.Build(t, gridfile.Config{
			GridDims:    dims,
			SortDim:     -1,
			CellsPerDim: cells,
			Mode:        gridfile.Quantile,
			Label:       "COAX-outliers",
		})
	default:
		return nil, fmt.Errorf("core: unknown outlier index kind %d", opt.OutlierKind)
	}
}

// pickSortDim decides the in-cell sort dimension of the primary index.
func (c *COAX) pickSortDim(opt Options) error {
	if opt.DisableSortDim {
		c.sortDim = -1
		return nil
	}
	if opt.SortDim >= 0 {
		if opt.SortDim >= c.dims {
			return fmt.Errorf("core: SortDim %d out of range [0,%d)", opt.SortDim, c.dims)
		}
		if c.depends[opt.SortDim] != nil {
			return fmt.Errorf("core: SortDim %d is a dependent column and is not stored in the primary grid", opt.SortDim)
		}
		c.sortDim = opt.SortDim
		return nil
	}
	// Auto: the predictor of the largest group benefits most from binary
	// search because translated constraints land on it.
	best, bestSize := -1, 0
	for _, g := range c.fd.Groups {
		if len(g.Members) > bestSize {
			best, bestSize = g.Predictor, len(g.Members)
		}
	}
	if best < 0 {
		// No dependencies: fall back to the first column (column-files
		// layout over all dimensions).
		best = 0
	}
	c.sortDim = best
	return nil
}

// primaryGridDims lists the columns that receive grid lines in the primary
// index: everything except dependents and the sort dimension — the paper's
// n − m − 1 dimensions.
func (c *COAX) primaryGridDims() []int {
	var dims []int
	for d := 0; d < c.dims; d++ {
		if c.depends[d] != nil || d == c.sortDim {
			continue
		}
		dims = append(dims, d)
	}
	return dims
}

// split partitions rows into inliers (within every group model's margins)
// and outliers, tracking each partition's bounding box for probe pruning.
func (c *COAX) split(t *dataset.Table) (primary, outliers *dataset.Table) {
	primary = dataset.NewTable(t.Cols)
	outliers = dataset.NewTable(t.Cols)
	c.primaryBounds = emptyBounds(c.dims)
	c.outlierBounds = emptyBounds(c.dims)
	for i := 0; i < t.Len(); i++ {
		row := t.Row(i)
		if c.rowIsInlier(row) {
			primary.Append(row)
			extendBounds(&c.primaryBounds, row)
		} else {
			outliers.Append(row)
			extendBounds(&c.outlierBounds, row)
		}
	}
	return primary, outliers
}

// emptyBounds is the identity element for extendBounds: an inverted box
// that overlaps nothing.
func emptyBounds(dims int) index.Rect {
	b := index.Rect{Min: make([]float64, dims), Max: make([]float64, dims)}
	for d := 0; d < dims; d++ {
		b.Min[d] = math.Inf(1)
		b.Max[d] = math.Inf(-1)
	}
	return b
}

func extendBounds(b *index.Rect, row []float64) {
	for d, v := range row {
		if v < b.Min[d] {
			b.Min[d] = v
		}
		if v > b.Max[d] {
			b.Max[d] = v
		}
	}
}

func (c *COAX) rowIsInlier(row []float64) bool {
	for d, pm := range c.depends {
		if pm == nil {
			continue
		}
		if !pm.Within(row[pm.X], row[d]) {
			return false
		}
	}
	return true
}

// Name implements index.Interface.
func (c *COAX) Name() string { return "COAX" }

// Len implements index.Interface.
func (c *COAX) Len() int { return c.n }

// Dims implements index.Interface.
func (c *COAX) Dims() int { return c.dims }

// Columns returns a copy of the column names the index was built over; the
// slice is empty (or all-empty strings) when the build table carried no
// names — name-based queries then need positional predicates instead.
func (c *COAX) Columns() []string { return append([]string(nil), c.cols...) }

// MemoryOverhead implements index.Interface: primary directory + outlier
// directory + learned model parameters.
func (c *COAX) MemoryOverhead() int64 {
	var b int64 = c.fd.ModelBytes()
	if c.primary != nil {
		b += c.primary.MemoryOverhead()
	}
	if c.outliers != nil {
		b += c.outliers.MemoryOverhead()
	}
	return b
}

// PrimaryMemoryOverhead reports the primary directory plus model bytes
// (the "COAX (primary)" series of Figure 8).
func (c *COAX) PrimaryMemoryOverhead() int64 {
	b := c.fd.ModelBytes()
	if c.primary != nil {
		b += c.primary.MemoryOverhead()
	}
	return b
}

// OutlierMemoryOverhead reports the outlier directory (the "COAX
// (outliers)" series of Figure 8).
func (c *COAX) OutlierMemoryOverhead() int64 {
	if c.outliers == nil {
		return 0
	}
	return c.outliers.MemoryOverhead()
}

// Query implements index.Interface: translated primary probe + outlier
// probe, results merged. It is the legacy run-to-completion shim over Scan.
func (c *COAX) Query(r index.Rect, visit index.Visitor) {
	c.Scan(r, index.AsYield(visit), nil)
}

// QueryPrimary answers r from the primary index only (the "COAX (primary)"
// series in Figures 6–8). Results are exact over the inlier partition.
func (c *COAX) QueryPrimary(r index.Rect, visit index.Visitor) {
	c.probePrimary(r, index.EachRow(index.AsYield(visit)), nil, nil)
}

// QueryOutliers answers r from the outlier index only.
func (c *COAX) QueryOutliers(r index.Rect, visit index.Visitor) {
	c.probeOutliers(r, index.EachRow(index.AsYield(visit)), nil, nil)
}

// Translate converts r into the rectangle that routes the primary probe
// (Eq. 2): every constraint on a dependent attribute Cd is mapped through
// its model ψ̂ and margins into a constraint on the predictor Cx and
// intersected with Cx's native constraint; the dependent dimensions are
// then left unconstrained for routing (the probe itself scans this
// rectangle intersected with r, see translate). feasible is false when the
// translated constraints prove no inlier can match, letting the caller
// skip the primary probe entirely.
func (c *COAX) Translate(r index.Rect) (routed index.Rect, feasible bool) {
	routed, feasible = c.translate(r, nil)
	for d, pm := range c.depends {
		if pm != nil {
			routed.Min[d], routed.Max[d] = math.Inf(-1), math.Inf(1)
		}
	}
	return routed, feasible
}

// Stats summarises the build for Table 1 and the experiment reports.
type Stats struct {
	Rows             int
	Dims             int
	Groups           []softfd.Group
	DependentDims    int
	IndexedDims      int // dims receiving grid lines or the sort position
	GridDims         int // primary grid dimensionality (n − m − 1)
	SortDim          int
	PrimaryRows      int
	OutlierRows      int
	PrimaryRatio     float64
	PrimaryCells     int
	PrimaryOverheadB int64
	OutlierOverheadB int64
	ModelOverheadB   int64
}

// BuildStats reports the statistics of this build.
func (c *COAX) BuildStats() Stats {
	s := Stats{
		Rows:           c.n,
		Dims:           c.dims,
		Groups:         c.fd.Groups,
		SortDim:        c.sortDim,
		PrimaryRows:    c.primaryN,
		OutlierRows:    c.outlierN,
		ModelOverheadB: c.fd.ModelBytes(),
	}
	for _, pm := range c.depends {
		if pm != nil {
			s.DependentDims++
		}
	}
	s.IndexedDims = c.dims - s.DependentDims
	s.GridDims = len(c.primaryGridDims())
	if c.n > 0 {
		s.PrimaryRatio = float64(c.primaryN) / float64(c.n)
	}
	if c.primary != nil {
		s.PrimaryCells = c.primary.NumCells()
		s.PrimaryOverheadB = c.primary.MemoryOverhead()
	}
	if c.outliers != nil {
		s.OutlierOverheadB = c.outliers.MemoryOverhead()
	}
	return s
}

// FD exposes the detection result (read-only by convention).
func (c *COAX) FD() softfd.Result { return c.fd }

// Primary exposes the primary grid file (nil when all rows are outliers);
// used by the Figure 4a experiment to read cell-size distributions.
func (c *COAX) Primary() *gridfile.GridFile { return c.primary }

// Outliers exposes the outlier index (nil when all rows are inliers); the
// snapshot v3 encoder dispatches on its concrete type.
func (c *COAX) Outliers() index.Interface { return c.outliers }

// OutlierKind reports which outlier index kind the build selected.
func (c *COAX) OutlierKind() OutlierIndexKind { return c.outlierKind }
