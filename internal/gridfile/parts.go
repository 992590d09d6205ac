package gridfile

import (
	"fmt"
	"math/bits"
)

// Assembly surface for the memory-mapped snapshot layer (internal/mmapsnap).
// A v3 snapshot stores a grid file's directory and pages as fixed-width
// regions that can be aliased straight out of a mapped file; FromParts
// rebuilds a queryable GridFile around those regions without copying the
// row payload, and ExportParts hands an encoder the same pieces.

// PageStore supplies the rows of main cell pages on demand. A store-backed
// grid file holds no resident row payload: a scan asks the store for just
// the sort span of each cell it visits, decoded into a buffer the scan
// owns, so compressed snapshot pages are decoded straight into the scan
// with no shared decoded-page state.
type PageStore interface {
	// CellSpan decodes into buf the rows of cell c's main page (row-major,
	// exactly offsets[c+1]-offsets[c] rows in all) that w selects, and
	// returns them with the index of their first row in the page. The
	// result aliases buf when it is large enough and a fresh slice
	// otherwise; its capacity may be reused for the next call. On an
	// unreadable page the store records a sticky error on its side and
	// returns no rows.
	CellSpan(c int, w SortWindow, buf []float64) (rows []float64, first int)
}

// SortWindow selects the rows of a page by their sort-dimension value:
// the span SortSpan finds for [Min, Max], or every row when Whole is set
// or the grid file has no sort dimension. Whole is a mode of its own
// because no [Min, Max] window, not even [-Inf, +Inf], selects rows whose
// sort key is NaN.
type SortWindow struct {
	Min, Max float64
	Whole    bool
}

// Parts is the deconstructed state of a grid file. Slices may alias
// read-only mapped memory except Overflow and DeadWords, which the grid
// file mutates in place and therefore owns on heap.
type Parts struct {
	GridDims    []int
	SortDim     int
	CellsPerDim int
	Mode        BoundsMode
	Label       string

	Dims    int
	Bounds  [][]float64 // per grid dim: CellsPerDim+1 ascending boundaries
	Offsets []int64     // per cell starting row; len = cells+1

	// Exactly one of Data and Store backs the main pages: Data holds the
	// resident row-major payload (offsets[cells]*Dims values), Store
	// supplies pages on demand.
	Data  []float64
	Store PageStore

	Overflow  map[int][]float64 // heap-owned overflow pages, may be nil
	DeadWords []uint64          // heap-owned tombstone bitmap, may be nil

	// TrustPages skips the O(rows) sortedness verification of the main
	// pages — for mapped snapshots, which verify each page at decode or
	// open time instead.
	TrustPages bool
}

// FromParts assembles a grid file around p, revalidating every structural
// invariant the regular codec checks (a store-backed assembly defers main
// page content checks to the store). The row count is derived from the
// offset table and overflow pages; tombstoned slots are subtracted from
// Len() exactly as after a SetDeadSlots.
func FromParts(p Parts) (*GridFile, error) {
	if (p.Data != nil) && (p.Store != nil) {
		return nil, fmt.Errorf("gridfile: FromParts needs exactly one of Data and Store, got both")
	}
	g := &GridFile{
		cfg: Config{
			GridDims:    p.GridDims,
			SortDim:     p.SortDim,
			CellsPerDim: p.CellsPerDim,
			Mode:        p.Mode,
			Label:       p.Label,
		},
		dims:    p.Dims,
		bounds:  p.Bounds,
		data:    p.Data,
		offsets: p.Offsets,
		store:   p.Store,
	}
	if len(p.Offsets) == 0 {
		return nil, fmt.Errorf("gridfile: FromParts offsets missing")
	}
	mainRows := int(p.Offsets[len(p.Offsets)-1])
	overflowRows := 0
	for c, page := range p.Overflow {
		if len(page) == 0 {
			return nil, fmt.Errorf("gridfile: empty overflow page for cell %d", c)
		}
		if g.overflow == nil {
			g.overflow = make(map[int]*overflowPage, len(p.Overflow))
		}
		g.overflow[c] = &overflowPage{data: page}
		overflowRows += len(page) / p.Dims
	}
	g.n = mainRows + overflowRows
	if err := g.validateDecoded(!p.TrustPages && p.Store == nil); err != nil {
		return nil, err
	}
	if err := g.installDeadWords(p.DeadWords); err != nil {
		return nil, err
	}
	return g, nil
}

// installDeadWords adopts a tombstone bitmap, validating its width and that
// no bit points past the main pages.
func (g *GridFile) installDeadWords(words []uint64) error {
	if len(words) == 0 {
		return nil
	}
	mainRows := g.mainRows()
	maxWords := (mainRows + 63) / 64
	if len(words) > maxWords {
		return fmt.Errorf("gridfile: tombstone bitmap has %d words, main pages need at most %d", len(words), maxWords)
	}
	count := 0
	for w, word := range words {
		count += bits.OnesCount64(word)
		if word == 0 {
			continue
		}
		if hi := w*64 + 63 - bits.LeadingZeros64(word); hi >= mainRows {
			return fmt.Errorf("gridfile: tombstone slot %d out of range [0,%d)", hi, mainRows)
		}
	}
	// Install the trimmed slice as-is: readers tolerate a short bitmap and
	// setDead grows it on demand, so no mainRows-proportional allocation
	// happens here.
	g.dead = append([]uint64(nil), words...)
	g.deadCount = count
	return nil
}

// DeadWords returns a copy of the tombstone bitmap (nil when no rows are
// tombstoned), trimmed of trailing zero words.
func (g *GridFile) DeadWords() []uint64 {
	if g.deadCount == 0 {
		return nil
	}
	end := len(g.dead)
	for end > 0 && g.dead[end-1] == 0 {
		end--
	}
	out := make([]uint64, end)
	copy(out, g.dead[:end])
	return out
}

// ExportParts returns the grid file's state for an encoder. Bounds and
// Offsets alias internal storage and must not be mutated; Overflow pages
// and DeadWords are copies. Data is nil for a store-backed grid file —
// encoders read pages through CellPages instead.
func (g *GridFile) ExportParts() Parts {
	p := Parts{
		GridDims:    g.cfg.GridDims,
		SortDim:     g.cfg.SortDim,
		CellsPerDim: g.cfg.CellsPerDim,
		Mode:        g.cfg.Mode,
		Label:       g.cfg.Label,
		Dims:        g.dims,
		Bounds:      g.bounds,
		Offsets:     g.offsets,
		Data:        g.data,
		Store:       g.store,
		DeadWords:   g.DeadWords(),
	}
	if len(g.overflow) > 0 {
		p.Overflow = make(map[int][]float64, len(g.overflow))
		for c, page := range g.overflow {
			p.Overflow[c] = append([]float64(nil), page.data...)
		}
	}
	return p
}

// CellPages calls fn with every cell's main page in cell order — the
// encoder-side iterator that works for both resident and store-backed grid
// files without exposing storage details.
func (g *GridFile) CellPages(fn func(c int, page []float64)) {
	for c := 0; c < g.NumCells(); c++ {
		fn(c, g.cellPage(c))
	}
}

// Mapped reports whether the main pages live behind a PageStore rather
// than in resident memory.
func (g *GridFile) Mapped() bool { return g.store != nil }
