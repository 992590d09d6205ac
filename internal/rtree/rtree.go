// Package rtree implements the R-Tree baseline of §8.1.3: an in-memory
// R-tree over point data with Sort-Tile-Recursive (STR) bulk loading,
// Guttman quadratic-split insertion, and a tunable node capacity (the paper
// evaluates capacities from 2 to 32 and finds 8–12 best).
package rtree

import (
	"fmt"
	"math"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
)

// Config controls tree shape.
type Config struct {
	// MaxEntries is the node capacity M (leaf and internal). Must be ≥ 2.
	MaxEntries int
	// MinEntries is the underflow bound m used by the quadratic split;
	// defaults to ⌈MaxEntries/2⌉ when 0.
	MinEntries int
}

// DefaultConfig matches the paper's best-performing node size.
func DefaultConfig() Config { return Config{MaxEntries: 10} }

// entry is one slot in a node. For leaf entries min and max alias the same
// row slice (points have zero-extent boxes) and child is nil; for internal
// entries min/max are owned bounding-box arrays.
type entry struct {
	min, max []float64
	child    *node
}

type node struct {
	leaf    bool
	entries []entry
}

// RTree is the built index.
type RTree struct {
	cfg    Config
	dims   int
	n      int
	height int
	root   *node
}

var _ index.Interface = (*RTree)(nil)

// New creates an empty R-tree for rows of the given dimensionality.
func New(dims int, cfg Config) (*RTree, error) {
	if err := checkConfig(&cfg); err != nil {
		return nil, err
	}
	if dims < 1 {
		return nil, fmt.Errorf("rtree: dims must be ≥ 1, got %d", dims)
	}
	return &RTree{
		cfg:    cfg,
		dims:   dims,
		height: 1,
		root:   &node{leaf: true},
	}, nil
}

func checkConfig(cfg *Config) error {
	if cfg.MaxEntries < 2 {
		return fmt.Errorf("rtree: MaxEntries must be ≥ 2, got %d", cfg.MaxEntries)
	}
	if cfg.MinEntries == 0 {
		cfg.MinEntries = (cfg.MaxEntries + 1) / 2
	}
	if cfg.MinEntries < 1 || cfg.MinEntries > cfg.MaxEntries/2+1 {
		return fmt.Errorf("rtree: MinEntries %d invalid for MaxEntries %d", cfg.MinEntries, cfg.MaxEntries)
	}
	return nil
}

// Bulk builds an R-tree over every row of t using STR packing; this is how
// the benchmarks construct the baseline.
func Bulk(t *dataset.Table, cfg Config) (*RTree, error) {
	rt, err := New(t.Dims(), cfg)
	if err != nil {
		return nil, err
	}
	n := t.Len()
	if n == 0 {
		return rt, nil
	}
	leafEntries := make([]entry, n)
	for i := 0; i < n; i++ {
		row := t.Row(i)
		leafEntries[i] = entry{min: row, max: row}
	}
	rt.root, rt.height = strBuild(leafEntries, rt.dims, cfg.MaxEntries)
	rt.n = n
	return rt, nil
}

// Name implements index.Interface.
func (rt *RTree) Name() string { return "RTree" }

// Len implements index.Interface.
func (rt *RTree) Len() int { return rt.n }

// Dims implements index.Interface.
func (rt *RTree) Dims() int { return rt.dims }

// Height reports the number of levels (1 = a single leaf).
func (rt *RTree) Height() int { return rt.height }

// NumNodes counts every node in the tree.
func (rt *RTree) NumNodes() int { return countNodes(rt.root) }

func countNodes(nd *node) int {
	c := 1
	if !nd.leaf {
		for _, e := range nd.entries {
			c += countNodes(e.child)
		}
	}
	return c
}

// MemoryOverhead implements index.Interface. The accounting model charges
// every node a fixed header, every entry its slot, and every *internal*
// entry its owned bounding-box arrays; leaf entry boxes alias row data and
// are therefore payload, not directory.
func (rt *RTree) MemoryOverhead() int64 {
	const nodeHeader = 48 // leaf flag + slice header + padding
	const entrySlot = 56  // two slice headers + child pointer
	var walk func(nd *node) int64
	walk = func(nd *node) int64 {
		b := int64(nodeHeader + entrySlot*len(nd.entries))
		if !nd.leaf {
			for _, e := range nd.entries {
				b += int64(16 * rt.dims) // owned min+max float64 arrays
				b += walk(e.child)
			}
		}
		return b
	}
	return walk(rt.root)
}

// Query implements index.Interface: the legacy run-to-completion shim over
// Scan.
func (rt *RTree) Query(r index.Rect, visit index.Visitor) {
	rt.Scan(r, index.AsYield(visit), nil)
}

// Scan implements index.Interface: the selected rows of ScanBatch, one at
// a time.
func (rt *RTree) Scan(r index.Rect, yield index.Yield, probe *index.Probe) bool {
	return index.ScanRows(rt, r, yield, probe)
}

func overlaps(r index.Rect, min, max []float64) bool {
	for i := range r.Min {
		if r.Min[i] > max[i] || min[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// mbrOf computes the bounding box of a node's entries into fresh arrays.
func mbrOf(nd *node, dims int) (min, max []float64) {
	min = make([]float64, dims)
	max = make([]float64, dims)
	for d := 0; d < dims; d++ {
		min[d] = math.Inf(1)
		max[d] = math.Inf(-1)
	}
	for i := range nd.entries {
		e := &nd.entries[i]
		for d := 0; d < dims; d++ {
			if e.min[d] < min[d] {
				min[d] = e.min[d]
			}
			if e.max[d] > max[d] {
				max[d] = e.max[d]
			}
		}
	}
	return min, max
}

func area(min, max []float64) float64 {
	a := 1.0
	for d := range min {
		a *= max[d] - min[d]
	}
	return a
}

// enlargement returns how much the box (min,max) must grow to absorb
// (emin,emax).
func enlargement(min, max, emin, emax []float64) float64 {
	grown := 1.0
	orig := 1.0
	for d := range min {
		lo, hi := min[d], max[d]
		orig *= hi - lo
		if emin[d] < lo {
			lo = emin[d]
		}
		if emax[d] > hi {
			hi = emax[d]
		}
		grown *= hi - lo
	}
	return grown - orig
}
