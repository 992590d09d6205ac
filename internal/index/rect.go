// Package index defines the shared contract implemented by every
// multidimensional index in this repository (COAX, grid file, uniform grid,
// column files, R-tree, full scan) together with the axis-aligned rectangle
// type used to express range and point queries. Storage engines implement
// one scan, the batch scan of Engine; their row-at-a-time Scan is the
// ScanRows adapter over it, and aggregations fold its batches through
// AggState.
package index

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Rect is an axis-aligned hyper-rectangle with inclusive bounds. A dimension
// can be left unconstrained by using -Inf / +Inf. Point queries are rectangles
// whose Min and Max coincide in every dimension.
type Rect struct {
	Min []float64
	Max []float64
}

// NewRect copies min and max into a fresh Rect.
func NewRect(min, max []float64) Rect {
	r := Rect{Min: make([]float64, len(min)), Max: make([]float64, len(max))}
	copy(r.Min, min)
	copy(r.Max, max)
	return r
}

// Full returns a rectangle that matches every point in dims dimensions.
func Full(dims int) Rect {
	r := Rect{Min: make([]float64, dims), Max: make([]float64, dims)}
	for i := 0; i < dims; i++ {
		r.Min[i] = math.Inf(-1)
		r.Max[i] = math.Inf(1)
	}
	return r
}

// Point returns the degenerate rectangle containing exactly p.
func Point(p []float64) Rect {
	return NewRect(p, p)
}

// Dims reports the dimensionality of the rectangle.
func (r Rect) Dims() int { return len(r.Min) }

// Clone returns a deep copy of r.
func (r Rect) Clone() Rect { return NewRect(r.Min, r.Max) }

// Contains reports whether row lies inside r (inclusive on both bounds).
// Only the first Dims() values of row are examined, so rows may carry more
// trailing attributes than the rectangle constrains.
func (r Rect) Contains(row []float64) bool {
	for i := range r.Min {
		v := row[i]
		if v < r.Min[i] || v > r.Max[i] {
			return false
		}
	}
	return true
}

// IsPoint reports whether every dimension has Min == Max.
func (r Rect) IsPoint() bool {
	for i := range r.Min {
		if r.Min[i] != r.Max[i] {
			return false
		}
	}
	return len(r.Min) > 0
}

// Empty reports whether the rectangle can match no point, i.e. some
// dimension has Min > Max.
func (r Rect) Empty() bool {
	for i := range r.Min {
		if r.Min[i] > r.Max[i] {
			return true
		}
	}
	return false
}

// Intersect returns the component-wise intersection of r and o. The result
// may be Empty. Both rectangles must share the same dimensionality.
func (r Rect) Intersect(o Rect) Rect {
	out := r.Clone()
	for i := range out.Min {
		if o.Min[i] > out.Min[i] {
			out.Min[i] = o.Min[i]
		}
		if o.Max[i] < out.Max[i] {
			out.Max[i] = o.Max[i]
		}
	}
	return out
}

// Overlaps reports whether r and o share at least one point.
func (r Rect) Overlaps(o Rect) bool {
	for i := range r.Min {
		if r.Min[i] > o.Max[i] || o.Min[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether o lies entirely inside r.
func (r Rect) ContainsRect(o Rect) bool {
	for i := range r.Min {
		if o.Min[i] < r.Min[i] || o.Max[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// Validate checks structural invariants: matching lengths, at least one
// dimension, and no NaN bounds. Min > Max is legal (an empty rectangle) so
// that intersections can be represented faithfully.
func (r Rect) Validate() error {
	if len(r.Min) == 0 {
		return errors.New("index: rectangle has zero dimensions")
	}
	if len(r.Min) != len(r.Max) {
		return fmt.Errorf("index: rectangle min/max length mismatch: %d vs %d", len(r.Min), len(r.Max))
	}
	for i := range r.Min {
		if math.IsNaN(r.Min[i]) || math.IsNaN(r.Max[i]) {
			return fmt.Errorf("index: rectangle has NaN bound in dimension %d", i)
		}
	}
	return nil
}

// String renders the rectangle as [min,max] pairs per dimension.
func (r Rect) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i := range r.Min {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "[%g,%g]", r.Min[i], r.Max[i])
	}
	b.WriteByte('}')
	return b.String()
}
