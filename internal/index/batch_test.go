package index

import (
	"math"
	"testing"
)

// fuzzValues is the palette FuzzSelectRectMatchesContains draws special
// values from: NaN, both infinities, both zeros, and the float extremes.
var fuzzValues = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	1, -1, 0.5, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
}

// FuzzSelectRectMatchesContains checks the predicate every engine's scan
// relies on: bit i of SelectRect's output is set iff r.Contains(row i), and
// the bits past the last row are zero. Each input byte becomes one value —
// a palette entry when its high bit is set, otherwise a small integer so
// rows often tie with bounds. Dimension i is left unconstrained (±Inf)
// when bit i of free is set. Run with:
//
//	go test ./internal/index -run NONE -fuzz FuzzSelectRectMatchesContains
func FuzzSelectRectMatchesContains(f *testing.F) {
	f.Add(uint8(2), uint8(0), uint16(70), []byte{0x80, 0x81, 0x82, 0x83, 0x84, 5, 7, 9, 0x88, 0x89})
	f.Add(uint8(1), uint8(0), uint16(64), []byte{3, 3, 0x84, 0x83})
	f.Add(uint8(3), uint8(0b101), uint16(1), []byte{0})
	f.Add(uint8(4), uint8(0b1111), uint16(200), []byte{1})
	f.Add(uint8(4), uint8(0b0100), uint16(1000), []byte{1, 0x80, 2, 0x81, 0x82, 4, 0x8a, 0x87, 6})
	f.Fuzz(func(t *testing.T, dims, free uint8, rows uint16, data []byte) {
		d := int(dims%4) + 1
		n := int(rows)%BatchRows + 1
		k := 0
		next := func() float64 {
			if len(data) == 0 {
				return 0
			}
			b := data[k%len(data)]
			k++
			if b&0x80 != 0 {
				return fuzzValues[int(b&0x7f)%len(fuzzValues)]
			}
			return float64(b&0x7f) - 32
		}
		r := Rect{Min: make([]float64, d), Max: make([]float64, d)}
		for i := 0; i < d; i++ {
			if free>>i&1 == 1 {
				r.Min[i], r.Max[i] = math.Inf(-1), math.Inf(1)
				continue
			}
			r.Min[i], r.Max[i] = next(), next()
		}
		page := make([]float64, n*d)
		for i := range page {
			page[i] = next()
		}
		sel := make([]uint64, BatchWords(n))
		for w := range sel {
			sel[w] = ^uint64(0) // stale bits the kernel must overwrite
		}
		SelectRect(page, d, n, r, sel)
		for i := 0; i < n; i++ {
			row := page[i*d : (i+1)*d]
			if got, want := sel[i>>6]>>(i&63)&1 == 1, r.Contains(row); got != want {
				t.Fatalf("row %d %v in %v: selected=%v, Contains=%v", i, row, r, got, want)
			}
		}
		for i := n; i < len(sel)*64; i++ {
			if sel[i>>6]>>(i&63)&1 != 0 {
				t.Fatalf("tail bit %d set for %d rows", i, n)
			}
		}
	})
}
