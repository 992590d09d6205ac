package mmapsnap

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/gridfile"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/shard"
)

// fuzzSeedTable is a small correlated table whose snapshots exercise every
// v3 section kind: soft-FD models, a primary grid, and an outlier index.
func fuzzSeedTable() *dataset.Table {
	rng := rand.New(rand.NewSource(99))
	t := dataset.NewTable([]string{"x", "d", "u"})
	for i := 0; i < 400; i++ {
		x := rng.Float64() * 100
		d := 3*x + 7 + rng.NormFloat64()
		if rng.Float64() < 0.2 {
			d = rng.Float64() * 400
		}
		t.Append([]float64{x, d, rng.Float64() * 10})
	}
	return t
}

// FuzzMmapSnapDecode drives the v3 open path with arbitrary bytes.
// Truncated, corrupted, or misaligned inputs must produce typed errors —
// never a panic, an over-read past the blob, or an index that panics when
// queried. Seeds cover both container shapes × both outlier kinds ×
// compressed/plain, plus truncations and bit-flips, so the fuzzer starts
// inside the format rather than fighting the magic number.
func FuzzMmapSnapDecode(f *testing.F) {
	tab := fuzzSeedTable()
	opt := core.DefaultOptions()
	opt.SoftFD.SampleCount = 400

	var seeds [][]byte
	for _, kind := range []core.OutlierIndexKind{core.OutlierGrid, core.OutlierRTree} {
		o := opt
		o.OutlierKind = kind
		idx, err := core.Build(tab, o)
		if err != nil {
			f.Fatal(err)
		}
		for _, compress := range []bool{false, true} {
			blob, err := EncodeIndex(idx, Options{Compress: compress})
			if err != nil {
				f.Fatal(err)
			}
			seeds = append(seeds, blob)
		}
	}
	sharded, err := shard.Build(tab, opt, shard.Options{NumShards: 3, Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	blob, err := EncodeSharded(sharded, Options{Compress: true})
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, blob)

	for _, blob := range seeds {
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
		f.Add(blob[:len(blob)-1])
		for _, at := range []int{len(blob) / 3, len(blob) / 2, len(blob) - 9} {
			mut := append([]byte(nil), blob...)
			mut[at] ^= 0x40
			f.Add(mut)
		}
	}
	f.Add([]byte{})
	f.Add([]byte("COAXSNAP"))
	f.Add([]byte("COAXSNAP\x03\x00\x00\x00"))
	f.Add([]byte("not a snapshot at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		sn, err := OpenBytes(data)
		if err == nil {
			if idx := sn.Index(); idx != nil {
				exerciseQueries(idx)
			}
			if sh := sn.Sharded(); sh != nil {
				exerciseQueries(sh)
			}
			// A lazily-surfaced page error is fine; a panic above is not.
			_ = sn.PageErr()
		}
		Inspect(data)
		Verify(data)
		IsSharded(data)
		PeekVersion(data)
	})
}

// exerciseQueries runs the probe paths of an opened index; an open that
// validated must answer (possibly with rows elided by a latched page
// error) without panicking.
func exerciseQueries(idx index.Interface) {
	dims := idx.Dims()
	index.Count(idx, index.Full(dims))
	r := index.Full(dims)
	for d := 0; d < dims; d++ {
		r.Min[d], r.Max[d] = -1, 1
	}
	index.Count(idx, r)
	index.Count(idx, index.Point(make([]float64, dims)))
}

// fuzzPage builds a rows×dims page whose every column draws from one
// generator: integers of a random packed width 0–64, Gaussian floats, the
// NaN/±Inf/−0 palette, a constant, 0/1 flags, or mantissa-dense floats.
// With sortDim ≥ 0 the rows are sorted on that column the way a grid cell
// is.
func fuzzPage(rng *rand.Rand, rows, dims, sortDim int) []float64 {
	palette := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1.5, -2}
	page := make([]float64, rows*dims)
	for d := 0; d < dims; d++ {
		kind, width := rng.Intn(6), rng.Intn(65)
		for r := 0; r < rows; r++ {
			var v float64
			switch kind {
			case 0:
				switch {
				case width == 0:
					v = 7
				case width <= 62:
					v = float64(rng.Int63n(1<<width) - 1<<(width-1))
				default:
					v = math.Round((rng.Float64()*2 - 1) * 9e18)
				}
			case 1:
				v = rng.NormFloat64() * 1e6
			case 2:
				v = palette[rng.Intn(len(palette))]
			case 3:
				v = -3.25
			case 4:
				v = float64(rng.Intn(2))
			default:
				v = rng.Float64()
			}
			page[r*dims+d] = v
		}
	}
	if sortDim >= 0 {
		rowsOf := make([][]float64, rows)
		for r := range rowsOf {
			rowsOf[r] = append([]float64(nil), page[r*dims:(r+1)*dims]...)
		}
		sort.SliceStable(rowsOf, func(i, j int) bool { return rowsOf[i][sortDim] < rowsOf[j][sortDim] })
		for r, row := range rowsOf {
			copy(page[r*dims:], row)
		}
	}
	return page
}

// FuzzDecodeSpan checks the span decode against the whole-page decode on
// encoder-produced blobs and mutations of them. An intact blob must decode
// whole to its page, bit for bit, and a windowed decode must return exactly
// the rows SortSpan finds in the whole page, with their first row. A
// mutated blob must fail with ErrPage — or, when the mutation keeps a
// valid CRC and structure, still satisfy the same equivalence — and never
// panic. Both decodes verify the same checks, so they fail together.
func FuzzDecodeSpan(f *testing.F) {
	f.Add(int64(1), uint16(40), uint8(3), true, uint32(0), byte(0), false, -1e6, 1e6)
	f.Add(int64(2), uint16(300), uint8(4), true, uint32(0), byte(0), false, 0.0, 0.5)
	f.Add(int64(3), uint16(0), uint8(1), false, uint32(0), byte(0), false, math.Inf(-1), math.Inf(1))
	f.Add(int64(4), uint16(64), uint8(5), true, uint32(17), byte(0x10), false, -1.0, 1.0)
	f.Add(int64(5), uint16(65), uint8(2), true, uint32(5), byte(0x01), true, 0.0, 0.0)
	f.Add(int64(6), uint16(200), uint8(4), false, uint32(9), byte(0x80), true, math.NaN(), 3.0)
	f.Fuzz(func(t *testing.T, seed int64, rowsN uint16, dimsN uint8, sortOn bool, flipAt uint32, flip byte, fixCRC bool, wa, wb float64) {
		rng := rand.New(rand.NewSource(seed))
		rows, dims := 1+int(rowsN)%300, 1+int(dimsN)%5
		sortDim := -1
		if sortOn {
			sortDim = rng.Intn(dims)
		}
		page := fuzzPage(rng, rows, dims, sortDim)
		blob := encodePage(page, rows, dims)
		mutated := flip != 0
		if mutated {
			blob[int(flipAt)%len(blob)] ^= flip
			if fixCRC {
				binary.LittleEndian.PutUint32(blob, crc32.Checksum(blob[4:], castagnoli))
			}
		}
		w := gridfile.SortWindow{Min: min(wa, wb), Max: max(wa, wb)}

		full, first, ferr := decodeSpan(blob, rows, dims, sortDim, gridfile.SortWindow{Whole: true}, nil)
		scratch := make([]float64, rng.Intn(2*rows*dims+1))
		for i := range scratch {
			scratch[i] = math.NaN()
		}
		span, spanFirst, serr := decodeSpan(blob, rows, dims, sortDim, w, scratch)
		if (ferr == nil) != (serr == nil) {
			t.Fatalf("whole-page decode error %v, span decode error %v", ferr, serr)
		}
		if ferr != nil {
			if !errors.Is(ferr, ErrPage) || !errors.Is(serr, ErrPage) {
				t.Fatalf("decode errors %v / %v are not ErrPage", ferr, serr)
			}
			if !mutated && sortDim < 0 {
				t.Fatalf("intact unsorted page failed to decode: %v", ferr)
			}
			return
		}
		if mutated && !fixCRC {
			t.Fatal("blob with a flipped byte passed its CRC")
		}
		if first != 0 || len(full) != rows*dims {
			t.Fatalf("whole-page decode: %d values from row %d, want %d from 0", len(full), first, rows*dims)
		}
		if !mutated {
			for i := range page {
				if math.Float64bits(full[i]) != math.Float64bits(page[i]) {
					t.Fatalf("value %d decodes to %x, encoded %x", i, math.Float64bits(full[i]), math.Float64bits(page[i]))
				}
			}
		}
		lo, hi := 0, rows
		if sortDim >= 0 {
			lo, hi = gridfile.SortSpan(rows, full[sortDim:], dims, w.Min, w.Max)
		}
		if spanFirst != lo || len(span) != (hi-lo)*dims {
			t.Fatalf("span decode: %d rows from row %d, want rows [%d,%d)", len(span)/dims, spanFirst, lo, hi)
		}
		for i, v := range span {
			if math.Float64bits(v) != math.Float64bits(full[lo*dims+i]) {
				t.Fatalf("span value %d: %x, whole page has %x", i, math.Float64bits(v), math.Float64bits(full[lo*dims+i]))
			}
		}
	})
}
