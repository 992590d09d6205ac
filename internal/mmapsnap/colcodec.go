package mmapsnap

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"

	"github.com/coax-index/coax/internal/gridfile"
)

// Per-cell page compression. Each grid cell's main page compresses
// independently — the cell is the unit of access on the query path, so no
// cross-page state is needed to decode one. A page blob is:
//
//	u32 crc32c  over everything after these 4 bytes
//	u8  kind    0 = raw row-major page, 1 = columnar
//	kind 0: rows×dims f64 bit patterns
//	kind 1: per column d in 0..dims-1:
//	  u8 enc    0 = raw column, 1 = integer frame-of-reference,
//	            2 = float XOR frame-of-reference
//	  enc 0: rows × f64
//	  enc 1: u64 min (int64 two's complement), u8 width,
//	         ceil(rows*width/64) × u64 packed deltas
//	  enc 2: u64 reference bits, u8 width,
//	         ceil(rows*width/64) × u64 packed XOR residues
//
// Integer frame-of-reference applies only when every value round-trips
// exactly through int64 (correlated key columns — ids, timestamps — in
// practice); deltas against the column minimum are bit-packed at the
// narrowest width that holds the largest. Float columns XOR each value's
// bit pattern against the first row's and bit-pack the residues, which is
// lossless for any distribution and shrinks when high mantissa/exponent
// bits are shared. A column (or the whole page) falls back to raw when
// packing would not shrink it, so a blob is never larger than
// 5 + rows*dims*8 bytes.

const (
	pageRaw      = 0
	pageColumnar = 1

	encRawCol  = 0
	encIntFOR  = 1
	encFloatXR = 2
)

// maxPageExpand caps the decoded-to-stored size ratio of a compressed
// page. Width-0 packed columns make a blob's size independent of its row
// count, so without a cap a tiny corrupt blob could claim an arbitrarily
// large decoded page and drive row-proportional allocations before the
// page CRC is ever checked. The encoder falls back to raw storage for the
// (degenerate, all-columns-near-constant) pages that would exceed it, so
// the decoder can reject over-claiming directories as corrupt.
const maxPageExpand = 1 << 10

// encodePage compresses one row-major page. The result always round-trips
// bit-exactly through decodeSpan.
func encodePage(page []float64, rows, dims int) []byte {
	rawSize := 5 + rows*dims*8
	cols := make([][]byte, dims)
	colSize := 1 // kind byte
	for d := 0; d < dims; d++ {
		cols[d] = encodeColumn(page, rows, dims, d)
		colSize += len(cols[d])
	}
	blob := make([]byte, 4, min(colSize+4, rawSize))
	if colSize+4 < rawSize && rawSize <= maxPageExpand*(colSize+4) {
		blob = append(blob, pageColumnar)
		for d := 0; d < dims; d++ {
			blob = append(blob, cols[d]...)
		}
	} else {
		blob = append(blob, pageRaw)
		for _, v := range page[:rows*dims] {
			blob = binary.LittleEndian.AppendUint64(blob, math.Float64bits(v))
		}
	}
	binary.LittleEndian.PutUint32(blob, crc32.Checksum(blob[4:], castagnoli))
	return blob
}

// encodeColumn emits one column with the cheapest lossless encoding.
func encodeColumn(page []float64, rows, dims, d int) []byte {
	rawSize := 1 + rows*8

	// Integer frame-of-reference: exact int64 round-trip required for
	// every value (rejecting -0.0, NaN, ±Inf and fractions).
	ints := make([]int64, rows)
	intOK := true
	for r := 0; r < rows; r++ {
		v := page[r*dims+d]
		iv := int64(v)
		if float64(iv) != v || (v == 0 && math.Signbit(v)) {
			intOK = false
			break
		}
		ints[r] = iv
	}
	if intOK && rows > 0 {
		minV := ints[0]
		for _, iv := range ints {
			if iv < minV {
				minV = iv
			}
		}
		var maxDelta uint64
		deltas := make([]uint64, rows)
		for r, iv := range ints {
			// Two's-complement subtraction in uint64 is overflow-safe for
			// any int64 spread.
			dlt := uint64(iv) - uint64(minV)
			deltas[r] = dlt
			if dlt > maxDelta {
				maxDelta = dlt
			}
		}
		width := bits.Len64(maxDelta)
		if size := 10 + packedBytes(rows, width); size < rawSize {
			out := make([]byte, 0, size)
			out = append(out, encIntFOR)
			out = binary.LittleEndian.AppendUint64(out, uint64(minV))
			out = append(out, byte(width))
			return appendPacked(out, deltas, width)
		}
	}

	// Float XOR frame-of-reference: always lossless.
	if rows > 0 {
		ref := math.Float64bits(page[d])
		var maxRes uint64
		res := make([]uint64, rows)
		for r := 0; r < rows; r++ {
			x := math.Float64bits(page[r*dims+d]) ^ ref
			res[r] = x
			if x > maxRes {
				maxRes = x
			}
		}
		width := bits.Len64(maxRes)
		if size := 10 + packedBytes(rows, width); size < rawSize {
			out := make([]byte, 0, size)
			out = append(out, encFloatXR)
			out = binary.LittleEndian.AppendUint64(out, ref)
			out = append(out, byte(width))
			return appendPacked(out, res, width)
		}
	}

	out := make([]byte, 0, rawSize)
	out = append(out, encRawCol)
	for r := 0; r < rows; r++ {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(page[r*dims+d]))
	}
	return out
}

func packedWords(rows, width int) int { return (rows*width + 63) / 64 }
func packedBytes(rows, width int) int { return packedWords(rows, width) * 8 }

// appendPacked bit-packs vs LSB-first at the given width into out.
func appendPacked(out []byte, vs []uint64, width int) []byte {
	if width == 0 {
		return out
	}
	words := make([]uint64, packedWords(len(vs), width))
	bit := 0
	for _, v := range vs {
		w, off := bit>>6, uint(bit&63)
		words[w] |= v << off
		if off+uint(width) > 64 {
			words[w+1] |= v >> (64 - off)
		}
		bit += width
	}
	for _, w := range words {
		out = binary.LittleEndian.AppendUint64(out, w)
	}
	return out
}

// blobCursor is a bounds-checked reader over one page blob. Unlike
// binio.Reader it is allocation-free on the hot decode path.
type blobCursor struct {
	b   []byte
	off int
}

func (c *blobCursor) take(n int) ([]byte, error) {
	if n < 0 || len(c.b)-c.off < n {
		return nil, fmt.Errorf("%w: blob needs %d bytes at %d, has %d", ErrPage, n, c.off, len(c.b)-c.off)
	}
	s := c.b[c.off : c.off+n]
	c.off += n
	return s, nil
}

func (c *blobCursor) u8() (byte, error) {
	s, err := c.take(1)
	if err != nil {
		return 0, err
	}
	return s[0], nil
}

func (c *blobCursor) u64() (uint64, error) {
	s, err := c.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(s), nil
}

// column is one parsed column of a page blob: a raw column of f64 bit
// patterns step bytes apart, or the base and packed words of a
// frame-of-reference column.
type column struct {
	enc   byte
	base  uint64
	width int
	step  int // raw columns: bytes between consecutive rows
	raw   []byte
}

// parseColumn reads one column header of a columnar blob and claims its
// payload bytes.
func parseColumn(c *blobCursor, rows int) (column, error) {
	enc, err := c.u8()
	if err != nil {
		return column{}, err
	}
	col := column{enc: enc, step: 8}
	switch enc {
	case encRawCol:
		col.raw, err = c.take(rows * 8)
		return col, err
	case encIntFOR, encFloatXR:
		if col.base, err = c.u64(); err != nil {
			return column{}, err
		}
		w, err := c.u8()
		if err != nil {
			return column{}, err
		}
		if w > 64 {
			return column{}, fmt.Errorf("%w: pack width %d", ErrPage, w)
		}
		col.width = int(w)
		col.raw, err = c.take(packedBytes(rows, col.width))
		return col, err
	default:
		return column{}, fmt.Errorf("%w: unknown column encoding %d", ErrPage, enc)
	}
}

// decodeSpan decodes the rows of one cell blob that w selects into buf,
// row-major, and returns them — aliasing buf when it is large enough — with
// the index of their first row in the page. Whatever the window, it
// verifies the blob CRC, that the column headers consume the blob exactly,
// and — when a sort dimension is set — that the sort column is ascending,
// so a corrupt page can never silently desort a binary-searched cell. The
// sort column is decoded whole into buf to be checked and searched; of
// every column only the selected rows are then unpacked.
func decodeSpan(blob []byte, rows, dims, sortDim int, w gridfile.SortWindow, buf []float64) ([]float64, int, error) {
	if len(blob) < 5 {
		return nil, 0, fmt.Errorf("%w: blob of %d bytes", ErrPage, len(blob))
	}
	want := binary.LittleEndian.Uint32(blob)
	if got := crc32.Checksum(blob[4:], castagnoli); got != want {
		return nil, 0, fmt.Errorf("%w: page CRC %#08x, want %#08x", ErrPage, got, want)
	}
	c := &blobCursor{b: blob, off: 4}
	kind, err := c.u8()
	if err != nil {
		return nil, 0, err
	}
	cols := make([]column, 0, 16)
	switch kind {
	case pageRaw:
		raw, err := c.take(rows * dims * 8)
		if err != nil {
			return nil, 0, err
		}
		for d := 0; d < dims; d++ {
			cols = append(cols, column{enc: encRawCol, step: dims * 8, raw: raw[d*8:]})
		}
	case pageColumnar:
		for d := 0; d < dims; d++ {
			col, err := parseColumn(c, rows)
			if err != nil {
				return nil, 0, err
			}
			cols = append(cols, col)
		}
	default:
		return nil, 0, fmt.Errorf("%w: unknown page kind %d", ErrPage, kind)
	}
	if c.off != len(blob) {
		return nil, 0, fmt.Errorf("%w: %d trailing blob bytes", ErrPage, len(blob)-c.off)
	}

	lo, hi := 0, rows
	if sortDim >= 0 {
		buf = growScratch(buf, rows)
		keys := buf[:rows]
		cols[sortDim].unpack(0, rows, keys, 1)
		for r := 1; r < rows; r++ {
			if keys[r] < keys[r-1] {
				return nil, 0, fmt.Errorf("%w: decoded page not sorted on dimension %d at row %d", ErrPage, sortDim, r)
			}
		}
		if !w.Whole {
			lo, hi = gridfile.SortSpan(rows, keys, 1, w.Min, w.Max)
		}
	}
	// The keys are dead once the span is known: the rows overwrite them.
	buf = growScratch(buf, (hi-lo)*dims)
	out := buf[:(hi-lo)*dims]
	if lo < hi {
		for d := range cols {
			cols[d].unpack(lo, hi, out[d:], dims)
		}
	}
	return out, lo, nil
}

// growScratch returns buf, or a larger buffer when it cannot hold n
// values. It doubles, so a scan meeting ever larger pages reallocates
// only a few times.
func growScratch(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n, max(n, 2*cap(buf)))
	}
	return buf
}

// unpack writes rows [lo, hi) of the column to dst[0], dst[stride], ….
func (col *column) unpack(lo, hi int, dst []float64, stride int) {
	i := 0
	if col.enc == encRawCol {
		for r := lo; r < hi; r++ {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(col.raw[r*col.step:]))
			i += stride
		}
		return
	}
	width, base, raw := col.width, col.base, col.raw
	mask := uint64(1)<<width - 1 // all ones at width 64
	r := lo
	// A value of at most 56 bits lies inside the 8 bytes starting at its
	// first byte, so one unaligned load reads it — for every row whose 8
	// bytes end inside the packed words.
	if width > 0 && width <= 56 && len(raw) >= 8 {
		end := min(hi, ((len(raw)-8)*8+7)/width+1)
		if col.enc == encIntFOR {
			for ; r < end; r++ {
				bit := r * width
				v := binary.LittleEndian.Uint64(raw[bit>>3:]) >> (bit & 7) & mask
				dst[i] = float64(int64(base + v))
				i += stride
			}
		} else {
			for ; r < end; r++ {
				bit := r * width
				v := binary.LittleEndian.Uint64(raw[bit>>3:]) >> (bit & 7) & mask
				dst[i] = math.Float64frombits(base ^ v)
				i += stride
			}
		}
	}
	// The last rows, width 0 and widths above 56 read whole packed words.
	for ; r < hi; r++ {
		var v uint64
		if width > 0 {
			bit := r * width
			wi, off := bit>>6<<3, uint(bit&63)
			v = binary.LittleEndian.Uint64(raw[wi:]) >> off
			if off+uint(width) > 64 {
				v |= binary.LittleEndian.Uint64(raw[wi+8:]) << (64 - off)
			}
			v &= mask
		}
		if col.enc == encIntFOR {
			dst[i] = float64(int64(base + v))
		} else {
			dst[i] = math.Float64frombits(base ^ v)
		}
		i += stride
	}
}
