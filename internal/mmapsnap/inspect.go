package mmapsnap

import (
	"fmt"
	"hash/crc32"

	"github.com/coax-index/coax/internal/gridfile"
)

// SectionStat describes one v3 section for tooling: its frame, and for
// grid page sections the decoded (in-memory) size of the data region so a
// compression ratio can be reported.
type SectionStat struct {
	ID     string
	Flags  uint32
	Offset uint64
	Len    uint64
	CRC    uint32
	// DecodedBytes is the size of the section's payload once usable for
	// queries: for grid page sections the directory, bitmap, and
	// decompressed row data; for plain sections the payload itself.
	DecodedBytes uint64
	// Compressed marks a grid section whose data region is per-page
	// compressed.
	Compressed bool
	// Cells is the cell count of a grid section (0 otherwise).
	Cells int
}

// Stat is the frame-level description of a v3 blob returned by Inspect.
type Stat struct {
	Version  uint32
	Bytes    uint64
	Sections []SectionStat
	// Shards holds the nested per-shard stats of a sharded snapshot.
	Shards []Stat
}

// Inspect describes a v3 blob without assembling an index: the TOC, and
// per-section on-disk vs decoded sizes. Plain sections are CRC-verified;
// page-structured content is not read (use Verify for that).
func Inspect(data []byte) (Stat, error) {
	entries, err := parseTOC(data)
	if err != nil {
		return Stat{}, err
	}
	st := Stat{Version: Version, Bytes: uint64(len(data))}
	for _, e := range entries {
		s := SectionStat{ID: e.id, Flags: e.flags, Offset: e.off, Len: e.len, CRC: e.crc, DecodedBytes: e.len}
		switch e.id {
		case secPrimary, secOutlGrid:
			sec, err := parseGridSection(data[e.off : e.off+e.len])
			if err != nil {
				return Stat{}, fmt.Errorf("mmapsnap: section %q: %w", e.id, err)
			}
			offsets := asInt64s(sec.offsetsB)
			s.Cells = len(offsets) - 1
			s.Compressed = sec.compressed
			if n := len(offsets); n > 0 {
				mainRows := offsets[n-1]
				decodedData := uint64(mainRows) * uint64(sec.dims) * 8
				s.DecodedBytes = e.len - uint64(len(sec.dataB)) + decodedData
			}
		default:
			if e.flags&flagPages == 0 {
				if _, err := sectionPayload(data, e); err != nil {
					return Stat{}, err
				}
			}
		}
		st.Sections = append(st.Sections, s)
		if isShardSection(e.id) {
			sub, err := Inspect(data[e.off : e.off+e.len])
			if err != nil {
				return Stat{}, fmt.Errorf("mmapsnap: shard section %q: %w", e.id, err)
			}
			st.Shards = append(st.Shards, sub)
		}
	}
	return st, nil
}

// isShardSection reports whether id names a shard sub-blob ("s" + three
// hex digits), as distinct from "sofd" and "shmt".
func isShardSection(id string) bool {
	if len(id) != 4 || id[0] != 's' {
		return false
	}
	for i := 1; i < 4; i++ {
		c := id[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// Verify proves a whole blob sound: every section CRC (page-structured
// ones included), every grid section's structure, and — for compressed
// grids — every page blob's CRC, exact consumption, and sort invariant.
// It reads every byte; Open deliberately does not.
func Verify(data []byte) error {
	entries, err := parseTOC(data)
	if err != nil {
		return err
	}
	for _, e := range entries {
		payload := data[e.off : e.off+e.len]
		if got := crc32.Checksum(payload, castagnoli); got != e.crc {
			return fmt.Errorf("%w: section %q has CRC %#08x, want %#08x", ErrChecksum, e.id, got, e.crc)
		}
		switch {
		case e.id == secPrimary || e.id == secOutlGrid:
			sec, err := parseGridSection(payload)
			if err != nil {
				return fmt.Errorf("mmapsnap: section %q: %w", e.id, err)
			}
			if err := verifyGridPages(sec); err != nil {
				return fmt.Errorf("mmapsnap: section %q: %w", e.id, err)
			}
		case isShardSection(e.id):
			if err := Verify(payload); err != nil {
				return fmt.Errorf("mmapsnap: shard section %q: %w", e.id, err)
			}
		}
	}
	return nil
}

// verifyGridPages decodes every compressed page (or checks the raw data
// region length) of one parsed grid section.
func verifyGridPages(sec *gridSection) error {
	offsets, pagedir, err := validateGridDir(sec)
	if err != nil {
		return err
	}
	if !sec.compressed {
		return nil
	}
	nCells := len(offsets) - 1
	var buf []float64
	for c := 0; c < nCells; c++ {
		rows := int(offsets[c+1] - offsets[c])
		if rows == 0 {
			continue
		}
		blob := sec.dataB[pagedir[c]:pagedir[c+1]]
		page, _, err := decodeSpan(blob, rows, sec.dims, sec.sortDim, gridfile.SortWindow{Whole: true}, buf)
		if err != nil {
			return fmt.Errorf("cell %d: %w", c, err)
		}
		buf = page[:cap(page)]
	}
	return nil
}
