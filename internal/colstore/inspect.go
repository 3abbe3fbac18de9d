package colstore

import (
	"fmt"
	"os"

	"repro/internal/dataset"
)

// Info summarizes an on-disk segment: format version, per-column
// encodings and sizes, and what the same columns would occupy in the
// full-width v1 layout. Inspect never maps the file; it runs the same
// validation pass as Open, so an Info is only ever returned for a
// structurally sound, checksum-clean segment.
type Info struct {
	Version   int   // on-disk format version (1 or 2)
	Rows      int   // row count
	FileBytes int64 // total file size, header and directory included
	DataBytes int64 // column payload bytes (the scan working set)
	V1Bytes   int64 // payload bytes of the equivalent full-width v1 layout
	Columns   []ColumnInfo
}

// ColumnInfo is one column's slice of the Info.
type ColumnInfo struct {
	Name  string
	Kind  string // "categorical" | "continuous"
	Enc   string // "" (raw), "bitpack", "for" or "for10"
	Width int    // bits per row for packed encodings, 0 for raw
	Exp   int    // decimal exponent of a "for10" column, 0 otherwise
	Bytes int64  // this column's payload bytes in the file
}

// Inspect validates and summarizes the segment at path.
func Inspect(path string) (*Info, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("colstore: %w", err)
	}
	defer f.Close()
	m, err := validateFile(f)
	if err != nil {
		return nil, err
	}
	info := &Info{
		Version:   int(m.h.version),
		Rows:      m.rows,
		FileBytes: m.size,
		DataBytes: m.dataBytes,
		V1Bytes:   m.v1Bytes,
		Columns:   make([]ColumnInfo, len(m.dir.Columns)),
	}
	for pos, dc := range m.dir.Columns {
		ci := ColumnInfo{Name: dc.Name, Kind: dc.Kind, Enc: dc.Enc, Width: dc.Width, Exp: dc.Exp}
		for _, r := range []*region{dc.Codes, dc.Dict, dc.Vals, dc.Missing} {
			if r != nil {
				ci.Bytes += int64(r.Len)
			}
		}
		info.Columns[pos] = ci
	}
	return info, nil
}

// EncodingRaw is EncodingOf's name for full-width storage, whose
// directory Enc is empty.
const EncodingRaw = "raw"

// Encodings are the names EncodingOf can return: everything the Builder
// can pack, then the fallback.
var Encodings = []string{encBitpack, encFoR, encFoR10, EncodingRaw}

// EncodingOf names the encoding a table column is served in — the
// directory's Enc for a column of a mapped or heap-copied segment,
// EncodingRaw for full-width storage (a v1 segment, a parsed CSV, or a continuous
// column no frame of reference fits).
func EncodingOf(cd dataset.ColumnData) string {
	switch {
	case cd.PackedCodes != nil:
		return encBitpack
	case cd.PackedVals == nil:
		return EncodingRaw
	case cd.PackedVals.Exp > 0:
		return encFoR10
	}
	return encFoR
}
