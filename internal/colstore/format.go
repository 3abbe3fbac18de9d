// Package colstore is the disk-backed column store under the APEx server:
// it serializes a dataset.Table's typed columns — dictionary-encoded
// int32 codes plus dictionaries for categorical attributes, packed
// float64s plus missing bitmaps for continuous ones, and the exact misfit
// side table — into a paged, checksummed, versioned segment file, and
// reopens that file via mmap as zero-copy column slices behind the
// existing dataset.Table interfaces. The workload scan kernel
// (Histogram/TrueAnswers/Sums) and the workload transformation cache
// run unchanged over disk-resident data, so a table far larger than RAM
// serves queries with the kernel's page cache as the only working set.
//
// Segment file layout (all integers little-endian):
//
//	[0,64)     fixed header: magic, version, row/column counts, the
//	           directory's location and CRC-32C, and the header's own CRC
//	[64,dir)   data pages, one per column region in schema order, each
//	           aligned to a 4 KiB page boundary: codes (bitpacked; 4 B/row
//	           in v1 files) then the dictionary blob for categorical
//	           attributes; values (frame-of-reference packed or 8 B/row)
//	           then the missing bitmap (1 bit/row) for continuous ones;
//	           finally the misfit side table (JSON), if any
//	[dir,EOF)  directory: JSON naming every region's offset, length,
//	           CRC-32C and encoding, plus the full schema
//
// Open verifies every checksum with a bounded-buffer sequential read
// (never through the mapping, so validation does not inflate resident
// memory), then maps the file read-only and hands the column regions to
// dataset.TableFromColumns without copying. Any flipped byte in the
// header, a data page, a dictionary or the directory fails Open with
// ErrCorrupt.
package colstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"unsafe"

	"repro/internal/dataset"
)

// ErrCorrupt marks a segment that failed structural or checksum
// validation; callers (the server registry) quarantine the file and fall
// back to re-parsing the source CSV when one is available.
var ErrCorrupt = errors.New("colstore: segment corrupt")

// ErrIO marks a segment build/write failure — disk trouble, not bad
// input. The registry maps it to its persistence-failure surface (HTTP
// 500) instead of the analyst-input one (400).
var ErrIO = errors.New("colstore: segment I/O failure")

const (
	magic = "APXSEG1\n"
	// version1 is the original full-width layout: int32 codes and float64
	// values. version2 adds per-column lightweight encodings (bitpacked
	// dictionary codes, frame-of-reference values). The reader accepts
	// both; the one writer (Builder) emits CurrentVersion only, so v1 is
	// read-only history — its bytes in the tests come from the committed
	// fixture testdata/v1, and the server rebuilds a v1 segment at v2 from
	// the catalog's source CSV the first time it opens one.
	version1 = 1
	version2 = 2
	// CurrentVersion is the only format the Builder writes; a segment
	// whose Version() is lower still opens and serves.
	CurrentVersion = version2
	headerSize     = 64
	// pageAlign aligns every column region to the usual OS page size, so
	// no two columns share a fault page: a scan faults in only the
	// columns it reads.
	pageAlign = 4096
)

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64),
// matching the WAL's framing checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// header is the fixed 64-byte preamble.
type header struct {
	version  uint32
	rows     uint64
	cols     uint32
	dirOff   uint64
	dirLen   uint64
	dirCRC   uint32
	fileSize uint64
}

func (h *header) encode() []byte {
	b := make([]byte, headerSize)
	copy(b[0:8], magic)
	binary.LittleEndian.PutUint32(b[8:12], h.version)
	binary.LittleEndian.PutUint32(b[12:16], headerSize)
	binary.LittleEndian.PutUint64(b[16:24], h.rows)
	binary.LittleEndian.PutUint32(b[24:28], h.cols)
	binary.LittleEndian.PutUint64(b[32:40], h.dirOff)
	binary.LittleEndian.PutUint64(b[40:48], h.dirLen)
	binary.LittleEndian.PutUint32(b[48:52], h.dirCRC)
	binary.LittleEndian.PutUint64(b[52:60], h.fileSize)
	binary.LittleEndian.PutUint32(b[60:64], crc32.Checksum(b[:60], castagnoli))
	return b
}

func decodeHeader(b []byte) (*header, error) {
	if len(b) < headerSize {
		return nil, fmt.Errorf("%w: file shorter than header", ErrCorrupt)
	}
	if string(b[0:8]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if got, want := crc32.Checksum(b[:60], castagnoli), binary.LittleEndian.Uint32(b[60:64]); got != want {
		return nil, fmt.Errorf("%w: header checksum mismatch (got %08x, want %08x)", ErrCorrupt, got, want)
	}
	v := binary.LittleEndian.Uint32(b[8:12])
	if v != version1 && v != version2 {
		return nil, fmt.Errorf("colstore: unsupported segment version %d (want %d or %d)", v, version1, version2)
	}
	if hl := binary.LittleEndian.Uint32(b[12:16]); hl != headerSize {
		return nil, fmt.Errorf("%w: header length %d", ErrCorrupt, hl)
	}
	return &header{
		version:  v,
		rows:     binary.LittleEndian.Uint64(b[16:24]),
		cols:     binary.LittleEndian.Uint32(b[24:28]),
		dirOff:   binary.LittleEndian.Uint64(b[32:40]),
		dirLen:   binary.LittleEndian.Uint64(b[40:48]),
		dirCRC:   binary.LittleEndian.Uint32(b[48:52]),
		fileSize: binary.LittleEndian.Uint64(b[52:60]),
	}, nil
}

// region locates one checksummed byte range of the file.
type region struct {
	Off uint64 `json:"off"`
	Len uint64 `json:"len"`
	CRC uint32 `json:"crc"`
}

// Column encodings (dirColumn.Enc). Empty means the full-width v1
// layout; v2 files may mix encodings per column (a continuous column of
// arbitrary float64s stays raw, its neighbors pack). "for10" is its own
// name rather than an exponent on "for" so that a binary that predates it
// refuses the file as an unknown encoding instead of reading cents as
// dollars.
const (
	encRaw     = ""        // int32 codes / float64 values
	encBitpack = "bitpack" // categorical: biased codes at Width bits/row
	encFoR     = "for"     // continuous integers: Min + lane, Width bits/row
	encFoR10   = "for10"   // continuous decimals: (Min + lane) / 10^Exp, Exp >= 1
)

// dirColumn is one column's entry in the directory.
type dirColumn struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "categorical" | "continuous"

	// Enc selects the region encoding; Width, Min and Exp parameterize the
	// packed forms (Min for "for" and "for10", Exp for "for10" only).
	// Absent in v1 files.
	Enc   string   `json:"enc,omitempty"`
	Width int      `json:"width,omitempty"`
	Min   *float64 `json:"min,omitempty"`
	Exp   int      `json:"exp,omitempty"`

	Codes *region `json:"codes,omitempty"` // categorical: codes (raw or bitpacked)
	Dict  *region `json:"dict,omitempty"`  // categorical: string blob

	Vals    *region `json:"vals,omitempty"`    // continuous: values (raw or FoR)
	Missing *region `json:"missing,omitempty"` // continuous: bitmap words
}

// directory is the segment's JSON trailer.
type directory struct {
	Schema  json.RawMessage `json:"schema"`
	Rows    int             `json:"rows"`
	Columns []dirColumn     `json:"columns"`
	Misfits *region         `json:"misfits,omitempty"`
}

// misfitJSON is the serialized form of one misfit cell. Misfit values are
// always a number in a categorical column or a string in a continuous one
// (NULLs encode directly in the columns), so two optional fields cover
// the whole domain.
type misfitJSON struct {
	Row int      `json:"row"`
	Pos int      `json:"pos"`
	Str *string  `json:"str,omitempty"`
	Num *float64 `json:"num,omitempty"`
}

func encodeMisfits(cells []dataset.MisfitCell) ([]byte, error) {
	out := make([]misfitJSON, 0, len(cells))
	for _, c := range cells {
		m := misfitJSON{Row: c.Row, Pos: c.Pos}
		switch {
		case c.Value.IsNull():
			return nil, fmt.Errorf("colstore: misfit cell (%d,%d) is NULL", c.Row, c.Pos)
		default:
			if s, ok := c.Value.AsStr(); ok {
				m.Str = &s
			} else if n, ok := c.Value.AsNum(); ok {
				m.Num = &n
			}
		}
		out = append(out, m)
	}
	return json.Marshal(out)
}

func decodeMisfits(b []byte) ([]dataset.MisfitCell, error) {
	var in []misfitJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return nil, fmt.Errorf("%w: misfit table: %v", ErrCorrupt, err)
	}
	out := make([]dataset.MisfitCell, 0, len(in))
	for _, m := range in {
		cell := dataset.MisfitCell{Row: m.Row, Pos: m.Pos}
		switch {
		case m.Str != nil:
			cell.Value = dataset.Str(*m.Str)
		case m.Num != nil:
			cell.Value = dataset.Num(*m.Num)
		default:
			return nil, fmt.Errorf("%w: misfit cell (%d,%d) carries no value", ErrCorrupt, m.Row, m.Pos)
		}
		out = append(out, cell)
	}
	return out, nil
}

// Dictionary blob: uvarint count, then per entry uvarint length + bytes.

func encodeDict(dict []string) []byte {
	var buf []byte
	var tmp [binary.MaxVarintLen64]byte
	buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(len(dict)))]...)
	for _, s := range dict {
		buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(len(s)))]...)
		buf = append(buf, s...)
	}
	return buf
}

func decodeDict(b []byte) ([]string, error) {
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("%w: dictionary count", ErrCorrupt)
	}
	b = b[n:]
	if count > uint64(len(b))+1 { // each entry costs at least one length byte
		return nil, fmt.Errorf("%w: dictionary count %d exceeds blob", ErrCorrupt, count)
	}
	out := make([]string, 0, count)
	for i := uint64(0); i < count; i++ {
		l, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b[n:])) < l {
			return nil, fmt.Errorf("%w: dictionary entry %d truncated", ErrCorrupt, i)
		}
		out = append(out, string(b[n:n+int(l)]))
		b = b[n+int(l):]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing dictionary bytes", ErrCorrupt, len(b))
	}
	return out, nil
}

// hostLittleEndian reports whether typed slices can alias the file bytes
// directly. On a big-endian host Open falls back to decode-copy, which is
// correct but not zero-copy.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// The reinterpreting views below are only used when hostLittleEndian:
// the segment encodes little-endian, so on LE hosts the file bytes are
// the in-memory representation.

func uint32View(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func float64View(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
}

func uint64View(b []byte) []uint64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
}

// bytesOfUint64s is the write-side counterpart (LE hosts only; the
// builder falls back to per-element encoding elsewhere).

func bytesOfUint64s(v []uint64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
}

func kindString(k dataset.AttrKind) string {
	if k == dataset.Categorical {
		return "categorical"
	}
	return "continuous"
}
