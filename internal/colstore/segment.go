package colstore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/dataset"
)

// Segment is one opened, mmap'd column-store file. Its Table serves the
// full dataset.Table interface over the mapping: predicate kernels and
// workload scans read the mapped pages directly, so the process's
// resident set is only what the page cache keeps warm, not the dataset.
//
// A Segment must stay open for as long as its Table is referenced
// anywhere — Close unmaps the column slices out from under it. The server
// registry owns segments for the process lifetime, matching its
// "datasets are immutable and never dropped" contract.
type Segment struct {
	path      string
	f         *os.File
	data      []byte // the whole-file mapping (heap buffer on no-mmap platforms)
	mapped    bool
	table     *dataset.Table
	rows      int
	version   int
	dataBytes int64
	v1Bytes   int64
}

// Open verifies and maps the segment at path and rebuilds its table with
// zero-copy column views. Every checksum (header, directory, each column
// page, dictionaries, misfit table) is verified first via a sequential
// bounded-buffer read of the file — not through the mapping — and the
// pages the packed lanes' canonical-form check does touch are dropped
// before Open returns, so validation leaves the resident set alone.
// Corruption anywhere fails with ErrCorrupt.
func Open(path string) (*Segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("colstore: %w", err)
	}
	seg, err := open(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return seg, nil
}

// segMeta is everything validation learns about a segment file before it
// is mapped: decoded header and directory, schema, and the ordered
// checksummed regions with their total payload size.
type segMeta struct {
	h         *header
	dir       directory
	schema    *dataset.Schema
	rows      int
	regions   []region
	dataBytes int64
	// v1Bytes is what the same columns would occupy in the full-width v1
	// layout (codes 4 B/row, values 8 B/row) — the denominator of the
	// compression-ratio gauge.
	v1Bytes int64
	size    int64
}

// validateFile runs the segment's full structural and checksum validation
// — header, directory bounds + CRC + JSON, schema agreement, per-column
// region structure, then one sequential bounded-buffer checksum pass over
// every region in file order. It never maps the file, so it is equally
// the open-time gate and the background scrubber's re-verification
// primitive (reads go through a 1 MiB buffer, not the hot mapping).
func validateFile(f *os.File) (*segMeta, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("colstore: %w", err)
	}
	size := st.Size()
	hb := make([]byte, headerSize)
	if _, err := io.ReadFull(f, hb); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	h, err := decodeHeader(hb)
	if err != nil {
		return nil, err
	}
	if h.fileSize != uint64(size) {
		return nil, fmt.Errorf("%w: header says %d bytes, file has %d", ErrCorrupt, h.fileSize, size)
	}
	if h.dirOff < headerSize || h.dirOff+h.dirLen > uint64(size) || h.dirLen > 1<<30 {
		return nil, fmt.Errorf("%w: directory out of bounds", ErrCorrupt)
	}

	dirJSON := make([]byte, h.dirLen)
	if _, err := f.ReadAt(dirJSON, int64(h.dirOff)); err != nil {
		return nil, fmt.Errorf("%w: directory: %v", ErrCorrupt, err)
	}
	if got := crc32.Checksum(dirJSON, castagnoli); got != h.dirCRC {
		return nil, fmt.Errorf("%w: directory checksum mismatch (got %08x, want %08x)", ErrCorrupt, got, h.dirCRC)
	}
	var dir directory
	if err := json.Unmarshal(dirJSON, &dir); err != nil {
		return nil, fmt.Errorf("%w: directory: %v", ErrCorrupt, err)
	}
	schema := new(dataset.Schema)
	if err := json.Unmarshal(dir.Schema, schema); err != nil {
		return nil, fmt.Errorf("%w: schema: %v", ErrCorrupt, err)
	}
	rows := dir.Rows
	if rows < 0 || uint64(rows) != h.rows {
		return nil, fmt.Errorf("%w: row count mismatch (directory %d, header %d)", ErrCorrupt, rows, h.rows)
	}
	if len(dir.Columns) != schema.Arity() || uint32(len(dir.Columns)) != h.cols {
		return nil, fmt.Errorf("%w: column count mismatch", ErrCorrupt)
	}

	// Structural validation of every region, then one sequential checksum
	// pass in file order.
	words := (rows + 63) >> 6
	var regions []region
	var dataBytes int64
	checkRegion := func(r *region, what string, wantLen int64, align uint64) error {
		if r == nil {
			return fmt.Errorf("%w: missing %s region", ErrCorrupt, what)
		}
		if wantLen >= 0 && int64(r.Len) != wantLen {
			return fmt.Errorf("%w: %s region holds %d bytes, want %d", ErrCorrupt, what, r.Len, wantLen)
		}
		// Bounds via subtraction, not Off+Len: a directory declaring a
		// near-2^64 length must fail here, not wrap around and slice-panic
		// later (the structural check is what keeps checksum-valid-but-
		// hostile inputs from indexing out of bounds).
		if r.Off < headerSize || r.Off%align != 0 || r.Off > h.dirOff || r.Len > h.dirOff-r.Off {
			return fmt.Errorf("%w: %s region out of bounds", ErrCorrupt, what)
		}
		regions = append(regions, *r)
		dataBytes += int64(r.Len)
		return nil
	}
	var v1Bytes int64
	for pos, dc := range dir.Columns {
		a := schema.Attr(pos)
		if dc.Name != a.Name || dc.Kind != kindString(a.Kind) {
			return nil, fmt.Errorf("%w: column %d is %s %q, schema wants %s %q",
				ErrCorrupt, pos, dc.Kind, dc.Name, kindString(a.Kind), a.Name)
		}
		// Encoding entries are version-gated: a v1 file declaring a packed
		// encoding (or a packed entry with a nonsense width/base) is as
		// corrupt as a flipped page byte.
		if h.version < version2 && (dc.Enc != encRaw || dc.Width != 0 || dc.Min != nil || dc.Exp != 0) {
			return nil, fmt.Errorf("%w: column %d declares encoding %q in a v%d segment", ErrCorrupt, pos, dc.Enc, h.version)
		}
		packedLen := int64(0)
		if dc.Enc != encRaw {
			if dc.Width < 1 || dc.Width > 32 {
				return nil, fmt.Errorf("%w: column %d %s width %d out of range [1,32]", ErrCorrupt, pos, dc.Enc, dc.Width)
			}
			packedLen = int64(dataset.PackedWordCount(rows, dc.Width)) * 8
		}
		if a.Kind == dataset.Categorical {
			switch dc.Enc {
			case encRaw:
				if err := checkRegion(dc.Codes, "codes", int64(rows)*4, 8); err != nil {
					return nil, err
				}
			case encBitpack:
				if dc.Min != nil || dc.Exp != 0 {
					return nil, fmt.Errorf("%w: column %d bitpack entry carries a FoR base or exponent", ErrCorrupt, pos)
				}
				if err := checkRegion(dc.Codes, "packed codes", packedLen, 8); err != nil {
					return nil, err
				}
			default:
				return nil, fmt.Errorf("%w: column %d unknown encoding %q", ErrCorrupt, pos, dc.Enc)
			}
			if err := checkRegion(dc.Dict, "dictionary", -1, 8); err != nil {
				return nil, err
			}
			v1Bytes += int64(rows)*4 + int64(dc.Dict.Len)
		} else {
			switch dc.Enc {
			case encRaw:
				if err := checkRegion(dc.Vals, "values", int64(rows)*8, 8); err != nil {
					return nil, err
				}
			case encFoR, encFoR10:
				// "for" is exponent 0 and says so by carrying none; "for10"
				// carries 1..MaxDecimalExp. The base is the column minimum in
				// units of 10^−Exp: an integer (TableFromColumns bounds it).
				if dc.Min == nil || math.IsInf(*dc.Min, 0) || math.Trunc(*dc.Min) != *dc.Min {
					return nil, fmt.Errorf("%w: column %d %s entry lacks a finite integral base", ErrCorrupt, pos, dc.Enc)
				}
				if (dc.Enc == encFoR) != (dc.Exp == 0) || dc.Exp < 0 || dc.Exp > dataset.MaxDecimalExp {
					return nil, fmt.Errorf("%w: column %d %s entry has decimal exponent %d", ErrCorrupt, pos, dc.Enc, dc.Exp)
				}
				if err := checkRegion(dc.Vals, "packed values", packedLen, 8); err != nil {
					return nil, err
				}
			default:
				return nil, fmt.Errorf("%w: column %d unknown encoding %q", ErrCorrupt, pos, dc.Enc)
			}
			if err := checkRegion(dc.Missing, "missing bitmap", int64(words)*8, 8); err != nil {
				return nil, err
			}
			v1Bytes += int64(rows)*8 + int64(words)*8
		}
	}
	if dir.Misfits != nil {
		if err := checkRegion(dir.Misfits, "misfit table", -1, 8); err != nil {
			return nil, err
		}
	}
	buf := make([]byte, 1<<20)
	for _, r := range regions {
		if err := verifyRegion(f, r, buf); err != nil {
			return nil, err
		}
	}
	return &segMeta{h: h, dir: dir, schema: schema, rows: rows, regions: regions,
		dataBytes: dataBytes, v1Bytes: v1Bytes, size: size}, nil
}

func open(f *os.File, path string) (*Segment, error) {
	m, err := validateFile(f)
	if err != nil {
		return nil, err
	}
	data, mapped, err := mapFile(f, m.size)
	if err != nil {
		return nil, fmt.Errorf("colstore: mmap: %w", err)
	}
	seg := &Segment{path: path, f: f, data: data, mapped: mapped, rows: m.rows,
		version: int(m.h.version), dataBytes: m.dataBytes, v1Bytes: m.v1Bytes}
	table, err := seg.buildTable(m.schema, m.rows, &m.dir)
	if err != nil {
		seg.unmap()
		return nil, err
	}
	seg.table = table
	// buildTable's canonical-form check walked every packed column through
	// the mapping; drop those pages from the process again (they stay in
	// the page cache, so a scan's first touch is a minor fault).
	if mapped {
		adviseDontNeed(seg.data)
	}
	return seg, nil
}

// Verify re-runs the full open-time validation of the segment at path —
// header, directory CRC, structural bounds and every region checksum —
// through bounded sequential reads, without ever mapping the file. It is
// the background scrubber's segment check: cheap on the resident set,
// strict on the bytes. It returns the number of payload bytes checksummed
// (for read-rate pacing); a corrupt file returns ErrCorrupt.
func Verify(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("colstore: %w", err)
	}
	defer f.Close()
	m, err := validateFile(f)
	if err != nil {
		return 0, err
	}
	return int64(headerSize) + int64(m.h.dirLen) + m.dataBytes, nil
}

// buildTable assembles the zero-copy column views and hands them to
// dataset.TableFromColumns for structural validation.
func (s *Segment) buildTable(schema *dataset.Schema, rows int, dir *directory) (*dataset.Table, error) {
	cols := make([]dataset.ColumnData, len(dir.Columns))
	for pos, dc := range dir.Columns {
		if schema.Attr(pos).Kind == dataset.Categorical {
			dict, err := decodeDict(s.region(*dc.Dict))
			if err != nil {
				return nil, fmt.Errorf("column %d: %w", pos, err)
			}
			cd := dataset.ColumnData{Kind: dataset.Categorical, Dict: dict}
			if dc.Enc == encBitpack {
				cd.PackedCodes = &dataset.PackedInts{
					Width: dc.Width,
					N:     rows,
					Words: viewUint64s(s.region(*dc.Codes)),
				}
			} else if cd.PackedCodes, err = packV1Codes(s.region(*dc.Codes), len(dict)); err != nil {
				return nil, fmt.Errorf("%w: column %d: %v", ErrCorrupt, pos, err)
			}
			cols[pos] = cd
		} else {
			cd := dataset.ColumnData{
				Kind:         dataset.Continuous,
				MissingWords: viewUint64s(s.region(*dc.Missing)),
			}
			if dc.Enc != encRaw {
				cd.PackedVals = &dataset.PackedFloats{
					Ints: dataset.PackedInts{
						Width: dc.Width,
						N:     rows,
						Words: viewUint64s(s.region(*dc.Vals)),
					},
					Min: *dc.Min,
					Exp: dc.Exp,
				}
			} else {
				cd.Vals = viewFloat64s(s.region(*dc.Vals))
			}
			cols[pos] = cd
		}
	}
	var misfits []dataset.MisfitCell
	if dir.Misfits != nil {
		var err error
		if misfits, err = decodeMisfits(s.region(*dir.Misfits)); err != nil {
			return nil, err
		}
	}
	t, err := dataset.TableFromColumns(schema, rows, cols, misfits)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return t, nil
}

func (s *Segment) region(r region) []byte { return s.data[r.Off : r.Off+r.Len] }

// packV1Codes packs a v1 segment's full-width codes (little-endian int32,
// one per row) onto the heap by the column encoder's rules, refusing a
// code outside the dictionary and its sentinels.
func packV1Codes(b []byte, dictSize int) (*dataset.PackedInts, error) {
	lanes := make([]uint32, len(b)/4)
	for i := range lanes {
		lane := int64(int32(binary.LittleEndian.Uint32(b[i*4:]))) + dataset.PackedCodeBias
		if lane < 0 || lane >= int64(dictSize)+dataset.PackedCodeBias {
			return nil, fmt.Errorf("row %d code %d out of range [%d,%d)", i, lane-dataset.PackedCodeBias, -dataset.PackedCodeBias, dictSize)
		}
		lanes[i] = uint32(lane)
	}
	pk := dataset.NewCodePacker(dictSize)
	words := pk.Flush(pk.Lanes(make([]uint64, 0, dataset.PackedWordCount(len(lanes), pk.Width())), lanes))
	return &dataset.PackedInts{Width: pk.Width(), N: len(lanes), Words: words}, nil
}

// Table returns the mmap-backed table. Valid until Close.
func (s *Segment) Table() *dataset.Table { return s.table }

// Path returns the segment file path.
func (s *Segment) Path() string { return s.path }

// Rows returns the row count.
func (s *Segment) Rows() int { return s.rows }

// DataBytes returns the column payload size as stored — packed columns at
// their packed width. It is what a scan of every column reads, and what a
// heap copy of the table costs.
func (s *Segment) DataBytes() int64 { return s.dataBytes }

// MappedBytes returns the size of the file mapping.
func (s *Segment) MappedBytes() int64 { return int64(len(s.data)) }

// Version reports the on-disk format version (1 or 2).
func (s *Segment) Version() int { return s.version }

// V1DataBytes reports what the same columns would occupy in the
// full-width v1 layout (codes 4 B/row, values 8 B/row, plus
// dictionaries and missing bitmaps) — the denominator of the
// compression-ratio gauge, and the size the server's mmap threshold
// compares: a function of the table's shape alone, so no encoding
// improvement ever moves a table between heap and mmap.
func (s *Segment) V1DataBytes() int64 { return s.v1Bytes }

// ResidentBytes reports how much of the mapping currently sits in
// physical memory (mincore; on platforms without it, the whole heap
// fallback buffer counts as resident).
func (s *Segment) ResidentBytes() (int64, error) {
	if !s.mapped {
		return int64(len(s.data)), nil
	}
	return residentBytes(s.data)
}

// Release drops the whole mapping's pages from the process's page
// tables (madvise DONTNEED). The file's pages stay in the page cache, so
// the next scan's touch is a minor fault.
func (s *Segment) Release() { adviseDontNeed(s.data) }

// Close unmaps the file. The Table becomes invalid: any later column read
// faults. Only close a segment whose table can no longer be reached.
func (s *Segment) Close() error {
	err := s.unmap()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (s *Segment) unmap() error {
	if s.data == nil {
		return nil
	}
	var err error
	if s.mapped {
		err = unmapFile(s.data)
	}
	s.data = nil
	return err
}

// Load opens the segment, copies its columns onto the heap and closes the
// mapping — the below-threshold path of the storage policy, where a small
// table is cheaper served from RAM than through page faults. The returned
// table is independent of the file.
func Load(path string) (*dataset.Table, error) {
	seg, err := Open(path)
	if err != nil {
		return nil, err
	}
	defer seg.Close()
	return HeapCopy(seg.Table())
}

// HeapCopy clones a table's columns onto the heap — the way off a mapping
// that is about to close (the registry's below-threshold recovery path).
func HeapCopy(t *dataset.Table) (*dataset.Table, error) {
	schema := t.Schema()
	n := t.Size()
	cols := make([]dataset.ColumnData, schema.Arity())
	for pos := 0; pos < schema.Arity(); pos++ {
		cd := t.ColumnData(pos)
		hc := dataset.ColumnData{
			Kind:         cd.Kind,
			Dict:         append([]string(nil), cd.Dict...),
			Vals:         append([]float64(nil), cd.Vals...),
			MissingWords: append([]uint64(nil), cd.MissingWords...),
		}
		// Packed columns stay packed on the heap — same kernels, ~4-8x
		// less RAM than widening to the v1 layout.
		if cd.PackedCodes != nil {
			hc.PackedCodes = &dataset.PackedInts{
				Width: cd.PackedCodes.Width,
				N:     cd.PackedCodes.N,
				Words: append([]uint64(nil), cd.PackedCodes.Words...),
			}
		}
		if cd.PackedVals != nil {
			pv := *cd.PackedVals // frame and all; only the words move
			pv.Ints.Words = append([]uint64(nil), pv.Ints.Words...)
			hc.PackedVals = &pv
		}
		cols[pos] = hc
	}
	heap, err := dataset.TableFromColumns(schema, n, cols, t.MisfitCells())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return heap, nil
}

// verifyRegion checksums one region through the caller's reused buffer.
func verifyRegion(f *os.File, r region, buf []byte) error {
	crc := crc32.New(castagnoli)
	off := int64(r.Off)
	left := int64(r.Len)
	for left > 0 {
		n := int64(len(buf))
		if n > left {
			n = left
		}
		if _, err := f.ReadAt(buf[:n], off); err != nil {
			return fmt.Errorf("%w: read at %d: %v", ErrCorrupt, off, err)
		}
		crc.Write(buf[:n])
		off += n
		left -= n
	}
	if got := crc.Sum32(); got != r.CRC {
		return fmt.Errorf("%w: page [%d,%d) checksum mismatch (got %08x, want %08x)",
			ErrCorrupt, r.Off, r.Off+r.Len, got, r.CRC)
	}
	return nil
}

// viewUint32s reinterprets little-endian bytes as []uint32 on
// little-endian hosts and decode-copies otherwise (correct everywhere,
// zero-copy where the representation matches).
func viewUint32s(b []byte) []uint32 {
	if hostLittleEndian {
		return uint32View(b)
	}
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out
}

func viewFloat64s(b []byte) []float64 {
	if hostLittleEndian {
		return float64View(b)
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

func viewUint64s(b []byte) []uint64 {
	if hostLittleEndian {
		return uint64View(b)
	}
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}
