package colstore

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/dataset"
	"repro/internal/durable"
)

// Builder streams rows into a segment file with bounded memory: the big
// per-row regions (codes, values) spill to temp files next to the output
// as they arrive, while only the small state — dictionaries, missing
// bitmaps (1 bit per row) and the rare misfit cells — stays in memory.
// Finish assembles the final segment in one sequential pass over the
// spills and fsyncs it; a 10M-row ingest never materializes a table.
//
// The builder writes directly at the given path and the file is complete
// only after Finish returns nil; callers wanting atomicity build inside a
// temp directory (the store's dataset transaction) or write to a temp
// name and rename.
type Builder struct {
	schema  *dataset.Schema
	path    string
	spill   string // temp dir holding per-column spill files
	rows    int
	cols    []*colBuilder
	misfits []dataset.MisfitCell
	err     error // first failure; poisons Append and Finish

	one     *dataset.Block // Append's one-row block
	scratch []byte         // one block column's spill bytes
}

type colBuilder struct {
	kind dataset.AttrKind
	f    *os.File
	w    *bufio.Writer

	// Categorical state: the dictionary, seeded with the public domain
	// exactly like dataset.NewTable so codes match heap-built tables.
	dict  []string
	index map[string]int32
	remap []int32 // a block's local codes -> dict codes

	// Continuous state: the missing bitmap words, plus the running
	// frame-of-reference decision over the non-missing values (made
	// cheaply during Append so Finish can pack the spill in one streaming
	// pass without a pre-scan).
	missing []uint64
	frame   dataset.FoRFrame
}

// NewBuilder opens a builder that will write the segment at path. The
// spill directory is created next to the output so the final copy stays
// on one filesystem.
func NewBuilder(path string, schema *dataset.Schema) (*Builder, error) {
	spill, err := os.MkdirTemp(filepath.Dir(path), ".colstore-spill-")
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrIO, err)
	}
	b := &Builder{schema: schema, path: path, spill: spill, one: dataset.NewBlock(schema)}
	for pos := 0; pos < schema.Arity(); pos++ {
		a := schema.Attr(pos)
		f, err := os.OpenFile(filepath.Join(spill, fmt.Sprintf("col%d", pos)), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if err != nil {
			b.Abort()
			return nil, fmt.Errorf("%w: %v", ErrIO, err)
		}
		cb := &colBuilder{kind: a.Kind, f: f, w: bufio.NewWriterSize(f, 1<<16)}
		if a.Kind == dataset.Categorical {
			cb.index = make(map[string]int32, len(a.Values))
			for _, v := range a.Values {
				cb.code(v)
			}
		}
		b.cols = append(b.cols, cb)
	}
	return b, nil
}

func (c *colBuilder) code(v string) int32 {
	if id, ok := c.index[v]; ok {
		return id
	}
	id := int32(len(c.dict))
	c.dict = append(c.dict, v)
	c.index[v] = id
	return id
}

// sentinel codes, matching dataset's internal encoding.
const (
	nullCode   int32 = -1
	misfitCode int32 = -2
)

// Append adds one row. The tuple may be reused by the caller after the
// call returns. Cell semantics match dataset.Table.Append exactly, misfit
// cells included, so a segment built from the same rows reopens as an
// equivalent table. The row goes through the same block writer as a CSV
// ingest, as a block of one.
func (b *Builder) Append(row dataset.Tuple) error {
	if b.err != nil {
		return b.err
	}
	if len(row) != b.schema.Arity() {
		return fmt.Errorf("colstore: tuple arity %d, schema arity %d", len(row), b.schema.Arity())
	}
	one := b.one
	one.Reset()
	one.Rows = 1
	for pos, v := range row {
		bc := &one.Cols[pos]
		if b.cols[pos].kind == dataset.Categorical {
			code := nullCode
			if s, ok := v.AsStr(); ok {
				code = 0
				bc.Dict = append(bc.Dict, s)
			} else if !v.IsNull() {
				code = misfitCode
				b.misfits = append(b.misfits, dataset.MisfitCell{Row: b.rows, Pos: pos, Value: v})
			}
			bc.Codes = append(bc.Codes, code)
			continue
		}
		val, missing := 0.0, uint64(1)
		if n, ok := v.AsNum(); ok {
			val, missing = n, 0
		} else if !v.IsNull() {
			b.misfits = append(b.misfits, dataset.MisfitCell{Row: b.rows, Pos: pos, Value: v})
		}
		bc.Vals = append(bc.Vals, val)
		bc.Missing = append(bc.Missing, missing)
	}
	return b.appendBlock(one)
}

// appendBlock writes a block's rows to the spills: each block-local
// dictionary maps onto the column's in order (so codes are the ones
// row-at-a-time appends give), and the frame-of-reference decision folds
// the block's values in row order.
func (b *Builder) appendBlock(blk *dataset.Block) error {
	if b.err != nil {
		return b.err
	}
	for pos, c := range b.cols {
		bc := &blk.Cols[pos]
		out := b.scratch[:0]
		if c.kind == dataset.Categorical {
			c.remap = c.remap[:0]
			for _, s := range bc.Dict {
				c.remap = append(c.remap, c.code(s))
			}
			for _, code := range bc.Codes {
				if code >= 0 {
					code = c.remap[code]
				}
				out = binary.LittleEndian.AppendUint32(out, uint32(code))
			}
		} else {
			for i, v := range bc.Vals {
				if !bc.MissingAt(i) {
					c.frame.Add(v)
				}
				out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
			}
			c.missing = dataset.AppendBits(c.missing, b.rows, bc.Missing, blk.Rows)
		}
		b.scratch = out
		if _, err := c.w.Write(out); err != nil {
			return b.fail(err)
		}
	}
	b.rows += blk.Rows
	return nil
}

func (b *Builder) fail(err error) error {
	if b.err == nil {
		b.err = fmt.Errorf("%w: %v", ErrIO, err)
	}
	return b.err
}

// Rows returns the number of rows appended so far.
func (b *Builder) Rows() int { return b.rows }

// BuildResult summarizes a finished segment.
type BuildResult struct {
	Rows int
	// DataBytes is the raw column payload (codes + values + bitmaps +
	// dictionaries), the size the mmap threshold policy compares against.
	DataBytes int64
	// FileBytes is the full segment size including header, page padding
	// and directory.
	FileBytes int64
	// FallbackRecords is how many of BuildCSV's records the encoding/csv
	// arm parsed (quoted or CRLF input; dataset.IngestStats).
	FallbackRecords int
}

// Finish assembles the segment from the spills, fsyncs it and removes the
// spill directory. The builder is spent afterwards.
func (b *Builder) Finish() (*BuildResult, error) {
	if b.err != nil {
		b.Abort()
		return nil, b.err
	}
	defer b.Abort() // releases spills; the output only on failure
	for _, c := range b.cols {
		if err := c.w.Flush(); err != nil {
			return nil, b.fail(err)
		}
		if err := c.f.Close(); err != nil {
			return nil, b.fail(err)
		}
		c.f = nil
	}

	var res *BuildResult
	err := durable.WriteFile(b.path, func(out *os.File) (err error) {
		res, err = b.writeSegment(newSegWriter(out))
		return err
	})
	if err != nil {
		return nil, b.fail(err)
	}
	b.err = fmt.Errorf("colstore: builder already finished")
	return res, nil
}

// Abort discards the spills. Safe to call more than once and after
// Finish (where it is a no-op for the completed output).
func (b *Builder) Abort() {
	for _, c := range b.cols {
		if c.f != nil {
			c.f.Close()
			c.f = nil
		}
	}
	if b.spill != "" {
		os.RemoveAll(b.spill)
		b.spill = ""
	}
}

// BuildCSV streams CSV (ReadCSV semantics) straight into a segment at
// path with bounded memory — the disk-backed counterpart of ReadCSV. The
// rows arrive as dataset.IngestCSV's column blocks. Malformed CSV surfaces
// as the dataset package's parse error (bad input); disk trouble wraps
// ErrIO.
func BuildCSV(path string, schema *dataset.Schema, r io.Reader) (*BuildResult, error) {
	b, err := NewBuilder(path, schema)
	if err != nil {
		return nil, err
	}
	st, err := dataset.IngestCSV(r, schema, b.appendBlock)
	if err != nil {
		b.Abort()
		// A poisoned builder means the failure was ours (spill write),
		// not the caller's CSV.
		if b.err != nil {
			return nil, b.err
		}
		return nil, err
	}
	res, err := b.Finish()
	if err != nil {
		return nil, err
	}
	res.FallbackRecords = st.FallbackRecords
	return res, nil
}

// columnSource hands writeSegment one column's payload: the spill-file
// stream of raw little-endian codes or values, the small state the builder
// kept in memory (dictionary, missing bitmap), and the frame-of-reference
// decision Append reached, so the streaming pass knows the encoding up
// front.
type columnSource struct {
	kind   dataset.AttrKind
	stream *os.File // raw LE int32 codes / float64 values, one per row

	dict    []string
	missing []uint64

	// Frame-of-reference decision (continuous only): the frame every
	// spilled value round-trips through, nil when there is none and the
	// column stays raw float64.
	packing *dataset.PackedFloats
}

// source opens column pos's spill for the assembly pass.
func (b *Builder) source(pos int) (columnSource, error) {
	c := b.cols[pos]
	f, err := os.Open(filepath.Join(b.spill, fmt.Sprintf("col%d", pos)))
	if err != nil {
		return columnSource{}, err
	}
	src := columnSource{kind: c.kind, stream: f}
	if c.kind == dataset.Categorical {
		src.dict = c.dict
		return src, nil
	}
	src.missing = c.missing
	if p, ok := c.frame.Packing(); ok {
		src.packing = &p
	}
	return src, nil
}

// writeSegment lays the file out: header placeholder, page-aligned column
// regions, misfit blob, directory, then the real header. It writes format
// v2 and nothing else: categorical codes bitpack, continuous columns of
// short decimals frame-of-reference pack ("for" at exponent 0, "for10"
// above), the rest stay raw float64 (marked in the directory).
func (b *Builder) writeSegment(sw *segWriter) (*BuildResult, error) {
	schema, rows := b.schema, b.rows
	if err := sw.writeRaw(make([]byte, headerSize)); err != nil {
		return nil, err
	}
	var dataBytes int64
	dir := directory{Rows: rows}
	schemaJSON, err := json.Marshal(schema)
	if err != nil {
		return nil, fmt.Errorf("colstore: schema: %w", err)
	}
	dir.Schema = schemaJSON

	for pos := 0; pos < schema.Arity(); pos++ {
		src, err := b.source(pos)
		if err != nil {
			return nil, fmt.Errorf("colstore: column %d: %w", pos, err)
		}
		a := schema.Attr(pos)
		dc := dirColumn{Name: a.Name, Kind: kindString(src.kind)}
		if err := sw.padTo(pageAlign); err != nil {
			src.stream.Close()
			return nil, err
		}
		if src.kind == dataset.Categorical {
			dc.Enc, dc.Width = encBitpack, dataset.PackedCodeWidth(len(src.dict))
			r, err := sw.packCodesStream(src.stream, rows, dc.Width)
			src.stream.Close()
			if err != nil {
				return nil, fmt.Errorf("colstore: column %d codes: %w", pos, err)
			}
			dc.Codes = &r
			if err := sw.padTo(8); err != nil {
				return nil, err
			}
			dictR, err := sw.writeRegion(encodeDict(src.dict))
			if err != nil {
				return nil, fmt.Errorf("colstore: column %d dictionary: %w", pos, err)
			}
			dc.Dict = &dictR
			dataBytes += int64(r.Len) + int64(dictR.Len)
		} else {
			words := src.missing
			if want := (rows + 63) >> 6; len(words) != want {
				// A zero-row or short bitmap from the builder; normalize.
				norm := make([]uint64, want)
				copy(norm, words)
				words = norm
			}
			var r region
			if p := src.packing; p != nil {
				dc.Enc, dc.Width, dc.Min, dc.Exp = encFoR, p.Ints.Width, &p.Min, p.Exp
				if p.Exp > 0 {
					dc.Enc = encFoR10
				}
				r, err = sw.packValsStream(src.stream, rows, p, words)
			} else {
				r, err = sw.copyStream(src.stream, int64(rows)*8)
			}
			src.stream.Close()
			if err != nil {
				return nil, fmt.Errorf("colstore: column %d values: %w", pos, err)
			}
			dc.Vals = &r
			if err := sw.padTo(8); err != nil {
				return nil, err
			}
			missR, err := sw.writeUint64s(words)
			if err != nil {
				return nil, fmt.Errorf("colstore: column %d missing bitmap: %w", pos, err)
			}
			dc.Missing = &missR
			dataBytes += int64(r.Len) + int64(missR.Len)
		}
		dir.Columns = append(dir.Columns, dc)
	}

	if len(b.misfits) > 0 {
		blob, err := encodeMisfits(b.misfits)
		if err != nil {
			return nil, err
		}
		if err := sw.padTo(8); err != nil {
			return nil, err
		}
		r, err := sw.writeRegion(blob)
		if err != nil {
			return nil, err
		}
		dir.Misfits = &r
		dataBytes += int64(r.Len)
	}

	dirJSON, err := json.Marshal(&dir)
	if err != nil {
		return nil, fmt.Errorf("colstore: directory: %w", err)
	}
	if err := sw.padTo(8); err != nil {
		return nil, err
	}
	dirOff := sw.off
	if err := sw.writeRaw(dirJSON); err != nil {
		return nil, err
	}
	if err := sw.flush(); err != nil {
		return nil, err
	}

	h := header{
		version:  CurrentVersion,
		rows:     uint64(rows),
		cols:     uint32(schema.Arity()),
		dirOff:   dirOff,
		dirLen:   uint64(len(dirJSON)),
		dirCRC:   crc32.Checksum(dirJSON, castagnoli),
		fileSize: sw.off,
	}
	if _, err := sw.f.WriteAt(h.encode(), 0); err != nil {
		return nil, fmt.Errorf("colstore: header: %w", err)
	}
	return &BuildResult{Rows: rows, DataBytes: dataBytes, FileBytes: int64(sw.off)}, nil
}

// segWriter tracks the write offset and computes per-region CRCs.
type segWriter struct {
	f   *os.File
	w   *bufio.Writer
	off uint64
}

func newSegWriter(f *os.File) *segWriter {
	return &segWriter{f: f, w: bufio.NewWriterSize(f, 1<<20)}
}

func (sw *segWriter) writeRaw(b []byte) error {
	n, err := sw.w.Write(b)
	sw.off += uint64(n)
	return err
}

func (sw *segWriter) padTo(align uint64) error {
	if rem := sw.off % align; rem != 0 {
		return sw.writeRaw(make([]byte, align-rem))
	}
	return nil
}

// writeRegion writes b as one checksummed region.
func (sw *segWriter) writeRegion(b []byte) (region, error) {
	r := region{Off: sw.off, Len: uint64(len(b)), CRC: crc32.Checksum(b, castagnoli)}
	return r, sw.writeRaw(b)
}

// copyStream copies a spill file (already little-endian bytes) into the
// segment, checksumming on the way through a bounded buffer.
func (sw *segWriter) copyStream(f *os.File, wantLen int64) (region, error) {
	r := region{Off: sw.off}
	crc := crc32.New(castagnoli)
	buf := make([]byte, 1<<20)
	var n int64
	for {
		k, err := f.Read(buf)
		if k > 0 {
			crc.Write(buf[:k])
			if werr := sw.writeRaw(buf[:k]); werr != nil {
				return r, werr
			}
			n += int64(k)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return r, err
		}
	}
	if n != wantLen {
		return r, fmt.Errorf("spill holds %d bytes, want %d", n, wantLen)
	}
	r.Len = uint64(n)
	r.CRC = crc.Sum32()
	return r, nil
}

// regionPacker accumulates fixed-width lanes into no-straddle words and
// streams them out as one checksummed region through a bounded buffer —
// the write-side twin of dataset.PackedInts, shaped for the builder's
// spill-to-segment pass so packing never materializes a column.
type regionPacker struct {
	sw    *segWriter
	width uint
	lpw   int
	cur   uint64
	lane  int
	buf   []byte
	crc   hash.Hash32
	r     region
}

func (sw *segWriter) newRegionPacker(width int) *regionPacker {
	return &regionPacker{
		sw: sw, width: uint(width), lpw: 64 / width,
		buf: make([]byte, 0, 1<<20), crc: crc32.New(castagnoli),
		r: region{Off: sw.off},
	}
}

func (rp *regionPacker) add(lane uint64) error {
	rp.cur |= lane << (uint(rp.lane) * rp.width)
	rp.lane++
	if rp.lane == rp.lpw {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], rp.cur)
		rp.buf = append(rp.buf, b[:]...)
		rp.cur, rp.lane = 0, 0
		if len(rp.buf) >= 1<<20 {
			return rp.flushBuf()
		}
	}
	return nil
}

func (rp *regionPacker) flushBuf() error {
	if len(rp.buf) == 0 {
		return nil
	}
	rp.crc.Write(rp.buf)
	err := rp.sw.writeRaw(rp.buf)
	rp.r.Len += uint64(len(rp.buf))
	rp.buf = rp.buf[:0]
	return err
}

func (rp *regionPacker) finish() (region, error) {
	if rp.lane > 0 {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], rp.cur)
		rp.buf = append(rp.buf, b[:]...)
	}
	if err := rp.flushBuf(); err != nil {
		return rp.r, err
	}
	rp.r.CRC = rp.crc.Sum32()
	return rp.r, nil
}

// spillBatch is how many spill bytes the finish pass reads and decodes at
// a time.
const spillBatch = 1 << 20

// readSpill reads a spill of rows fixed-size little-endian cells in
// batches of up to spillBatch bytes and hands each batch to fn with the
// row of its first cell. The spill must hold exactly rows cells.
func readSpill(f *os.File, rows, cell int, fn func(b []byte, row int) error) error {
	buf := make([]byte, spillBatch)
	for row := 0; row < rows; {
		n := min(rows-row, spillBatch/cell)
		b := buf[:n*cell]
		if _, err := io.ReadFull(f, b); err != nil {
			return err
		}
		if err := fn(b, row); err != nil {
			return err
		}
		row += n
	}
	if _, err := f.Read(buf[:1]); err != io.EOF {
		return fmt.Errorf("holds more than %d rows", rows)
	}
	return nil
}

// packCodesStream bitpacks a categorical spill (raw LE int32 codes) into
// a segment region at the given lane width.
func (sw *segWriter) packCodesStream(f *os.File, rows, width int) (region, error) {
	rp := sw.newRegionPacker(width)
	err := readSpill(f, rows, 4, func(b []byte, _ int) error {
		for i := 0; i < len(b); i += 4 {
			code := int32(binary.LittleEndian.Uint32(b[i:]))
			if err := rp.add(uint64(int64(code) + dataset.PackedCodeBias)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return rp.r, fmt.Errorf("codes spill: %w", err)
	}
	return rp.finish()
}

// packValsStream frame-of-reference packs a continuous spill (raw LE
// float64s) into the given frame; rows whose missing bit is set pack as
// lane 0. A value the frame cannot give back bit for bit fails the build
// rather than be written as a neighbour.
func (sw *segWriter) packValsStream(f *os.File, rows int, frame *dataset.PackedFloats, missing []uint64) (region, error) {
	rp := sw.newRegionPacker(frame.Ints.Width)
	err := readSpill(f, rows, 8, func(b []byte, row int) error {
		for i := row; len(b) > 0; i, b = i+1, b[8:] {
			lane := uint64(0)
			if missing[i>>6]&(1<<(uint(i)&63)) == 0 {
				v := math.Float64frombits(binary.LittleEndian.Uint64(b))
				var ok bool
				if lane, ok = frame.LaneOf(v); !ok {
					return fmt.Errorf("row %d: %v does not round-trip through base %v, exponent %d, width %d",
						i, v, frame.Min, frame.Exp, frame.Ints.Width)
				}
			}
			if err := rp.add(lane); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return rp.r, fmt.Errorf("values spill: %w", err)
	}
	return rp.finish()
}

// writeUint64s writes v as one little-endian region: the slice's own
// bytes on LE hosts, an encoded copy elsewhere.
func (sw *segWriter) writeUint64s(v []uint64) (region, error) {
	if hostLittleEndian {
		return sw.writeRegion(bytesOfUint64s(v))
	}
	b := make([]byte, len(v)*8)
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[i*8:], x)
	}
	return sw.writeRegion(b)
}

func (sw *segWriter) flush() error { return sw.w.Flush() }
