package colstore

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/durable"
)

// Builder streams rows into a segment file with bounded memory: the big
// per-row regions (codes, values) spill to temp files next to the output
// as they arrive, while only the small state — dictionaries, missing
// bitmaps (1 bit per row), each continuous column's frame-of-reference
// decision and the rare misfit cells — stays in memory. A continuous
// column spills integers: each block's values at the column's decimal
// exponent of the moment, as the ingest folded them from the parsed
// digits, or float64 bits once the column has gone raw. Finish plans the
// whole layout first — every region's length follows from the row count,
// the lane widths, the dictionaries and the bitmaps — then packs the
// columns on GOMAXPROCS workers, each writing its regions at their planned
// offsets, and fsyncs the file; a 10M-row ingest never materializes a
// table.
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
	floats  []float64      // one raw block column's values
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

	// Continuous state: the missing bitmap words, the frame-of-reference
	// decision merged from the blocks' frames in chunk order, and the
	// spill's runs.
	missing []uint64
	frame   dataset.FoRFrame
	runs    []spillRun
}

// spillRun is a stretch of consecutive rows of a continuous spill in one
// form: integers at decimal exponent exp (the values times 10^exp, 0 where
// missing), or float64 bits when exp is rawRun. The column's exponent only
// rises and a raw column stays raw, so a spill has at most
// MaxDecimalExp+2 runs.
type spillRun struct {
	rows, exp int
}

const rawRun = -1

func (c *colBuilder) addRun(exp, rows int) {
	if n := len(c.runs); n > 0 && c.runs[n-1].exp == exp {
		c.runs[n-1].rows += rows
		return
	}
	c.runs = append(c.runs, spillRun{rows: rows, exp: exp})
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
		bc.Missing = append(bc.Missing, 0)
		if n, ok := v.AsNum(); ok {
			bc.AppendValue(n)
			continue
		}
		if !v.IsNull() {
			b.misfits = append(b.misfits, dataset.MisfitCell{Row: b.rows, Pos: pos, Value: v})
		}
		bc.AppendMissing(0)
	}
	return b.appendBlock(one)
}

// appendBlock writes a block's rows to the spills: each block-local
// dictionary maps onto the column's in order (so codes are the ones
// row-at-a-time appends give), and each block's frame merges into the
// column's (the same decision a value-by-value fold reaches; see
// dataset.FoRFrame). While the column packs, the block's scaled integers
// spill at the column's exponent; once it is raw, the float64 bits.
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
			c.frame.Merge(&bc.Frame)
			exp, packed := c.frame.Exp()
			if packed {
				bexp, _ := bc.Frame.Exp()
				mul := dataset.DecimalScale(exp - bexp)
				for _, n := range bc.Scaled {
					out = binary.LittleEndian.AppendUint64(out, uint64(n*mul))
				}
			} else {
				exp = rawRun
				b.floats = bc.AppendFloats(b.floats[:0])
				for _, v := range b.floats {
					out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
				}
			}
			c.addRun(exp, blk.Rows)
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
	// Ingest is how long BuildCSV spent parsing the CSV into the spills,
	// and Pack how long Finish took: planning, packing and the fsync.
	Ingest, Pack time.Duration
}

// Finish assembles the segment from the spills, fsyncs it and removes the
// spill directory. The builder is spent afterwards.
func (b *Builder) Finish() (*BuildResult, error) {
	if b.err != nil {
		b.Abort()
		return nil, b.err
	}
	defer b.Abort() // releases spills; the output only on failure
	start := time.Now()
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
		res, err = b.writeSegment(out)
		return err
	})
	if err != nil {
		return nil, b.fail(err)
	}
	b.err = fmt.Errorf("colstore: builder already finished")
	res.Pack = time.Since(start)
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
	start := time.Now()
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
	ingest := time.Since(start)
	res, err := b.Finish()
	if err != nil {
		return nil, err
	}
	res.FallbackRecords = st.FallbackRecords
	res.Ingest = ingest
	return res, nil
}

// colJob is one column's share of Finish: its directory entry, whose
// regions the plan has placed, and what packs them.
type colJob struct {
	pos     int
	dc      *dirColumn
	dict    []byte   // categorical: the encoded dictionary
	missing []uint64 // continuous: the bitmap, ⌈rows/64⌉ words
	frame   *dataset.PackedFloats
	runs    []spillRun
}

// writeSegment writes format v2 and nothing else: categorical codes
// bitpack, continuous columns of short decimals frame-of-reference pack
// ("for" at exponent 0, "for10" above), the rest stay raw float64 (marked
// in the directory). It lays the file out first — header, page-aligned
// column regions, misfit blob, directory — packs the columns in parallel
// at their planned offsets, then writes the misfit blob, the directory
// and the header.
func (b *Builder) writeSegment(f *os.File) (*BuildResult, error) {
	schemaJSON, err := json.Marshal(b.schema)
	if err != nil {
		return nil, fmt.Errorf("colstore: schema: %w", err)
	}
	dir := directory{Rows: b.rows, Schema: schemaJSON}
	jobs, off := b.plan(&dir)
	if err := b.packColumns(f, jobs); err != nil {
		return nil, err
	}
	var dataBytes int64
	for _, dc := range dir.Columns {
		for _, r := range []*region{dc.Codes, dc.Dict, dc.Vals, dc.Missing} {
			if r != nil {
				dataBytes += int64(r.Len)
			}
		}
	}

	if len(b.misfits) > 0 {
		blob, err := encodeMisfits(b.misfits)
		if err != nil {
			return nil, err
		}
		r := &region{Off: alignUp(off, 8), Len: uint64(len(blob))}
		if err := writeRegionAt(f, r, blob); err != nil {
			return nil, err
		}
		dir.Misfits = r
		dataBytes += int64(r.Len)
		off = r.Off + r.Len
	}

	dirJSON, err := json.Marshal(&dir)
	if err != nil {
		return nil, fmt.Errorf("colstore: directory: %w", err)
	}
	dirOff := alignUp(off, 8)
	if _, err := f.WriteAt(dirJSON, int64(dirOff)); err != nil {
		return nil, err
	}
	h := header{
		version:  CurrentVersion,
		rows:     uint64(b.rows),
		cols:     uint32(b.schema.Arity()),
		dirOff:   dirOff,
		dirLen:   uint64(len(dirJSON)),
		dirCRC:   crc32.Checksum(dirJSON, castagnoli),
		fileSize: dirOff + uint64(len(dirJSON)),
	}
	if _, err := f.WriteAt(h.encode(), 0); err != nil {
		return nil, fmt.Errorf("colstore: header: %w", err)
	}
	return &BuildResult{Rows: b.rows, DataBytes: dataBytes, FileBytes: int64(h.fileSize)}, nil
}

func alignUp(off, align uint64) uint64 { return (off + align - 1) / align * align }

// plan fills in the directory's column entries — encodings and every
// region's offset and length, the CRCs still to come — and returns the
// columns' jobs and the offset the column regions end at. Codes and packed
// values take PackedWordCount(rows, width)·8 bytes, raw values rows·8,
// dictionaries and missing bitmaps their bytes; each column starts on a
// page.
func (b *Builder) plan(dir *directory) ([]colJob, uint64) {
	rows := b.rows
	off := uint64(headerSize)
	place := func(align uint64, n int) *region {
		r := &region{Off: alignUp(off, align), Len: uint64(n)}
		off = r.Off + r.Len
		return r
	}
	dir.Columns = make([]dirColumn, len(b.cols))
	jobs := make([]colJob, len(b.cols))
	for pos, c := range b.cols {
		dc := &dir.Columns[pos]
		*dc = dirColumn{Name: b.schema.Attr(pos).Name, Kind: kindString(c.kind)}
		j := &jobs[pos]
		*j = colJob{pos: pos, dc: dc, runs: c.runs}
		if c.kind == dataset.Categorical {
			dc.Enc, dc.Width = encBitpack, dataset.PackedCodeWidth(len(c.dict))
			j.dict = encodeDict(c.dict)
			dc.Codes = place(pageAlign, dataset.PackedWordCount(rows, dc.Width)*8)
			dc.Dict = place(8, len(j.dict))
			continue
		}
		j.missing = c.missing
		if want := (rows + 63) >> 6; len(j.missing) != want {
			// A zero-row or short bitmap from the builder; normalize.
			j.missing = make([]uint64, want)
			copy(j.missing, c.missing)
		}
		valLen := rows * 8
		if p, ok := c.frame.Packing(); ok {
			j.frame = &p
			dc.Enc, dc.Width, dc.Min, dc.Exp = encFoR, p.Ints.Width, &p.Min, p.Exp
			if p.Exp > 0 {
				dc.Enc = encFoR10
			}
			valLen = dataset.PackedWordCount(rows, p.Ints.Width) * 8
		}
		dc.Vals = place(pageAlign, valLen)
		dc.Missing = place(8, len(j.missing)*8)
	}
	return jobs, off
}

// spillBatch bounds the bytes Finish holds in flight: the workers' spill
// buffers together take at most spillBatch, and so do their pack buffers.
const spillBatch = 1 << 20

// packColumns packs every column's regions at their planned offsets on
// GOMAXPROCS workers (at most one per column), each reusing one spill
// buffer and one pack buffer. A failing column stops the workers and
// fails the build.
func (b *Builder) packColumns(f *os.File, jobs []colJob) error {
	workers := min(runtime.GOMAXPROCS(0), len(jobs))
	size := max(spillBatch/max(workers, 1), 64<<10) &^ 7
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			p := &packer{f: f, spill: make([]byte, size), buf: make([]byte, 0, size)}
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				if errs[i] = b.packColumn(p, &jobs[i]); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// packColumn writes one column's regions and fills in their CRCs.
func (b *Builder) packColumn(p *packer, j *colJob) error {
	sf, err := os.Open(filepath.Join(b.spill, fmt.Sprintf("col%d", j.pos)))
	if err != nil {
		return fmt.Errorf("colstore: column %d: %w", j.pos, err)
	}
	defer sf.Close()
	dc := j.dc
	if dc.Codes != nil {
		if err := p.packCodes(sf, b.rows, dc); err != nil {
			return fmt.Errorf("colstore: column %d codes: %w", j.pos, err)
		}
		if err := writeRegionAt(p.f, dc.Dict, j.dict); err != nil {
			return fmt.Errorf("colstore: column %d dictionary: %w", j.pos, err)
		}
		return nil
	}
	if err := p.packVals(sf, b.rows, j); err != nil {
		return fmt.Errorf("colstore: column %d values: %w", j.pos, err)
	}
	words := bytesOfUint64s(j.missing)
	if !hostLittleEndian {
		words = make([]byte, len(j.missing)*8)
		for i, x := range j.missing {
			binary.LittleEndian.PutUint64(words[i*8:], x)
		}
	}
	if err := writeRegionAt(p.f, dc.Missing, words); err != nil {
		return fmt.Errorf("colstore: column %d missing bitmap: %w", j.pos, err)
	}
	return nil
}

// writeRegionAt writes data as region r, whose length the plan fixed, and
// sets its CRC.
func writeRegionAt(f *os.File, r *region, data []byte) error {
	if uint64(len(data)) != r.Len {
		return fmt.Errorf("colstore: region of %d bytes, planned %d", len(data), r.Len)
	}
	r.CRC = crc32.Checksum(data, castagnoli)
	_, err := f.WriteAt(data, int64(r.Off))
	return err
}

// packer writes one region at a time at its planned place through a
// reused buffer, checksumming on the way: lanes packed into no-straddle
// words at a fixed width (the write-side twin of dataset.PackedInts), or
// whole words, or bytes. A region that would run past its planned length,
// or ends short of it, fails.
type packer struct {
	f     *os.File
	spill []byte // the worker's spill read buffer
	buf   []byte // the worker's pack buffer; cap a multiple of 8
	r     *region
	off   uint64 // where buf's first byte goes
	crc   uint32
	err   error // sticky for the region

	width uint
	lpw   int
	cur   uint64
	lane  int
}

func (p *packer) begin(r *region, width int) {
	p.r, p.off, p.crc, p.err = r, r.Off, 0, nil
	p.width, p.lpw, p.cur, p.lane = uint(width), 64/width, 0, 0
	p.buf = p.buf[:0]
}

func (p *packer) add(lane uint64) {
	p.cur |= lane << (uint(p.lane) * p.width)
	if p.lane++; p.lane == p.lpw {
		p.word(p.cur)
		p.cur, p.lane = 0, 0
	}
}

func (p *packer) word(x uint64) {
	p.buf = binary.LittleEndian.AppendUint64(p.buf, x)
	if len(p.buf) == cap(p.buf) {
		p.flush()
	}
}

func (p *packer) write(b []byte) {
	for len(b) > 0 {
		n := copy(p.buf[len(p.buf):cap(p.buf)], b)
		p.buf, b = p.buf[:len(p.buf)+n], b[n:]
		if len(p.buf) == cap(p.buf) {
			p.flush()
		}
	}
}

func (p *packer) flush() {
	if p.err == nil && len(p.buf) > 0 {
		end := p.off + uint64(len(p.buf))
		if end > p.r.Off+p.r.Len {
			p.err = fmt.Errorf("packs past its planned %d bytes", p.r.Len)
		} else if _, err := p.f.WriteAt(p.buf, int64(p.off)); err != nil {
			p.err = err
		} else {
			p.crc = crc32.Update(p.crc, castagnoli, p.buf)
			p.off = end
		}
	}
	p.buf = p.buf[:0]
}

// finish writes out the last partial word and sets the region's CRC.
func (p *packer) finish() error {
	if p.lane > 0 {
		p.word(p.cur)
	}
	p.flush()
	if p.err == nil && p.off != p.r.Off+p.r.Len {
		p.err = fmt.Errorf("packs %d bytes, planned %d", p.off-p.r.Off, p.r.Len)
	}
	p.r.CRC = p.crc
	return p.err
}

// readSpill reads a spill of rows fixed-size little-endian cells into the
// packer's spill buffer, a batch at a time, and hands each batch to fn
// with the row of its first cell. The spill must hold exactly rows cells.
func (p *packer) readSpill(f *os.File, rows, cell int, fn func(b []byte, row int)) error {
	for row := 0; row < rows; {
		n := min(rows-row, len(p.spill)/cell)
		b := p.spill[:n*cell]
		if _, err := io.ReadFull(f, b); err != nil {
			return fmt.Errorf("spill of %d rows: %w", rows, err)
		}
		fn(b, row)
		if p.err != nil {
			return p.err
		}
		row += n
	}
	if _, err := f.Read(p.spill[:1]); err != io.EOF {
		return fmt.Errorf("spill holds more than %d rows", rows)
	}
	return nil
}

// packCodes bitpacks a categorical spill (LE int32 codes) into dc.Codes.
func (p *packer) packCodes(f *os.File, rows int, dc *dirColumn) error {
	p.begin(dc.Codes, dc.Width)
	err := p.readSpill(f, rows, 4, func(b []byte, _ int) {
		for i := 0; i < len(b); i += 4 {
			code := int32(binary.LittleEndian.Uint32(b[i:]))
			p.add(uint64(int64(code) + dataset.PackedCodeBias))
		}
	})
	if err != nil {
		return err
	}
	return p.finish()
}

// packVals writes a continuous spill into dc.Vals. A packed column's lane
// is its scaled integer moved up to the frame's exponent less the base —
// integer arithmetic only; rows whose missing bit is set pack as lane 0,
// and a lane outside the frame's width fails the build rather than be
// written as a neighbour. A raw column copies float64 bits and turns its
// integer runs back into the float64s they stand for, bit for bit: each
// is n/10^exp at an exponent where the value round-trips.
func (p *packer) packVals(f *os.File, rows int, j *colJob) error {
	fr := j.frame
	width := 64
	if fr != nil {
		width = fr.Ints.Width
	}
	p.begin(j.dc.Vals, width)
	ri, left := 0, 0
	err := p.readSpill(f, rows, 8, func(b []byte, row int) {
		for len(b) > 0 && p.err == nil {
			for left == 0 {
				left = j.runs[ri].rows
				ri++
			}
			exp := j.runs[ri-1].exp
			n := min(left, len(b)/8)
			switch {
			case fr != nil:
				p.lanes(b[:n*8], row, fr, exp, j.missing)
			case exp == rawRun:
				p.write(b[:n*8])
			default:
				div := float64(dataset.DecimalScale(exp))
				for i := 0; i < n*8; i += 8 {
					p.word(math.Float64bits(float64(int64(binary.LittleEndian.Uint64(b[i:]))) / div))
				}
			}
			b, row, left = b[n*8:], row+n, left-n
		}
	})
	if err != nil {
		return err
	}
	return p.finish()
}

// lanes packs a run's scaled integers at exponent exp, the first at row.
func (p *packer) lanes(b []byte, row int, fr *dataset.PackedFloats, exp int, missing []uint64) {
	mul, base := dataset.DecimalScale(fr.Exp-exp), int64(fr.Min)
	maxLane := uint64(1)<<uint(fr.Ints.Width) - 1
	for i := 0; i < len(b); i, row = i+8, row+1 {
		lane := uint64(0)
		if missing[row>>6]&(1<<(uint(row)&63)) == 0 {
			n := int64(binary.LittleEndian.Uint64(b[i:]))
			if lane = uint64(n*mul - base); lane > maxLane {
				p.err = fmt.Errorf("row %d: %d at exponent %d is outside base %d, exponent %d, width %d",
					row, n, exp, base, fr.Exp, fr.Ints.Width)
				return
			}
		}
		p.add(lane)
	}
}
