package colstore

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/durable"
)

// Builder streams rows into a segment file with bounded memory. The
// columns are encoded by dataset's one column encoder, as every table's
// are: the big per-row regions — the encoder's cells, a categorical row's
// biased lane and a continuous row's scaled integer or float64 bits —
// spill to temp files next to the output as they arrive, while only the
// small state — dictionaries, missing bitmaps (1 bit per row), each
// continuous column's frame-of-reference decision and the rare misfit
// cells — stays in memory. Finish plans the whole layout first — every
// region's length follows from the row count, the lane widths, the
// dictionaries and the bitmaps — then packs the spills on GOMAXPROCS
// workers through the encoders' packers, each writing its regions at
// their planned offsets, and fsyncs the file; a 10M-row ingest never
// materializes a table.
//
// The builder writes directly at the given path and the file is complete
// only after Finish returns nil; callers wanting atomicity build inside a
// temp directory (the store's dataset transaction) or write to a temp
// name and rename.
type Builder struct {
	schema  *dataset.Schema
	path    string
	spill   string // temp dir holding per-column spill files
	rows    int    // rows in the spills
	cols    []*colBuilder
	misfits []dataset.MisfitCell
	err     error // first failure; poisons Append and Finish

	pending *dataset.Block // appended rows not yet spilled
	scratch []byte         // one block column's spill bytes
	lanes   []uint32       // one categorical block column's cells
	cells   []uint64       // one continuous block column's cells
}

type colBuilder struct {
	kind dataset.AttrKind
	f    *os.File
	w    *bufio.Writer
	enc  *dataset.ColumnEncoder
}

// NewBuilder opens a builder that will write the segment at path. The
// spill directory is created next to the output so the final copy stays
// on one filesystem.
func NewBuilder(path string, schema *dataset.Schema) (*Builder, error) {
	spill, err := os.MkdirTemp(filepath.Dir(path), ".colstore-spill-")
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrIO, err)
	}
	b := &Builder{schema: schema, path: path, spill: spill, pending: dataset.NewBlock(schema)}
	for pos := 0; pos < schema.Arity(); pos++ {
		a := schema.Attr(pos)
		f, err := os.OpenFile(filepath.Join(spill, fmt.Sprintf("col%d", pos)), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if err != nil {
			b.Abort()
			return nil, fmt.Errorf("%w: %v", ErrIO, err)
		}
		b.cols = append(b.cols, &colBuilder{kind: a.Kind, f: f, w: bufio.NewWriterSize(f, 1<<16), enc: dataset.NewColumnEncoder(a)})
	}
	return b, nil
}

// Append adds one row. The tuple may be reused by the caller after the
// call returns. Rows gather in the same row block as dataset.Table.Append's,
// misfit cells included, so a segment built from the same rows reopens as
// the table those appends seal to; a full block goes through the same
// block writer as a CSV ingest.
func (b *Builder) Append(row dataset.Tuple) error {
	if b.err != nil {
		return b.err
	}
	if len(row) != b.schema.Arity() {
		return fmt.Errorf("colstore: tuple arity %d, schema arity %d", len(row), b.schema.Arity())
	}
	if b.pending.AddRow(row, b.addMisfit) {
		return b.flush()
	}
	return nil
}

// addMisfit records a kind-mismatched cell of the row being appended.
func (b *Builder) addMisfit(pos int, v dataset.Value) {
	b.misfits = append(b.misfits, dataset.MisfitCell{Row: b.Rows(), Pos: pos, Value: v})
}

// flush spills the appended rows the pending block holds.
func (b *Builder) flush() error {
	if b.pending.Rows == 0 {
		return nil
	}
	err := b.appendBlock(b.pending)
	b.pending.Reset()
	return err
}

// appendBlock encodes a block's rows and spills their cells.
func (b *Builder) appendBlock(blk *dataset.Block) error {
	if b.err != nil {
		return b.err
	}
	for pos, c := range b.cols {
		bc := &blk.Cols[pos]
		out := b.scratch[:0]
		if c.kind == dataset.Categorical {
			b.lanes = c.enc.AppendLanes(b.lanes[:0], bc)
			for _, l := range b.lanes {
				out = binary.LittleEndian.AppendUint32(out, l)
			}
		} else {
			b.cells = c.enc.AppendCells(b.cells[:0], bc, blk.Rows)
			for _, x := range b.cells {
				out = binary.LittleEndian.AppendUint64(out, x)
			}
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
func (b *Builder) Rows() int { return b.rows + b.pending.Rows }

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
	b.flush()
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
	pk      *dataset.ColumnPacker
	dict    []byte   // categorical: the encoded dictionary
	missing []uint64 // continuous: the bitmap, ⌈rows/64⌉ words
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
		*j = colJob{pos: pos, dc: dc, pk: c.enc.Packer()}
		if c.kind == dataset.Categorical {
			dc.Enc, dc.Width = encBitpack, j.pk.Width()
			j.dict = encodeDict(c.enc.Dict())
			dc.Codes = place(pageAlign, dataset.PackedWordCount(rows, dc.Width)*8)
			dc.Dict = place(8, len(j.dict))
			continue
		}
		j.missing = c.enc.Missing()
		valLen := rows * 8
		if p := j.pk.Frame(); p != nil {
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
// buffers together take at most spillBatch, and so do their packed words.
const spillBatch = 1 << 20

// packColumns packs every column's regions at their planned offsets on
// GOMAXPROCS workers (at most one per column), each reusing one spill
// buffer and one word buffer. A failing column stops the workers and
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
			p := &packer{f: f, spill: make([]byte, size), words: make([]uint64, 0, size/8)}
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

// packColumn writes one column's regions and fills in their CRCs: the
// spill's cells go through the column's packer batch by batch.
func (b *Builder) packColumn(p *packer, j *colJob) error {
	sf, err := os.Open(filepath.Join(b.spill, fmt.Sprintf("col%d", j.pos)))
	if err != nil {
		return fmt.Errorf("colstore: column %d: %w", j.pos, err)
	}
	defer sf.Close()
	dc := j.dc
	what, region, cell := "values", dc.Vals, 8
	pack := func(c []byte) ([]uint64, error) { return j.pk.Cells(p.words[:0], viewUint64s(c)) }
	if dc.Codes != nil {
		what, region, cell = "codes", dc.Codes, 4
		pack = func(c []byte) ([]uint64, error) { return j.pk.Lanes(p.words[:0], viewUint32s(c)), nil }
	}
	p.begin(region)
	err = p.readSpill(sf, b.rows, cell, func(c []byte) (err error) {
		p.words, err = pack(c)
		p.write(p.words)
		return err
	})
	if err == nil {
		p.write(j.pk.Flush(p.words[:0]))
		err = p.finish()
	}
	if err != nil {
		return fmt.Errorf("colstore: column %d %s: %w", j.pos, what, err)
	}
	if dc.Codes != nil {
		what, err = "dictionary", writeRegionAt(p.f, dc.Dict, j.dict)
	} else {
		what, err = "missing bitmap", writeRegionAt(p.f, dc.Missing, bytesOfWords(j.missing, nil))
	}
	if err != nil {
		return fmt.Errorf("colstore: column %d %s: %w", j.pos, what, err)
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

// bytesOfWords returns the little-endian bytes of words: a view on a
// little-endian host, encoded into buf's storage elsewhere.
func bytesOfWords(words []uint64, buf []byte) []byte {
	if hostLittleEndian {
		return bytesOfUint64s(words)
	}
	buf = buf[:0]
	for _, x := range words {
		buf = binary.LittleEndian.AppendUint64(buf, x)
	}
	return buf
}

// packer writes one region at a time at its planned place, checksumming
// on the way. A region that would run past its planned length, or ends
// short of it, fails.
type packer struct {
	f     *os.File
	spill []byte   // the worker's spill read buffer
	words []uint64 // the packed words of one spill batch
	bytes []byte   // their bytes, on a big-endian host
	r     *region
	off   uint64 // where the next byte goes
	crc   uint32
	err   error // sticky for the region
}

func (p *packer) begin(r *region) {
	p.r, p.off, p.crc, p.err = r, r.Off, 0, nil
}

// write writes packed words at the region's next offset.
func (p *packer) write(words []uint64) {
	if p.err != nil || len(words) == 0 {
		return
	}
	b := bytesOfWords(words, p.bytes)
	if !hostLittleEndian {
		p.bytes = b
	}
	end := p.off + uint64(len(b))
	if end > p.r.Off+p.r.Len {
		p.err = fmt.Errorf("packs past its planned %d bytes", p.r.Len)
	} else if _, err := p.f.WriteAt(b, int64(p.off)); err != nil {
		p.err = err
	} else {
		p.crc = crc32.Update(p.crc, castagnoli, b)
		p.off = end
	}
}

// finish sets the region's CRC; a region short of its plan fails.
func (p *packer) finish() error {
	if p.err == nil && p.off != p.r.Off+p.r.Len {
		p.err = fmt.Errorf("packs %d bytes, planned %d", p.off-p.r.Off, p.r.Len)
	}
	p.r.CRC = p.crc
	return p.err
}

// readSpill reads a spill of rows fixed-size little-endian cells into the
// packer's spill buffer, a batch at a time, and hands each batch to fn.
// The spill must hold exactly rows cells.
func (p *packer) readSpill(f *os.File, rows, cell int, fn func(b []byte) error) error {
	for row := 0; row < rows; {
		n := min(rows-row, len(p.spill)/cell)
		b := p.spill[:n*cell]
		if _, err := io.ReadFull(f, b); err != nil {
			return fmt.Errorf("spill of %d rows: %w", rows, err)
		}
		if err := fn(b); err != nil {
			return err
		}
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
