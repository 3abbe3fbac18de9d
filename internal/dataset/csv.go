package dataset

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"unsafe"
)

// This file is the one CSV ingest path: every table and segment built from
// CSV is parsed here, in column blocks on GOMAXPROCS workers.

// WriteCSV writes the table with a header row of attribute names. NULL
// cells are written as the empty string.
func WriteCSV(w io.Writer, t *Table) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Schema().Names()); err != nil {
		return fmt.Errorf("dataset: write header: %w", err)
	}
	rec := make([]string, t.Schema().Arity())
	for i := 0; i < t.Size(); i++ {
		row := t.Row(i)
		for j, v := range row {
			switch {
			case v.IsNull():
				rec[j] = ""
			default:
				rec[j] = v.String()
			}
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("dataset: write row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a table conforming to the schema from CSV with a header
// row. Columns are matched to attributes by header name; empty cells load
// as NULL; cells of continuous attributes must parse as floats. The
// records arrive as IngestCSV's column blocks, go through the column
// encoder block by block, and the table is returned sealed.
func ReadCSV(r io.Reader, schema *Schema) (*Table, error) {
	tab := NewTable(schema)
	if _, err := IngestCSV(r, schema, func(b *Block) error {
		tab.encode(b)
		tab.n += b.Rows
		return nil
	}); err != nil {
		return nil, err
	}
	tab.seal()
	return tab, nil
}

// Block is a run of consecutive records in columnar form — what one chunk
// of CSV input parses to, or what AddRow gathers of appended tuples.
// IngestCSV reuses a block and its slices once the sink it was handed to
// returns; a sink copies what it keeps.
type Block struct {
	Rows  int
	Lines []int         // physical (1-based) input line of each CSV record
	Cols  []BlockColumn // by schema position

	index []map[string]int32 // block-local dictionary index; nil for continuous
}

// BlockColumn is one attribute's cells within a block. A categorical
// column carries a block-local dictionary in first-appearance order and
// one code per row: an index into Dict, or a sentinel (-1 for an empty
// cell; -2 for a kind-mismatched cell, which only a programmatic append
// produces). A continuous column carries the missing bitmap (row i at
// word i/64, bit i%64), Frame — the frame-of-reference decision over the
// block's values, folded from the digits of those the parser read digit by
// digit — and its rows in one of two forms (0 where missing): while Frame
// is not raw, Scaled, each value times 10^exp at the frame's exponent,
// which the column encoder forms lanes from; once Frame is raw, Vals, one
// float64 per row. AppendFloats gives the float64s in either form.
type BlockColumn struct {
	Dict    []string
	Codes   []int32
	Vals    []float64
	Missing []uint64
	Frame   FoRFrame
	Scaled  []int64
}

// NewBlock returns an empty block shaped for the schema.
func NewBlock(schema *Schema) *Block {
	b := &Block{Cols: make([]BlockColumn, schema.Arity()), index: make([]map[string]int32, schema.Arity())}
	for pos := range b.index {
		if schema.Attr(pos).Kind == Categorical {
			b.index[pos] = make(map[string]int32)
		}
	}
	return b
}

// Reset empties the block and its dictionaries, keeping their storage.
func (b *Block) Reset() {
	b.Rows = 0
	b.Lines = b.Lines[:0]
	for i := range b.Cols {
		c := &b.Cols[i]
		c.Dict, c.Codes, c.Vals, c.Missing = c.Dict[:0], c.Codes[:0], c.Vals[:0], c.Missing[:0]
		c.Frame, c.Scaled = FoRFrame{}, c.Scaled[:0]
		clear(b.index[i])
	}
}

// beginRow gives row b.Rows its word in the continuous columns' missing
// bitmaps.
func (b *Block) beginRow() {
	if b.Rows&63 != 0 {
		return
	}
	for pos, idx := range b.index {
		if idx == nil {
			b.Cols[pos].Missing = append(b.Cols[pos].Missing, 0)
		}
	}
}

// code returns s's code in the block-local dictionary of the categorical
// column at pos, adding a copy of s (it may view a reused buffer).
func (b *Block) code(pos int, s string) int32 {
	code, ok := b.index[pos][s]
	if !ok {
		c := &b.Cols[pos]
		code = int32(len(c.Dict))
		s = strings.Clone(s)
		c.Dict = append(c.Dict, s)
		b.index[pos][s] = code
	}
	return code
}

// blockRows is how many appended rows AddRow gathers before the block is
// full, and how many records the encoding/csv arm of IngestCSV gathers per
// block.
const blockRows = 4096

// AddRow appends a tuple of the schema's arity — Table.Append and
// colstore.Builder.Append both gather rows this way — and reports whether
// the block is full. A cell whose Value kind does not match its attribute
// is stored as the misfit sentinel (categorical) or a missing bit
// (continuous) and handed to misfit, which keeps the Value.
func (b *Block) AddRow(row Tuple, misfit func(pos int, v Value)) bool {
	b.beginRow()
	for pos, v := range row {
		bc := &b.Cols[pos]
		if b.index[pos] != nil {
			code := nullCode
			if s, ok := v.AsStr(); ok {
				code = b.code(pos, s)
			} else if !v.IsNull() {
				code = misfitCode
				misfit(pos, v)
			}
			bc.Codes = append(bc.Codes, code)
			continue
		}
		if n, ok := v.AsNum(); ok {
			bc.AppendValue(n)
			continue
		}
		if !v.IsNull() {
			misfit(pos, v)
		}
		bc.AppendMissing(b.Rows)
	}
	b.Rows++
	return b.Rows == blockRows
}

// MissingAt reports whether row i of a continuous block column holds no
// number.
func (c *BlockColumn) MissingAt(i int) bool { return c.Missing[i>>6]&(1<<(uint(i)&63)) != 0 }

// AppendValue appends a number to a continuous column, folding it into the
// frame through scaledInt.
func (c *BlockColumn) AppendValue(v float64) {
	if old := c.Frame.exp; !c.Frame.raw && c.keepScaled(old, c.Frame.Add(v)) {
		return
	}
	c.Vals = append(c.Vals, v)
}

// AppendMissing appends row, which holds no number, to a continuous column
// whose Missing bitmap already has row's word.
func (c *BlockColumn) AppendMissing(row int) {
	c.Missing[row>>6] |= 1 << (uint(row) & 63)
	if c.Frame.raw {
		c.Vals = append(c.Vals, 0)
	} else {
		c.Scaled = append(c.Scaled, 0)
	}
}

// appendNumber parses a continuous cell onto the column. A plain decimal
// folds into the frame from its digits and becomes a float64 only once the
// frame is raw; −0 and whatever strconv reads go through scaledInt.
func (c *BlockColumn) appendNumber(s string) error {
	m, frac, neg, ok := parseDecimal(s)
	if !ok || m == 0 && neg {
		v, err := parseFloat(s)
		if err != nil {
			return err
		}
		c.AppendValue(v)
		return nil
	}
	if old := c.Frame.exp; !c.Frame.raw && c.keepScaled(old, c.Frame.addDigits(m, frac, neg)) {
		return nil
	}
	c.Vals = append(c.Vals, decimalFloat(m, frac, neg))
	return nil
}

// keepScaled appends a row's scaled integer as the frame's fold returned
// it, old being the frame's exponent before that fold: the rows before
// move up with a raised exponent. When the fold sent the frame raw it
// keeps nothing and reports false, having turned the rows before into
// float64s for the caller to append the row's own to.
func (c *BlockColumn) keepScaled(old int, n int64) bool {
	if c.Frame.raw {
		c.Vals = appendScaledFloats(c.Vals[:0], c.Scaled, old)
		c.Scaled = c.Scaled[:0]
		return false
	}
	if d := c.Frame.exp - old; d > 0 {
		p := pow10i[d]
		for i := range c.Scaled {
			c.Scaled[i] *= p
		}
	}
	c.Scaled = append(c.Scaled, n)
	return true
}

// AppendFloats appends the continuous column's rows to dst as float64s (0
// where missing). A scaled integer gives back its value bit for bit: n is
// v·10^exp at an exponent where v round-trips.
func (c *BlockColumn) AppendFloats(dst []float64) []float64 {
	if c.Frame.raw {
		return append(dst, c.Vals...)
	}
	return appendScaledFloats(dst, c.Scaled, c.Frame.exp)
}

func appendScaledFloats(dst []float64, scaled []int64, exp int) []float64 {
	p := pow10[exp]
	for _, n := range scaled {
		dst = append(dst, float64(n)/p)
	}
	return dst
}

// AppendBits appends the first m bits of src to the n-bit bitmap words
// (len(words) == ⌈n/64⌉, unused tail bits zero) and returns the words of
// the n+m-bit bitmap, tail bits zero again.
func AppendBits(words []uint64, n int, src []uint64, m int) []uint64 {
	if m == 0 {
		return words
	}
	src = src[:(m+63)>>6]
	shift := uint(n) & 63
	if shift == 0 {
		words = append(words, src...)
	} else {
		for _, w := range src {
			words[len(words)-1] |= w << shift
			words = append(words, w>>(64-shift))
		}
		words = words[:(n+m+63)>>6]
	}
	if r := uint(n+m) & 63; r != 0 {
		words[len(words)-1] &= 1<<r - 1
	}
	return words
}

// IngestStats counts what IngestCSV parsed.
type IngestStats struct {
	Records int
	// FallbackRecords is how many of Records encoding/csv parsed: every
	// record from the first chunk holding a quote or a carriage return on.
	FallbackRecords int
}

// chunkSize is the size IngestCSV cuts its input into (at line ends).
// Small enough that GOMAXPROCS+1 chunks in flight stay a few MB; tests
// shrink it so small inputs cross many chunk boundaries.
var chunkSize = 256 << 10

// IngestCSV parses CSV with a header row (columns matched to attributes by
// name, each column at most once; empty cells NULL; continuous cells
// parsed as floats) and hands the records to sink as column blocks, in
// input order, on the calling goroutine.
//
// The input is cut into chunks at line ends. GOMAXPROCS workers split
// quote-free chunks with a plain field scanner; the first chunk that holds
// a '"' or a '\r' hands the rest of the stream to encoding/csv (with the
// header's field count pinned), which fills the same blocks and is counted
// in IngestStats.FallbackRecords. At most GOMAXPROCS+1 chunks are in
// flight. Errors name the physical input line of the offending record; a
// sink error stops the ingest and is returned as is.
func IngestCSV(r io.Reader, schema *Schema, sink func(*Block) error) (IngestStats, error) {
	in := &ingest{schema: schema, sink: sink, cr: chunkReader{r: r, line: 1}}
	err := in.run()
	return in.stats, err
}

// ingest is one IngestCSV call's state.
type ingest struct {
	schema *Schema
	sink   func(*Block) error
	cr     chunkReader
	stats  IngestStats

	colToAttr []int // header column -> schema position
	absent    []int // schema positions no header column names
}

// run finds the header (the first non-blank line) and hands the records
// after it to the worker pipeline, or everything from a chunk that needs
// encoding/csv on to the fallback.
func (in *ingest) run() error {
	buf := make([]byte, 0, chunkSize)
	for {
		chunk, line, err := in.cr.fill(buf)
		if err != nil {
			return err
		}
		buf = chunk
		if len(chunk) == 0 {
			return fmt.Errorf("dataset: read header: %w", io.EOF)
		}
		if needsCSV(chunk) {
			return in.fallback(in.cr.rest(chunk), line-1, true)
		}
		for len(chunk) > 0 && chunk[0] == '\n' {
			chunk, line = chunk[1:], line+1
		}
		if len(chunk) == 0 {
			continue // blank lines only; the header is further on
		}
		hdr := chunk
		if i := bytes.IndexByte(chunk, '\n'); i >= 0 {
			hdr, chunk = chunk[:i], chunk[i+1:]
		} else {
			chunk = nil
		}
		if err := in.mapHeader(splitFields(nil, hdr)); err != nil {
			return err
		}
		return in.pipeline(buf, chunk, line+1)
	}
}

// mapHeader binds each header column to its attribute, refusing a name
// the schema lacks or one that appears twice. It keeps no name.
func (in *ingest) mapHeader(names []string) error {
	in.colToAttr = make([]int, len(names))
	seen := make([]bool, in.schema.Arity())
	for c, name := range names {
		idx, ok := in.schema.Lookup(name)
		if !ok {
			return fmt.Errorf("dataset: CSV column %q not in schema", name)
		}
		if seen[idx] {
			return fmt.Errorf("dataset: CSV column %q appears twice in the header", name)
		}
		seen[idx] = true
		in.colToAttr[c] = idx
	}
	for pos, s := range seen {
		if !s {
			in.absent = append(in.absent, pos)
		}
	}
	return nil
}

// slot is one chunk in flight: its buffer, the block it parses to, and the
// parse outcome. A slot returns to the free list once the sink is done
// with its block.
type slot struct {
	buf   []byte
	chunk []byte // the quote-free records to parse (a prefix of buf)
	line  int    // physical line of chunk's first byte
	blk   *Block
	err   error         // the chunk's first bad record
	ready chan struct{} // signalled once blk and err are set

	// Instead of a chunk, a slot may carry where the chunks end: the rest
	// of the stream for encoding/csv, or the read error that cut it short.
	rest    io.Reader
	readErr error
}

// pipeline runs the chunk reader and the workers and feeds the blocks to
// the sink in input order. first is the header chunk's buffer (reused as
// the first slot's) and chunk the records after the header in it.
func (in *ingest) pipeline(first, chunk []byte, line int) error {
	workers := runtime.GOMAXPROCS(0)
	// workers+1 slots: one per worker plus the one the sink holds. Every
	// queue is sized to hold them all, so no send on it blocks.
	free := make(chan *slot, workers+1)
	work := make(chan *slot, workers+1)
	order := make(chan *slot, workers+1)
	stop := make(chan struct{})
	for i := 0; i <= workers; i++ {
		s := &slot{blk: NewBlock(in.schema), ready: make(chan struct{}, 1)}
		if i == 0 {
			s.buf = first
		}
		free <- s
	}

	var wg sync.WaitGroup
	wg.Add(workers + 1)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			p := &chunkParser{in: in}
			for s := range work {
				s.err = p.parse(s.chunk, s.line, s.blk)
				s.ready <- struct{}{}
			}
		}()
	}
	go func() {
		defer wg.Done()
		defer close(work)
		defer close(order)
		s := <-free
		s.chunk, s.line = chunk, line
		for {
			order <- s
			if s.rest != nil || s.readErr != nil {
				return
			}
			work <- s
			select {
			case s = <-free:
			case <-stop:
				return
			}
			c, l, err := in.cr.fill(s.buf)
			switch {
			case err != nil:
				s.readErr = err
			case len(c) == 0:
				return
			case needsCSV(c):
				s.rest, s.line = in.cr.rest(c), l
			default:
				s.buf, s.chunk, s.line = c, c, l
			}
		}
	}()

	err := in.consume(order, free)
	close(stop)
	for range order {
	}
	wg.Wait()
	return err
}

// consume hands each slot's block to the sink in order.
func (in *ingest) consume(order <-chan *slot, free chan<- *slot) error {
	for s := range order {
		if s.rest != nil {
			return in.fallback(s.rest, s.line-1, false)
		}
		if s.readErr != nil {
			return s.readErr
		}
		<-s.ready
		if s.err != nil {
			return s.err
		}
		if s.blk.Rows > 0 {
			if err := in.sink(s.blk); err != nil {
				return err
			}
			in.stats.Records += s.blk.Rows
		}
		free <- s
	}
	return nil
}

// needsCSV reports whether a chunk holds what the field scanner does not
// handle: quoting or carriage returns.
func needsCSV(chunk []byte) bool {
	return bytes.IndexByte(chunk, '"') >= 0 || bytes.IndexByte(chunk, '\r') >= 0
}

// fallback parses the rest of the stream with encoding/csv into the same
// blocks. lineOff is the number of input lines before r's first byte;
// header says whether r starts with the header row.
func (in *ingest) fallback(r io.Reader, lineOff int, header bool) error {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	if header {
		rec, err := cr.Read()
		if err != nil {
			return fmt.Errorf("dataset: read header: %w", shiftLines(err, lineOff))
		}
		if err := in.mapHeader(rec); err != nil {
			return err
		}
	} else {
		cr.FieldsPerRecord = len(in.colToAttr)
	}
	p := &chunkParser{in: in}
	blk := NewBlock(in.schema)
	flush := func() error {
		if blk.Rows == 0 {
			return nil
		}
		if err := in.sink(blk); err != nil {
			return err
		}
		in.stats.Records += blk.Rows
		in.stats.FallbackRecords += blk.Rows
		blk.Reset()
		return nil
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return flush()
		}
		if err != nil {
			return fmt.Errorf("dataset: %w", shiftLines(err, lineOff))
		}
		line, _ := cr.FieldPos(0)
		if err := p.record(blk, line+lineOff, rec); err != nil {
			return err
		}
		if blk.Rows == blockRows {
			if err := flush(); err != nil {
				return err
			}
		}
	}
}

// shiftLines moves an encoding/csv parse error's line numbers from the
// reader's count to the input's.
func shiftLines(err error, off int) error {
	var pe *csv.ParseError
	if off != 0 && errors.As(err, &pe) {
		shifted := *pe
		shifted.StartLine += off
		shifted.Line += off
		return &shifted
	}
	return err
}

// chunkReader cuts the input into chunks of about chunkSize bytes, each
// ending at a line end (or at the end of the input).
type chunkReader struct {
	r     io.Reader
	carry []byte // bytes read past the last cut
	line  int    // physical line of the next chunk's first byte
	eof   bool
}

// fill reads the next chunk into buf's storage and returns it with its
// first line; an empty chunk means the input is exhausted. A line longer
// than chunkSize makes its chunk longer.
func (c *chunkReader) fill(buf []byte) ([]byte, int, error) {
	buf = append(buf[:0], c.carry...)
	c.carry = c.carry[:0]
	want := chunkSize
	cut := 0
	for {
		for len(buf) < want && !c.eof {
			if cap(buf) < want {
				buf = append(make([]byte, 0, want), buf...)
			}
			n, err := c.r.Read(buf[len(buf):want])
			buf = buf[:len(buf)+n]
			if err == io.EOF {
				c.eof = true
			} else if err != nil {
				return nil, 0, fmt.Errorf("dataset: read: %w", err)
			}
		}
		if c.eof {
			cut = len(buf)
			break
		}
		if i := bytes.LastIndexByte(buf, '\n'); i >= 0 {
			cut = i + 1
			break
		}
		want = len(buf) + chunkSize
	}
	c.carry = append(c.carry, buf[cut:]...)
	chunk := buf[:cut]
	line := c.line
	c.line += bytes.Count(chunk, []byte{'\n'})
	return chunk, line, nil
}

// rest returns the stream from chunk's first byte on: the chunk, the bytes
// read past it, and whatever the underlying reader still holds.
func (c *chunkReader) rest(chunk []byte) io.Reader {
	head := append(append([]byte(nil), chunk...), c.carry...)
	c.carry = c.carry[:0]
	return io.MultiReader(bytes.NewReader(head), c.r)
}

// chunkParser turns quote-free records into block rows; each worker owns
// one.
type chunkParser struct {
	in     *ingest
	fields []string
}

// parse splits a quote-free chunk whose first byte is on the given line
// into blk, stopping at the first bad record.
func (p *chunkParser) parse(data []byte, line int, blk *Block) error {
	blk.Reset()
	nf := len(p.in.colToAttr)
	for ; len(data) > 0; line++ {
		rec := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			rec, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if len(rec) == 0 {
			continue // encoding/csv skips blank lines too
		}
		p.fields = splitFields(p.fields[:0], rec)
		if len(p.fields) != nf {
			return fmt.Errorf("dataset: %w", &csv.ParseError{StartLine: line, Line: line, Column: 1, Err: csv.ErrFieldCount})
		}
		if err := p.record(blk, line, p.fields); err != nil {
			return err
		}
	}
	return nil
}

// splitFields appends rec's comma-separated fields to dst as views of
// rec's bytes.
func splitFields(dst []string, rec []byte) []string {
	for {
		i := bytes.IndexByte(rec, ',')
		if i < 0 {
			return append(dst, unsafeString(rec))
		}
		dst = append(dst, unsafeString(rec[:i]))
		rec = rec[i+1:]
	}
}

// record appends one record to blk; rec holds the header columns' text,
// which may view a buffer that is reused — what the block keeps is copied.
func (p *chunkParser) record(blk *Block, line int, rec []string) error {
	blk.beginRow()
	for c, pos := range p.in.colToAttr {
		s, col := rec[c], &blk.Cols[pos]
		switch {
		case blk.index[pos] != nil:
			code := nullCode
			if s != "" {
				code = blk.code(pos, s)
			}
			col.Codes = append(col.Codes, code)
		case s == "":
			col.AppendMissing(blk.Rows)
		default:
			if err := col.appendNumber(s); err != nil {
				return fmt.Errorf("dataset: line %d, column %q: %w", line, p.in.schema.Attr(pos).Name, err)
			}
		}
	}
	for _, pos := range p.in.absent {
		col := &blk.Cols[pos]
		if blk.index[pos] != nil {
			col.Codes = append(col.Codes, nullCode)
		} else {
			col.AppendMissing(blk.Rows)
		}
	}
	blk.Lines = append(blk.Lines, line)
	blk.Rows++
	return nil
}

// parseFloat is strconv.ParseFloat(s, 64), with plain decimals read
// directly by parseDecimal.
func parseFloat(s string) (float64, error) {
	if m, frac, neg, ok := parseDecimal(s); ok {
		return decimalFloat(m, frac, neg), nil
	}
	return strconv.ParseFloat(s, 64)
}

// parseDecimal reads a plain decimal of at most 15 digits (-?d+, -?d+.d+
// or -?.d+): its digits as the integer m, the number of them after the
// point, and the sign. ok is false for anything else.
func parseDecimal(s string) (m uint64, frac int, neg, ok bool) {
	i := 0
	if len(s) > 0 && s[0] == '-' {
		i, neg = 1, true
	}
	digits, dot := 0, -1
	for ; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			m = m*10 + uint64(c-'0')
			digits++
			if dot >= 0 {
				frac++
			}
		case c == '.' && dot < 0:
			dot = i
		default:
			return 0, 0, false, false
		}
	}
	ok = digits > 0 && digits <= 15 && (dot < 0 || frac > 0)
	return m, frac, neg, ok
}

// decimalFloat is the float64 of ±m/10^frac, as parseDecimal read it: the
// mantissa and its power of ten are exact float64s, so their correctly
// rounded quotient is the correctly rounded value of the text —
// strconv.ParseFloat's result, bit for bit.
func decimalFloat(m uint64, frac int, neg bool) float64 {
	f := float64(m) / float64pow10[frac]
	if neg {
		f = -f
	}
	return f
}

var float64pow10 = [16]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// unsafeString views b as a string without copying; b must not change
// while the string is in use.
func unsafeString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}
