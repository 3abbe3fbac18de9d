package colstore

import (
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// FuzzSegmentDirectory lies about one column in an otherwise valid
// segment's directory — its encoding, lane width, frame-of-reference
// base and decimal exponent, where its regions sit and how long they are,
// the row count — and
// re-checksums everything (region CRCs over whatever bytes the lie now
// points at, directory CRC, header), so nothing but structural validation
// stands between the lie and the kernels. Open must then either refuse
// with ErrCorrupt or hand back a table that the atom classifier can read
// end to end, over every column, without panicking. Seeds: the committed v1 fixture and a fresh v2 file of the
// same rows (age "for", state "bitpack", income "for10" at exponent 2).
func FuzzSegmentDirectory(f *testing.F) {
	v1Path, schema, csv := v1Fixture(f)
	v1Bytes, err := os.ReadFile(v1Path)
	if err != nil {
		f.Fatal(err)
	}
	v2Path := filepath.Join(f.TempDir(), "v2.seg")
	if _, err := BuildCSV(v2Path, schema, strings.NewReader(csv)); err != nil {
		f.Fatal(err)
	}
	v2Bytes, err := os.ReadFile(v2Path)
	if err != nil {
		f.Fatal(err)
	}

	const (
		mEnc = 1 << iota
		mWidth
		mMin
		mOff
		mLen
		mRows
		mSecond // aim Off/Len at the dictionary / missing bitmap instead
		mRaw    // take Off/Len as given instead of from another region
		mExp
	)
	f.Add(false, uint8(0), uint16(0), uint8(0), int8(0), uint64(0), uint64(0), uint64(0), int32(0), int8(0))
	f.Add(true, uint8(0), uint16(0), uint8(0), int8(0), uint64(0), uint64(0), uint64(0), int32(0), int8(0))
	f.Add(true, uint8(1), uint16(mWidth), uint8(0), int8(4), uint64(0), uint64(0), uint64(0), int32(0), int8(0))
	f.Add(true, uint8(0), uint16(mWidth|mMin), uint8(0), int8(32), math.Float64bits(-7), uint64(0), uint64(0), int32(0), int8(0))
	f.Add(false, uint8(1), uint16(mEnc|mWidth), uint8(1), int8(3), uint64(0), uint64(0), uint64(0), int32(0), int8(0))
	f.Add(true, uint8(2), uint16(mEnc|mWidth|mMin|mOff|mLen), uint8(2), int8(8), math.Float64bits(0), uint64(0), uint64(0), int32(0), int8(0))
	f.Add(false, uint8(0), uint16(mOff|mLen), uint8(0), int8(0), uint64(0), uint64(2), uint64(2), int32(0), int8(0))
	f.Add(true, uint8(1), uint16(mOff|mLen|mRaw), uint8(0), int8(0), uint64(0), uint64(pageAlign+8), ^uint64(0)-pageAlign, int32(0), int8(0))
	f.Add(true, uint8(0), uint16(mRows), uint8(0), int8(0), uint64(0), uint64(0), uint64(0), int32(-436), int8(0))
	f.Add(false, uint8(2), uint16(mRows|mSecond|mLen), uint8(0), int8(0), uint64(0), uint64(0), uint64(1), int32(64), int8(0))
	// The decimal encoding: a true relabelling of the integer column, the
	// exponent out of range both ways, a fractional and an oversized base,
	// width past the lane cap, for10 claimed by the categorical column and
	// by the v1 file, and the for10 column's exponent dropped and moved.
	f.Add(true, uint8(0), uint16(mEnc|mExp), uint8(3), int8(0), uint64(0), uint64(0), uint64(0), int32(0), int8(1))
	f.Add(true, uint8(2), uint16(mExp), uint8(0), int8(0), uint64(0), uint64(0), uint64(0), int32(0), int8(dataset.MaxDecimalExp+1))
	f.Add(true, uint8(2), uint16(mExp), uint8(0), int8(0), uint64(0), uint64(0), uint64(0), int32(0), int8(-1))
	f.Add(true, uint8(2), uint16(mExp), uint8(0), int8(0), uint64(0), uint64(0), uint64(0), int32(0), int8(0))
	f.Add(true, uint8(2), uint16(mExp), uint8(0), int8(0), uint64(0), uint64(0), uint64(0), int32(0), int8(5))
	f.Add(true, uint8(2), uint16(mMin), uint8(0), int8(0), math.Float64bits(0.5), uint64(0), uint64(0), int32(0), int8(0))
	f.Add(true, uint8(2), uint16(mMin), uint8(0), int8(0), math.Float64bits(1<<53), uint64(0), uint64(0), int32(0), int8(0))
	f.Add(true, uint8(2), uint16(mWidth), uint8(0), int8(33), uint64(0), uint64(0), uint64(0), int32(0), int8(0))
	f.Add(true, uint8(1), uint16(mEnc|mExp|mMin), uint8(3), int8(0), math.Float64bits(2), uint64(0), uint64(0), int32(0), int8(2))
	f.Add(false, uint8(2), uint16(mEnc|mExp|mMin|mWidth), uint8(3), int8(27), math.Float64bits(2), uint64(0), uint64(0), int32(0), int8(2))
	f.Add(true, uint8(2), uint16(mEnc), uint8(2), int8(0), uint64(0), uint64(0), uint64(0), int32(0), int8(0))

	f.Fuzz(func(t *testing.T, v2 bool, col uint8, what uint16, enc uint8, width int8, minBits, off, length uint64, rows int32, exp int8) {
		raw := v1Bytes
		if v2 {
			raw = v2Bytes
		}
		path := filepath.Join(t.TempDir(), "table.seg")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		h, err := decodeHeader(raw[:headerSize])
		if err != nil {
			t.Fatal(err)
		}
		var dir directory
		if err := json.Unmarshal(raw[h.dirOff:h.dirOff+h.dirLen], &dir); err != nil {
			t.Fatal(err)
		}
		var all []*region
		for i := range dir.Columns {
			dc := &dir.Columns[i]
			for _, r := range []*region{dc.Codes, dc.Dict, dc.Vals, dc.Missing} {
				if r != nil {
					all = append(all, r)
				}
			}
		}

		dc := &dir.Columns[int(col)%len(dir.Columns)]
		if what&mEnc != 0 {
			dc.Enc = []string{encRaw, encBitpack, encFoR, encFoR10, "zstd"}[enc%5]
		}
		if what&mExp != 0 {
			dc.Exp = int(exp)
		}
		if what&mWidth != 0 {
			dc.Width = int(width)
		}
		if what&mMin != 0 {
			dc.Min = nil
			if m := math.Float64frombits(minBits); minBits != 0 {
				if math.IsNaN(m) || math.IsInf(m, 0) {
					t.Skip("JSON cannot carry a non-finite base")
				}
				dc.Min = &m
			}
		}
		target := dc.Codes
		if dc.Vals != nil {
			target = dc.Vals
		}
		if what&mSecond != 0 {
			if target = dc.Dict; dc.Missing != nil {
				target = dc.Missing
			}
		}
		if what&mOff != 0 {
			target.Off = off
			if what&mRaw == 0 {
				target.Off = all[off%uint64(len(all))].Off + 8*(off>>8%4)
			}
		}
		if what&mLen != 0 {
			target.Len = length
			if what&mRaw == 0 {
				target.Len = all[length%uint64(len(all))].Len
			}
		}
		if what&mRows != 0 {
			dir.Rows = int(h.rows) + int(rows)
			h.rows = uint64(dir.Rows)
		}
		for _, r := range []*region{dc.Codes, dc.Dict, dc.Vals, dc.Missing} {
			if r != nil && r.Off <= uint64(len(raw)) && r.Len <= uint64(len(raw))-r.Off {
				r.CRC = crc32.Checksum(raw[r.Off:r.Off+r.Len], castagnoli)
			}
		}
		rewriteDirectory(t, path, h, &dir, h.version)

		seg, err := Open(path)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open refused with %v, which is not ErrCorrupt", err)
			}
			return
		}
		defer seg.Close()
		readEveryColumn(t, seg.Table())
	})
}

// readEveryColumn drives the column reader over the whole table: the
// atom classifier bound to each column in turn, with the row counted when
// its atom's representative satisfies one predicate touching every
// attribute.
func readEveryColumn(t *testing.T, table *dataset.Table) {
	t.Helper()
	schema := table.Schema()
	matched := make([]bool, table.Size())
	row := make(dataset.Tuple, schema.Arity())
	dst := make([]uint32, 4096)
	for pos := 0; pos < schema.Arity(); pos++ {
		a := schema.Attr(pos)
		var atoms *dataset.Atoms
		var p dataset.Predicate
		if a.Kind == dataset.Categorical {
			p = dataset.Or{dataset.StrEq{Attr: a.Name, Val: "NY"}, dataset.IsNull{Attr: a.Name}}
			atoms = dataset.CatAtoms(pos, []string{"CA", "NY", "WA", "nowhere"})
		} else {
			p = dataset.Or{dataset.Range{Attr: a.Name, Lo: 20, Hi: 60.5},
				dataset.NumCmp{Attr: a.Name, Op: dataset.Ne, C: 33}}
			atoms = dataset.NumAtoms(pos, []float64{-1, 20, 33, 60.5, 5e5, 1e12})
		}
		r := atoms.Bind(table)
		for lo := 0; lo < table.Size(); lo += len(dst) {
			part := dst[:min(len(dst), table.Size()-lo)]
			r.Read(lo, part)
			for i, atom := range part {
				row[pos], _ = atoms.Rep(int(atom))
				matched[lo+i] = matched[lo+i] || p.Eval(schema, row)
			}
		}
		row[pos] = dataset.Null
	}
	n := 0
	for _, m := range matched {
		if m {
			n++
		}
	}
	if n < 0 || n > table.Size() {
		t.Fatalf("predicate matched %d of %d rows", n, table.Size())
	}
}
