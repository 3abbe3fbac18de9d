package colstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildTestSegment writes a segment and returns its path plus the parsed
// directory (for locating regions to corrupt).
func buildTestSegment(t *testing.T) (string, *header, *directory) {
	t.Helper()
	schema := testSchema(t)
	path := filepath.Join(t.TempDir(), "table.seg")
	if _, err := BuildCSV(path, schema, strings.NewReader(testCSV(2000, 7))); err != nil {
		t.Fatal(err)
	}
	h, dir := readDirectory(t, path)
	return path, h, dir
}

// readDirectory decodes the header and directory of the segment at path.
func readDirectory(t *testing.T, path string) (*header, *directory) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
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
	return h, &dir
}

// flipByte XORs one byte of the file in place.
func flipByte(t *testing.T, path string, off uint64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], int64(off)); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], int64(off)); err != nil {
		t.Fatal(err)
	}
}

func wantCorrupt(t *testing.T, path, what string) {
	t.Helper()
	seg, err := Open(path)
	if err == nil {
		seg.Close()
		t.Fatalf("%s: Open succeeded on corrupted segment", what)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("%s: error %v is not ErrCorrupt", what, err)
	}
}

func TestCorruptHeader(t *testing.T) {
	for _, off := range []uint64{0, 9, 20, 61} { // magic, version, rows, header CRC
		path, _, _ := buildTestSegment(t)
		flipByte(t, path, off)
		wantCorrupt(t, path, "header byte "+string(rune('0'+off)))
	}
}

func TestCorruptDataPages(t *testing.T) {
	cases := []struct {
		name string
	}{
		{"codes"}, {"dictionary"}, {"values"}, {"missing bitmap"},
	}
	for _, tc := range cases {
		p, _, _ := buildTestSegment(t)
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		h2, err := decodeHeader(raw[:headerSize])
		if err != nil {
			t.Fatal(err)
		}
		var dir2 directory
		if err := json.Unmarshal(raw[h2.dirOff:h2.dirOff+h2.dirLen], &dir2); err != nil {
			t.Fatal(err)
		}
		var target *region
		for _, c := range dir2.Columns {
			switch tc.name {
			case "codes":
				if c.Codes != nil {
					target = c.Codes
				}
			case "dictionary":
				if c.Dict != nil {
					target = c.Dict
				}
			case "values":
				if c.Vals != nil && target == nil {
					target = c.Vals
				}
			case "missing bitmap":
				if c.Missing != nil && target == nil {
					target = c.Missing
				}
			}
		}
		if target == nil || target.Len == 0 {
			t.Fatalf("%s: no bytes to corrupt", tc.name)
		}
		flipByte(t, p, target.Off+target.Len/2)
		wantCorrupt(t, p, tc.name)
	}
}

func TestCorruptDirectory(t *testing.T) {
	path, h, _ := buildTestSegment(t)
	flipByte(t, path, h.dirOff+h.dirLen/2)
	wantCorrupt(t, path, "directory")
}

func TestTruncatedFile(t *testing.T) {
	path, h, _ := buildTestSegment(t)
	if err := os.Truncate(path, int64(h.fileSize)-100); err != nil {
		t.Fatal(err)
	}
	wantCorrupt(t, path, "truncated")
}

// TestRegionLengthOverflow rewrites the directory (with consistent
// CRCs everywhere) so the misfit region's length wraps uint64 arithmetic:
// Off+Len overflows past the directory bound and a negative-length verify
// loop would checksum zero bytes. The structural bounds check must reject
// it with ErrCorrupt — not index out of the mapping and panic.
func TestRegionLengthOverflow(t *testing.T) {
	path, h, dir := buildTestSegment(t)
	off := uint64(pageAlign + 8)
	dir.Misfits = &region{Off: off, Len: ^uint64(0) - off + 16, CRC: 0}
	newDir, err := json.Marshal(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Append the hostile directory at EOF and point a freshly
	// checksummed header at it.
	if _, err := f.WriteAt(newDir, int64(h.fileSize)); err != nil {
		t.Fatal(err)
	}
	h2 := header{
		version: h.version, rows: h.rows, cols: h.cols,
		dirOff: h.fileSize, dirLen: uint64(len(newDir)),
		dirCRC:   crc32.Checksum(newDir, castagnoli),
		fileSize: h.fileSize + uint64(len(newDir)),
	}
	if _, err := f.WriteAt(h2.encode(), 0); err != nil {
		t.Fatal(err)
	}
	wantCorrupt(t, path, "region length overflow")
}

func TestHeaderLiesAboutRows(t *testing.T) {
	// A consistent-looking header whose row count disagrees with the
	// directory must fail even with a recomputed header CRC: the cross
	// check is structural, not just checksummed.
	path, h, _ := buildTestSegment(t)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	hb := make([]byte, headerSize)
	if _, err := f.ReadAt(hb, 0); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(hb[16:24], h.rows+1)
	h2, err := decodeHeader((&header{
		version: h.version, rows: h.rows + 1, cols: h.cols, dirOff: h.dirOff, dirLen: h.dirLen,
		dirCRC: h.dirCRC, fileSize: h.fileSize,
	}).encode())
	if err != nil || h2.rows != h.rows+1 {
		t.Fatalf("re-encoded header invalid: %v", err)
	}
	if _, err := f.WriteAt((&header{
		version: h.version, rows: h.rows + 1, cols: h.cols, dirOff: h.dirOff, dirLen: h.dirLen,
		dirCRC: h.dirCRC, fileSize: h.fileSize,
	}).encode(), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	wantCorrupt(t, path, "row count lie")
}
