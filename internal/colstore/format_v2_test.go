package colstore

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// v1Fixture is the committed v1 segment and its source: 500 rows of
// testCSV(500, 19) over testSchema (NULLs in every column, out-of-domain
// states, age integral, income in cents), written by the v1 writer
// as it last existed (commit 6115882, format version 1). Nothing in
// the tree can write this layout any more, so the bytes cannot be
// regenerated — only read.
func v1Fixture(t testing.TB) (segPath string, schema *dataset.Schema, csv string) {
	t.Helper()
	dir := filepath.Join("testdata", "v1")
	raw, err := os.ReadFile(filepath.Join(dir, "table.csv"))
	if err != nil {
		t.Fatal(err)
	}
	sj, err := os.ReadFile(filepath.Join(dir, "schema.json"))
	if err != nil {
		t.Fatal(err)
	}
	schema = new(dataset.Schema)
	if err := json.Unmarshal(sj, schema); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, "table.seg"), schema, string(raw)
}

// TestV1V2Differential is the version-gate proof: the v1 fixture
// (full-width), a v2 segment built from the fixture's CSV (bitpacked codes
// + frame-of-reference values, integer and decimal), a packed heap copy
// of the v2 table and the v2 segment the parent commit built of the same
// rows (income still raw) must all drive byte-identical Definition 6.1 transcripts against the
// heap-parsed original. The packed-code kernels evaluate over packed
// words directly, so any rounding or sentinel slip in the packed path
// would shift a noise-free count and diverge here.
func TestV1V2Differential(t *testing.T) {
	v1Path, schema, csv := v1Fixture(t)
	if want := testCSV(500, 19); csv != want {
		t.Fatal("testdata/v1/table.csv is no longer testCSV(500, 19)")
	}
	heap, err := dataset.ReadCSV(strings.NewReader(csv), schema)
	if err != nil {
		t.Fatal(err)
	}
	v2Path := filepath.Join(t.TempDir(), "v2.seg")
	if _, err := BuildCSV(v2Path, schema, strings.NewReader(csv)); err != nil {
		t.Fatal(err)
	}
	v1, err := Open(v1Path)
	if err != nil {
		t.Fatalf("open v1: %v", err)
	}
	defer v1.Close()
	v2, err := Open(v2Path)
	if err != nil {
		t.Fatalf("open v2: %v", err)
	}
	defer v2.Close()
	if v1.Version() != 1 || v2.Version() != 2 {
		t.Fatalf("versions: v1=%d v2=%d", v1.Version(), v2.Version())
	}
	assertTablesMatch(t, heap, v1.Table())
	// The same rows as commit 7da849a's Builder wrote them, before "for10"
	// existed: a v2 file whose income column is raw float64. It must keep
	// opening, as what it is.
	rawPath := filepath.Join("testdata", "v2_7da849a", "table.seg")
	v2raw, err := Open(rawPath)
	if err != nil {
		t.Fatalf("open parent-written v2: %v", err)
	}
	defer v2raw.Close()
	if info, err := Inspect(rawPath); err != nil || info.Version != 2 || info.Columns[2].Enc != encRaw || info.Columns[0].Enc != encFoR {
		t.Fatalf("parent-written v2 fixture: %+v, %v; want v2 with age for, income raw", info, err)
	}
	assertTablesMatch(t, heap, v2raw.Table())
	// v2 must actually compress: its column payload strictly under the
	// v1-equivalent accounting (age FoR-packs to 7 bits, state to 3,
	// income — cents — to 27 as for10), which is what the v1 file really
	// holds.
	if v2.DataBytes() >= v2.V1DataBytes() || v2.V1DataBytes() != v1.DataBytes() {
		t.Fatalf("v2 payload %d, v1-equivalent %d, v1 fixture payload %d", v2.DataBytes(), v2.V1DataBytes(), v1.DataBytes())
	}
	packedHeap, err := HeapCopy(v2.Table())
	if err != nil {
		t.Fatal(err)
	}

	queries := []string{
		`BIN D ON COUNT(*) WHERE W = { age BETWEEN 0 AND 50, age BETWEEN 50 AND 100 } ERROR 30 CONFIDENCE 0.95;`,
		`BIN D ON COUNT(*) WHERE W = { state = 'CA', state = 'NY', state = 'TX' } ERROR 40 CONFIDENCE 0.9;`,
		`BIN D ON COUNT(*) WHERE W = { age > 30 AND state = 'CA', age <= 30 OR state = 'NY' } ERROR 35 CONFIDENCE 0.95;`,
		`BIN D ON COUNT(*) WHERE W = { income BETWEEN 0 AND 500000, income BETWEEN 500000 AND 1000000 } ERROR 50 CONFIDENCE 0.95;`,
	}
	want := runTranscript(t, heap, engine.Optimistic, true, queries)
	for name, table := range map[string]*dataset.Table{
		"v1segment": v1.Table(), "v2segment": v2.Table(), "packedheap": packedHeap, "v2segment-7da849a": v2raw.Table(),
	} {
		if got := runTranscript(t, table, engine.Optimistic, true, queries); !bytes.Equal(want, got) {
			t.Errorf("%s: transcript diverges from heap original", name)
		}
	}
}

// TestInspect checks the no-mapping segment summary: version, per-column
// encodings and the compression accounting recoverysmoke and the bench
// rely on — over the v1 fixture and a v2 build of the same rows.
func TestInspect(t *testing.T) {
	v1Path, schema, csv := v1Fixture(t)
	v2Path := filepath.Join(t.TempDir(), "v2.seg")
	if _, err := BuildCSV(v2Path, schema, strings.NewReader(csv)); err != nil {
		t.Fatal(err)
	}
	for ver, tc := range map[int]struct {
		path string
		enc  map[string]string
	}{
		1: {v1Path, map[string]string{"age": "", "state": "", "income": ""}},
		2: {v2Path, map[string]string{"age": encFoR, "state": encBitpack, "income": encFoR10}},
	} {
		info, err := Inspect(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Version != ver || info.Rows != 500 {
			t.Fatalf("v%d: Inspect says version=%d rows=%d", ver, info.Version, info.Rows)
		}
		for _, ci := range info.Columns {
			if ci.Enc != tc.enc[ci.Name] {
				t.Errorf("v%d: column %s encoded %q, want %q", ver, ci.Name, ci.Enc, tc.enc[ci.Name])
			}
			if wantExp := map[string]int{encFoR10: 2}[ci.Enc]; ci.Exp != wantExp {
				t.Errorf("v%d: column %s (%q) reports decimal exponent %d, want %d", ver, ci.Name, ci.Enc, ci.Exp, wantExp)
			}
		}
		if ver == 1 && info.DataBytes != info.V1Bytes {
			t.Errorf("v1 payload %d differs from its own v1 accounting %d", info.DataBytes, info.V1Bytes)
		}
		if ver == 2 && info.DataBytes >= info.V1Bytes {
			t.Errorf("v2 payload %d not smaller than v1-equivalent %d", info.DataBytes, info.V1Bytes)
		}
	}
}

// rewriteDirectory re-marshals a tampered directory with consistent CRCs
// everywhere — appended at EOF with a freshly checksummed header pointing
// at it — so only the structural validation can catch the lie.
func rewriteDirectory(t testing.TB, path string, h *header, dir *directory, version uint32) {
	t.Helper()
	newDir, err := json.Marshal(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(newDir, int64(h.fileSize)); err != nil {
		t.Fatal(err)
	}
	h2 := header{
		version: version, rows: h.rows, cols: h.cols,
		dirOff: h.fileSize, dirLen: uint64(len(newDir)),
		dirCRC:   crc32.Checksum(newDir, castagnoli),
		fileSize: h.fileSize + uint64(len(newDir)),
	}
	if _, err := f.WriteAt(h2.encode(), 0); err != nil {
		t.Fatal(err)
	}
}

// TestTamperedEncodingEntries rewrites the v2 directory's encoding
// metadata with otherwise-consistent checksums: every lie about Enc,
// Width, the FoR base or the decimal exponent must fail structural
// validation with ErrCorrupt, never reach the kernels.
func TestTamperedEncodingEntries(t *testing.T) {
	// Column order in testSchema: age (for), state (bitpack), income
	// (for10 at exponent 2).
	setMin := func(dc *dirColumn, m float64) { dc.Min = &m }
	cases := []struct {
		name   string
		tamper func(dir *directory)
	}{
		{"bitpack width zero", func(dir *directory) { dir.Columns[1].Width = 0 }},
		{"bitpack width 33", func(dir *directory) { dir.Columns[1].Width = 33 }},
		{"bitpack width off by one", func(dir *directory) { dir.Columns[1].Width++ }},
		{"unknown encoding", func(dir *directory) { dir.Columns[1].Enc = "zstd" }},
		{"bitpack with FoR base", func(dir *directory) {
			min := 3.0
			dir.Columns[1].Min = &min
		}},
		{"for without base", func(dir *directory) { dir.Columns[0].Min = nil }},
		{"for width widened", func(dir *directory) { dir.Columns[0].Width = 32 }},
		{"for base beyond exact sums", func(dir *directory) { setMin(&dir.Columns[0], 1<<53) }},
		{"for fractional base", func(dir *directory) { setMin(&dir.Columns[0], 0.5) }},
		{"for carries an exponent", func(dir *directory) { dir.Columns[0].Exp = 2 }},
		{"for10 relabelled for", func(dir *directory) { dir.Columns[2].Enc = encFoR }},
		{"for relabelled for10", func(dir *directory) { dir.Columns[0].Enc = encFoR10 }},
		{"for10 exponent zero", func(dir *directory) { dir.Columns[2].Exp = 0 }},
		{"for10 negative exponent", func(dir *directory) { dir.Columns[2].Exp = -1 }},
		{"for10 exponent past the cap", func(dir *directory) { dir.Columns[2].Exp = dataset.MaxDecimalExp + 1 }},
		{"for10 without base", func(dir *directory) { dir.Columns[2].Min = nil }},
		{"for10 fractional base", func(dir *directory) { setMin(&dir.Columns[2], 12.5) }},
		{"for10 width 33", func(dir *directory) { dir.Columns[2].Width = 33 }},
		{"for10 width narrowed", func(dir *directory) { dir.Columns[2].Width-- }},
		{"bitpack with exponent", func(dir *directory) { dir.Columns[1].Exp = 2 }},
		{"for10 on a categorical column", func(dir *directory) {
			dir.Columns[1].Enc, dir.Columns[1].Exp = encFoR10, 2
			setMin(&dir.Columns[1], 0)
		}},
	}
	for _, tc := range cases {
		path, h, dir := buildTestSegment(t)
		tc.tamper(dir)
		rewriteDirectory(t, path, h, dir, h.version)
		wantCorrupt(t, path, tc.name)
	}

	// A v1 header over a directory with packed entries is the downgrade
	// lie: the version gate must reject the pair.
	path, h, dir := buildTestSegment(t)
	rewriteDirectory(t, path, h, dir, version1)
	wantCorrupt(t, path, "v1 header over v2 encodings")
}

// TestPackedPageBitFlip flips one byte in each packed page of a v2
// segment — the bitpacked code words and the frame-of-reference value
// words, integer and decimal — and requires the per-page CRC to refuse the open. (The raw
// layout's equivalent lives in TestCorruptDataPages.)
func TestPackedPageBitFlip(t *testing.T) {
	_, _, dir := buildTestSegment(t)
	var flips []struct {
		what string
		off  uint64
	}
	for _, dc := range dir.Columns {
		switch dc.Enc {
		case encBitpack:
			flips = append(flips, struct {
				what string
				off  uint64
			}{"packed codes " + dc.Name, dc.Codes.Off + dc.Codes.Len/2})
		case encFoR, encFoR10:
			flips = append(flips, struct {
				what string
				off  uint64
			}{"packed values " + dc.Name, dc.Vals.Off + dc.Vals.Len/2})
		}
	}
	if len(flips) < 3 {
		t.Fatalf("test segment has %d packed columns, want all three kinds", len(flips))
	}
	for _, fl := range flips {
		p, _, _ := buildTestSegment(t)
		flipByte(t, p, fl.off)
		wantCorrupt(t, p, fl.what)
	}
}
