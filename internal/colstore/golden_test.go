package colstore

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

// appendTable streams a programmatically built table's rows through the
// Builder — the only segment writer — into a segment at path.
func appendTable(t testing.TB, path string, table *dataset.Table) *BuildResult {
	t.Helper()
	b, err := NewBuilder(path, table.Schema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < table.Size(); i++ {
		if err := b.Append(table.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGoldenSegmentBytes pins the on-disk contract recovery depends on:
// the two generated benchmark tables must serialize to exactly these
// bytes. Adult's — integers and categories only — are the ones the
// format-v2 writers produced when there were three of them (commit
// 6115882: Builder.Append, BuildCSV and the in-memory writer all emitted
// that file). NYTaxi's changed once, when its five two-decimal columns
// (trip distance and the four amounts) went from raw float64 to "for10"
// (947,583 B before). A change to layout, padding, directory JSON or
// packing shows up here before it shows up as a catalog that no longer
// opens.
func TestGoldenSegmentBytes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		table *dataset.Table
		size  int64
		sha   string
	}{
		{"adult", datagen.Adult(20000, 1), 381852, "36ba0498e35c1269d5256d67e5e71990af9c7c6a6e0894ba2deb404af1047306"},
		{"nytaxi", datagen.NYTaxi(20000, 1), 328074, "19e176dc850bd3764b2f6a36f2836ae4bee9eff8a9a012a29e10ce67980eed93"},
		// Every packing decision at once: "for", "for10" at exponents 1, 2,
		// 3 and 6 and at the full 32-bit width, and eight columns one value
		// each keeps raw (for10_test.go).
		{"decimal", decimalTable(), 101713, "e9b0897011da5b33d19e5abc38201e12954c3434c4afba97cdbdf7aff5b8def6"},
	} {
		path := filepath.Join(t.TempDir(), tc.name+".seg")
		res := appendTable(t, path, tc.table)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		if got := hex.EncodeToString(sum[:]); got != tc.sha || int64(len(raw)) != tc.size || res.FileBytes != tc.size {
			t.Errorf("%s: segment is %d bytes (builder says %d), sha256 %s; want %d bytes, %s",
				tc.name, len(raw), res.FileBytes, got, tc.size, tc.sha)
		}
	}
}
