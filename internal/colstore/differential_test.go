package colstore

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/noise"
	"repro/internal/query"
)

// TestDifferentialTranscripts is the acceptance proof for the column
// store: the same seeded analyst session, driven over a heap-backed table
// (ReadCSV) and over the mmap-backed table of the segment built from the
// same CSV, must produce byte-identical Definition 6.1 transcripts — same
// mechanisms, same noisy counts bit for bit, same denials, same charges.
// Any divergence in the columnar views (codes, dictionaries, bitmaps,
// misfit handling) would shift a noise-free count and break this.
func TestDifferentialTranscripts(t *testing.T) {
	schema := testSchema(t)
	csv := testCSV(20_000, 3)

	heap, err := dataset.ReadCSV(strings.NewReader(csv), schema)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "table.seg")
	if _, err := BuildCSV(path, schema, strings.NewReader(csv)); err != nil {
		t.Fatal(err)
	}
	seg, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()

	queries := []string{
		`BIN D ON COUNT(*) WHERE W = { age BETWEEN 0 AND 50, age BETWEEN 50 AND 100 } ERROR 300 CONFIDENCE 0.95;`,
		`BIN D ON COUNT(*) WHERE W = { state = 'CA', state = 'NY', state = 'TX' } ERROR 400 CONFIDENCE 0.9;`,
		`BIN D ON COUNT(*) WHERE W = { age > 30 AND state = 'CA', age <= 30 OR state = 'NY' } ERROR 350 CONFIDENCE 0.95;`,
		`BIN D ON COUNT(*) WHERE W = { income BETWEEN 0 AND 500000, income BETWEEN 500000 AND 1000000 } ERROR 500 CONFIDENCE 0.95;`,
		// Repeat of the first workload: with Reuse on this must hit the
		// inferencer identically on both substrates.
		`BIN D ON COUNT(*) WHERE W = { age BETWEEN 0 AND 50, age BETWEEN 50 AND 100 } ERROR 300 CONFIDENCE 0.95;`,
		// A tight requirement to drive at least one denial.
		`BIN D ON COUNT(*) WHERE W = { age BETWEEN 0 AND 10 } ERROR 2 CONFIDENCE 0.9999;`,
	}

	for _, mode := range []engine.Mode{engine.Optimistic, engine.Pessimistic} {
		for _, reuse := range []bool{false, true} {
			name := fmt.Sprintf("%v-reuse=%v", mode, reuse)
			heapTr := runTranscript(t, heap, mode, reuse, queries)
			mmapTr := runTranscript(t, seg.Table(), mode, reuse, queries)
			if !bytes.Equal(heapTr, mmapTr) {
				t.Fatalf("%s: transcripts diverge\nheap: %s\nmmap: %s", name, heapTr, mmapTr)
			}
		}
	}
}

// runTranscript drives one seeded session and returns the transcript in
// the WAL's canonical byte encoding (EncodeEntry per entry).
func runTranscript(t *testing.T, table *dataset.Table, mode engine.Mode, reuse bool, queries []string) []byte {
	t.Helper()
	eng, err := engine.New(table, engine.Config{
		Budget: 2.0,
		Mode:   mode,
		Rng:    noise.NewRand(42),
		Reuse:  reuse,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range queries {
		q, err := query.Parse(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		if _, err := eng.Ask(q); err != nil {
			// Denials and budget exhaustion are part of the scripted
			// transcript; anything else is a test failure.
			if err != engine.ErrDenied {
				t.Fatalf("%s: %v", text, err)
			}
		}
	}
	var out bytes.Buffer
	entries, err := eng.Transcript()
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range entries {
		b, err := engine.EncodeEntry(e)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		out.Write(b)
		out.WriteByte('\n')
	}
	if _, err := eng.Validate(); err != nil {
		t.Fatalf("transcript invalid: %v", err)
	}
	return out.Bytes()
}
