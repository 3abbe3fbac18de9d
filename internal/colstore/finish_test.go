package colstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// finishSchema covers every shape Finish packs: bitpacked codes, "for"
// and "for10" lanes, width-1 lanes, an all-missing column, a raw column
// whose early blocks spilled integers, and (through Append) misfits.
func finishSchema() *dataset.Schema {
	return dataset.MustSchema(
		dataset.Attribute{Name: "state", Kind: dataset.Categorical, Values: []string{"CA", "NY"}},
		dataset.Attribute{Name: "age", Kind: dataset.Continuous, Min: 0, Max: 100},
		dataset.Attribute{Name: "fare", Kind: dataset.Continuous, Min: 0, Max: 1000},
		dataset.Attribute{Name: "flag", Kind: dataset.Continuous, Min: 0, Max: 1},
		dataset.Attribute{Name: "none", Kind: dataset.Continuous, Min: 0, Max: 1},
		dataset.Attribute{Name: "late", Kind: dataset.Continuous, Min: 0, Max: 1},
	)
}

// finishCSV renders rows rows; the "late" column turns raw on its last
// row, which 30000 rows put in a later chunk than the packed ones.
func finishCSV(rows int) string {
	var sb strings.Builder
	sb.WriteString("state,age,fare,flag,none,late\n")
	for i := 0; i < rows; i++ {
		late := fmt.Sprintf("%d.5", i%7)
		if i == rows-1 {
			late = "0.1234567"
		}
		fmt.Fprintf(&sb, "%s,%d,%d.%02d,%d,,%s\n", []string{"CA", "NY", "TX", ""}[i%4], i%90, i%500, i%100, i%2, late)
	}
	return sb.String()
}

// buildAt builds a segment on the given number of workers and returns its
// bytes.
func buildAt(t *testing.T, procs int, build func(path string) error) []byte {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	path := filepath.Join(t.TempDir(), "t.seg")
	if err := build(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestSegmentBytesIndependentOfWorkers builds the same input on 1, 2 and
// 4 workers — the CSV ingest and Finish's column packers both follow
// GOMAXPROCS — and wants the same bytes every time, and a segment that
// opens to the rows.
func TestSegmentBytesIndependentOfWorkers(t *testing.T) {
	schema := finishSchema()
	builds := map[string]func(path string) error{
		"csv-zero-rows": func(path string) error {
			_, err := BuildCSV(path, schema, strings.NewReader(finishCSV(0)))
			return err
		},
		"csv": func(path string) error {
			_, err := BuildCSV(path, schema, strings.NewReader(finishCSV(30000)))
			return err
		},
		"append-misfits": func(path string) error {
			table, err := dataset.ReadCSV(strings.NewReader(finishCSV(300)), schema)
			if err != nil {
				return err
			}
			b, err := NewBuilder(path, schema)
			if err != nil {
				return err
			}
			for i := 0; i < table.Size(); i++ {
				row := table.Row(i)
				if i%37 == 0 {
					row[0], row[2] = dataset.Num(7), dataset.Str("x")
				}
				if err := b.Append(row); err != nil {
					return err
				}
			}
			_, err = b.Finish()
			return err
		},
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			want := buildAt(t, 1, build)
			for _, procs := range []int{2, 4} {
				if got := buildAt(t, procs, build); !bytes.Equal(got, want) {
					t.Fatalf("%d workers: %d bytes, differ from one worker's %d", procs, len(got), len(want))
				}
			}
			path := filepath.Join(t.TempDir(), "t.seg")
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			seg, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer seg.Close()
			info, err := Inspect(path)
			if err != nil {
				t.Fatal(err)
			}
			if name == "csv" {
				wantTable, err := dataset.ReadCSV(strings.NewReader(finishCSV(30000)), schema)
				if err != nil {
					t.Fatal(err)
				}
				assertSameRows(t, wantTable, seg.Table())
				encs := map[string]string{}
				for _, c := range info.Columns {
					encs[c.Name] = fmt.Sprintf("%s/%d", c.Enc, c.Width)
				}
				if want := "map[age:for/7 fare:for10/16 flag:for/1 late:/0 none:for/1 state:bitpack/3]"; fmt.Sprint(encs) != want {
					t.Fatalf("encodings %v, want %s", encs, want)
				}
			}
		})
	}
}

func assertSameRows(t *testing.T, want, got *dataset.Table) {
	t.Helper()
	if want.Size() != got.Size() {
		t.Fatalf("size: want %d, got %d", want.Size(), got.Size())
	}
	for i := 0; i < want.Size(); i++ {
		w, g := want.Row(i), got.Row(i)
		for pos := range w {
			if w[pos] != g[pos] {
				t.Fatalf("row %d pos %d: want %v, got %v", i, pos, w[pos], g[pos])
			}
		}
	}
}

// TestFinishRefusesBadSpill cuts a column's spill one cell short or
// makes it one cell long before Finish: the build fails with ErrIO and
// leaves no segment behind.
func TestFinishRefusesBadSpill(t *testing.T) {
	schema := finishSchema()
	for _, pos := range []int{0, 1, 2, 5} { // codes, "for", "for10", raw
		for _, delta := range []int{-1, 1} {
			t.Run(fmt.Sprintf("col%d/%+d", pos, delta), func(t *testing.T) {
				table, err := dataset.ReadCSV(strings.NewReader(finishCSV(500)), schema)
				if err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(t.TempDir(), "t.seg")
				b, err := NewBuilder(path, schema)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < table.Size(); i++ {
					if err := b.Append(table.Row(i)); err != nil {
						t.Fatal(err)
					}
				}
				if err := b.flush(); err != nil { // the rows still in the pending block
					t.Fatal(err)
				}
				c := b.cols[pos]
				if err := c.w.Flush(); err != nil {
					t.Fatal(err)
				}
				cell := int64(8)
				if c.kind == dataset.Categorical {
					cell = 4
				}
				spill := filepath.Join(b.spill, fmt.Sprintf("col%d", pos))
				if err := os.Truncate(spill, int64(table.Size())*cell+int64(delta)*cell); err != nil {
					t.Fatal(err)
				}
				if _, err := b.Finish(); !errors.Is(err, ErrIO) {
					t.Fatalf("Finish over a spill %+d cell: %v, want ErrIO", delta, err)
				}
				if _, err := os.Stat(path); !os.IsNotExist(err) {
					t.Fatalf("a failed build left %s behind (%v)", path, err)
				}
			})
		}
	}
}

// TestPackerHoldsToPlan packs one word more and one word fewer than a
// region's planned length; both fail.
func TestPackerHoldsToPlan(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "t"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, words := range []int{1, 3} {
		p := &packer{f: f}
		p.begin(&region{Off: 64, Len: 16})
		p.write(make([]uint64, words))
		if err := p.finish(); err == nil {
			t.Fatalf("%d words into a 2-word region: no error", words)
		}
	}
}
