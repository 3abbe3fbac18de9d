//go:build linux

package colstore

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/dataset"
)

// TestScanLeavesUnplannedColumnsCold: a scan maps only the columns it
// reads into the process. With a multi-megabyte segment evicted from the
// page cache right after Open, scanning the age column must map the age
// pages while leaving the (much larger, unread) income column unmapped.
// Nothing hints the kernel; the page-aligned column regions alone keep the
// columns apart. The page cache is the kernel's to fill — a fault's
// readahead may well read income in (mincore, logged) — but the process
// holds only what it touched (pagemap's present bit, asserted).
func TestScanLeavesUnplannedColumnsCold(t *testing.T) {
	// 300k rows: age FoR-packs to ~260 KiB + bitmap, income (cents, 27-bit
	// lanes, two to a word) to ~1.2 MiB.
	rng := rand.New(rand.NewSource(9))
	var sb strings.Builder
	sb.WriteString("age,state,income\n")
	for i := 0; i < 300_000; i++ {
		fmt.Fprintf(&sb, "%d,%s,%.2f\n", rng.Intn(100),
			[]string{"CA", "NY", "TX"}[rng.Intn(3)], rng.Float64()*1e6)
	}
	schema := testSchema(t)
	path := filepath.Join(t.TempDir(), "table.seg")
	if _, err := BuildCSV(path, schema, strings.NewReader(sb.String())); err != nil {
		t.Fatal(err)
	}
	seg, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	pagemap, err := os.Open("/proc/self/pagemap")
	if err != nil {
		t.Skipf("no pagemap: %v", err)
	}
	defer pagemap.Close()

	// Each column's page-aligned envelope, from the segment's directory.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := validateFile(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	const agePos, incomePos = 0, 2
	column := func(pos int) []byte {
		dc := m.dir.Columns[pos]
		start := dc.Vals.Off &^ (pageAlign - 1)
		return seg.data[start:max(dc.Vals.Off+dc.Vals.Len, dc.Missing.Off+dc.Missing.Len)]
	}
	// cached is the share of the column's pages in the page cache
	// (mincore); mapped the share present in this process's page tables.
	cached := func(pos int) float64 {
		res, err := residentBytes(column(pos))
		if err != nil {
			t.Fatalf("mincore over column %d: %v", pos, err)
		}
		return float64(res) / float64(len(column(pos)))
	}
	mapped := func(pos int) float64 {
		b, page := column(pos), os.Getpagesize()
		pages := (len(b) + page - 1) / page
		entries := make([]byte, 8*pages)
		if _, err := pagemap.ReadAt(entries, int64(uintptr(unsafe.Pointer(&b[0]))/uintptr(page))*8); err != nil {
			t.Skipf("pagemap unreadable: %v", err)
		}
		present := 0
		for i := 0; i < pages; i++ {
			if binary.LittleEndian.Uint64(entries[8*i:])>>63 != 0 {
				present++
			}
		}
		return float64(present) / float64(pages)
	}

	// Open dropped the mapping's pages from this process; push the clean
	// file pages out of the page cache too (best effort).
	const posixFadvDontneed = 4
	if _, _, errno := syscall.Syscall6(syscall.SYS_FADVISE64,
		seg.f.Fd(), 0, 0, posixFadvDontneed, 0, 0); errno != 0 {
		t.Logf("fadvise: %v", errno)
	}
	if a, i := mapped(agePos), mapped(incomePos); a != 0 || i != 0 {
		t.Fatalf("after Open: age %.0f%%, income %.0f%% mapped; want neither", a*100, i*100)
	}
	t.Logf("after eviction: page cache holds age %.0f%%, income %.0f%%", cached(agePos)*100, cached(incomePos)*100)

	// Scan the age column through the atoms a predicate cuts.
	p := dataset.Range{Attr: "age", Lo: 20, Hi: 60}
	atoms := dataset.NumAtoms(agePos, []float64{p.Lo, p.Hi})
	table := seg.Table()
	r, dst, matched := atoms.Bind(table), make([]uint32, 4096), 0
	row := make(dataset.Tuple, schema.Arity())
	for lo := 0; lo < table.Size(); lo += len(dst) {
		part := dst[:min(len(dst), table.Size()-lo)]
		r.Read(lo, part)
		for _, atom := range part {
			if row[agePos], _ = atoms.Rep(int(atom)); p.Eval(schema, row) {
				matched++
			}
		}
	}
	if matched == 0 {
		t.Fatal("scan matched nothing — bad test data")
	}

	t.Logf("after the age scan: page cache holds age %.0f%%, income %.0f%%; process maps age %.0f%%, income %.0f%%",
		cached(agePos)*100, cached(incomePos)*100, mapped(agePos)*100, mapped(incomePos)*100)
	if f := mapped(agePos); f < 0.8 {
		t.Errorf("scanned age column only %.0f%% mapped, want >= 80%%", f*100)
	}
	if f := mapped(incomePos); f > 0.1 {
		t.Errorf("unread income column %.0f%% mapped, want <= 10%%", f*100)
	}
}
