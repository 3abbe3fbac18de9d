//go:build linux

package colstore

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/dataset"
)

// evictSegment drops the segment's pages from memory: madvise(DONTNEED)
// on the mapping first (a page still mapped into a page table survives
// page-cache invalidation), then posix_fadvise(POSIX_FADV_DONTNEED) over
// the whole file to push the clean pages out of the page cache. Best
// effort — the caller must check residency and skip if the environment
// would not let go.
func evictSegment(t *testing.T, seg *Segment) {
	t.Helper()
	seg.Release()
	const posixFadvDontneed = 4
	if _, _, errno := syscall.Syscall6(syscall.SYS_FADVISE64,
		seg.f.Fd(), 0, 0, posixFadvDontneed, 0, 0); errno != 0 {
		t.Skipf("fadvise unavailable: %v", errno)
	}
}

// TestColumnGranularPrefetch is the mincore proof of the planned-column
// prefetch path: after evicting a multi-megabyte segment, prefetching and
// scanning only the age column must fault the age pages in while leaving
// the (much larger, unplanned) income column cold. Whole-table prefetch
// would drag every column back; this asserts it does not.
func TestColumnGranularPrefetch(t *testing.T) {
	// 300k rows: age FoR-packs to ~260 KiB + bitmap, income (cents, 27-bit
	// lanes, two to a word) to ~1.2 MiB — big enough that sequential-readahead spillover from the
	// age scan cannot meaningfully warm income.
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

	const agePos, incomePos = 0, 2
	frac := func(pos int) float64 {
		res, err := seg.ColumnResident(pos)
		if err != nil {
			t.Fatalf("ColumnResident(%d): %v", pos, err)
		}
		sp := seg.colSpans[pos]
		return float64(res) / float64(sp.end-sp.start)
	}

	evictSegment(t, seg)
	if f := frac(incomePos); f > 0.5 {
		t.Skipf("page cache would not release the segment (income %.0f%% resident after eviction)", f*100)
	}

	// The scheduler's path: derive the planned columns from the atoms the
	// predicate cuts, prefetch only those, scan.
	p := dataset.Range{Attr: "age", Lo: 20, Hi: 60}
	atoms := dataset.NumAtoms(agePos, []float64{p.Lo, p.Hi})
	cols := []int{atoms.Pos()}
	table := seg.Table()
	table.PrefetchColumns(cols)
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

	ageFrac, incomeFrac := frac(agePos), frac(incomePos)
	if ageFrac < 0.8 {
		t.Errorf("planned age column only %.0f%% resident after prefetch+scan, want >= 80%%", ageFrac*100)
	}
	if incomeFrac > 0.3 {
		t.Errorf("unplanned income column %.0f%% resident, want <= 30%% (prefetch was not column-granular)", incomeFrac*100)
	}

	// Releasing the scanned column drops it cold again...
	table.ReleaseColumns(cols)
	const posixFadvDontneed = 4
	syscall.Syscall6(syscall.SYS_FADVISE64, seg.f.Fd(), 0, 0, posixFadvDontneed, 0, 0)
	if f := frac(agePos); f > 0.5 {
		t.Errorf("age column still %.0f%% resident after ReleaseColumns", f*100)
	}
	if seg.colAdvised[agePos] {
		t.Error("ReleaseColumns left the age column marked advised")
	}

	// ...and a released column must be hinted again by the next prefetch:
	// with no scan to fault pages in, only a re-issued WILLNEED (readahead
	// is asynchronous, hence the poll) brings the age pages back.
	table.PrefetchColumns(cols)
	if !seg.colAdvised[agePos] {
		t.Error("prefetch after release did not re-advise the age column")
	}
	deadline := time.Now().Add(2 * time.Second)
	for frac(agePos) < 0.8 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if f := frac(agePos); f < 0.8 {
		t.Errorf("age column only %.0f%% resident after release + re-advise, want >= 80%%", f*100)
	}
	if f := frac(incomePos); f > 0.3 {
		t.Errorf("re-advising age dragged income to %.0f%% resident", f*100)
	}
}
