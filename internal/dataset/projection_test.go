package dataset

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestProjectionHoldsTheDistinctTuples rebuilds, row by row, the multiset
// of value tuples a column set holds — NULLs included, misfit rows left
// out — and requires the projection to hold exactly those tuples with
// those counts.
func TestProjectionHoldsTheDistinctTuples(t *testing.T) {
	tab := packTable(t, buildMixedTable(t, 60_000, 11))
	cols := []int{0, 1, 4} // flag × grade × age: 4 · 10 · 129 slots
	p, outcome := tab.Projection(cols)
	if outcome != ProjectionBuild {
		t.Fatalf("first Projection = %q, want a build", outcome)
	}
	tuple := func(d *Table, i int) string {
		var key string
		for _, pos := range cols {
			key += fmt.Sprintf("%v|", d.value(pos, i))
		}
		return key
	}
	want := make(map[string]uint32)
	misfit := make(map[int]bool)
	for _, r := range tab.MisfitRows() {
		misfit[r] = true
	}
	if len(misfit) == 0 {
		t.Fatal("fixture has no misfit rows")
	}
	for i := 0; i < tab.Size(); i++ {
		if !misfit[i] {
			want[tuple(tab, i)]++
		}
	}
	pt := p.Table()
	if pt.Size() != len(want) || len(p.Weights()) != len(want) {
		t.Fatalf("projection has %d rows and %d weights, the columns %d distinct tuples", pt.Size(), len(p.Weights()), len(want))
	}
	var nulls int
	for i, w := range p.Weights() {
		key := tuple(pt, i)
		if want[key] != w {
			t.Fatalf("projection row %d (%s) weighs %d, the table holds %d such rows", i, key, w, want[key])
		}
		delete(want, key) // a tuple listed twice fails the second time
		if pt.value(4, i).IsNull() {
			nulls++
		}
	}
	if nulls == 0 {
		t.Fatal("no projection row carries a NULL age: the NULL slot is untested")
	}
	if again, outcome := tab.Projection(cols); again != p || outcome != ProjectionHit {
		t.Fatalf("second Projection = %p %q, want the held one and a hit", again, outcome)
	}
}

// catTable is a sealed table of narrow packed categorical columns holding
// seeded random values.
func catTable(t *testing.T, n, ncols, values int) *Table {
	t.Helper()
	attrs := make([]Attribute, ncols)
	for c := range attrs {
		attrs[c] = Attribute{Name: fmt.Sprintf("c%d", c), Kind: Categorical, Values: domainN(values)}
	}
	schema, err := NewSchema(attrs...)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(n)))
	tab := NewTable(schema)
	for i := 0; i < n; i++ {
		row := make(Tuple, ncols)
		for c := range row {
			row[c] = Str(fmt.Sprintf("v%d", rng.Intn(values)))
		}
		tab.MustAppend(row)
	}
	return packTable(t, tab)
}

// TestProjectionEligibility pins the rule: sealed, every column packed,
// and at most one slot per eight rows — exactly.
func TestProjectionEligibility(t *testing.T) {
	heap := buildMixedTable(t, 60_000, 3)
	if _, outcome := heap.Projection([]int{0}); outcome != ProjectionIneligible {
		t.Fatalf("an unsealed table got a projection (%s)", outcome)
	}
	packed := packTable(t, heap)
	if _, outcome := packed.Projection([]int{0, 6}); outcome != ProjectionIneligible { // frac stays raw float64
		t.Fatalf("a set with a full-width column got a projection (%s)", outcome)
	}
	if _, outcome := packed.Projection([]int{0}); outcome != ProjectionBuild {
		t.Fatalf("a narrow packed column of a sealed table has no projection (%s)", outcome)
	}

	// One categorical column of 3 values: 3 + PackedCodeBias = 5 slots.
	// Two of them: 25.
	for _, c := range []struct {
		rows int
		cols []int
		want string
	}{
		{40, []int{0}, ProjectionBuild},      // slots = rows/8
		{39, []int{0}, ProjectionIneligible}, // slots = rows/8 + 1
		{200, []int{0, 1}, ProjectionBuild},
		{199, []int{0, 1}, ProjectionIneligible},
	} {
		tab := catTable(t, c.rows, 2, 3)
		if _, got := tab.PlannedProjection(c.cols); got != c.want {
			t.Errorf("%d rows, columns %v: planned %q, want %q", c.rows, c.cols, got, c.want)
		}
		if _, got := tab.Projection(c.cols); got != c.want {
			t.Errorf("%d rows, columns %v: %q, want %q", c.rows, c.cols, got, c.want)
		}
	}
}

// TestProjectionEvictionByBytes: three pair projections of which the
// bound holds two; the least recently used one goes, the one just asked
// for never does, and the held bytes stay within the bound however many
// column sets are cycled through.
func TestProjectionEvictionByBytes(t *testing.T) {
	tab := catTable(t, 4096, 5, 14)
	a, b, c := []int{0, 1}, []int{2, 3}, []int{0, 4}
	pa, _ := tab.Projection(a)
	bound := tab.projectionBound()
	if 2*pa.Bytes() > bound || 3*pa.Bytes() <= bound {
		t.Fatalf("fixture: a pair projection is %d B, the bound %d B; want two to fit and three not to", pa.Bytes(), bound)
	}
	tab.Projection(b)
	if _, outcome := tab.Projection(a); outcome != ProjectionHit { // a is now the more recently used
		t.Fatalf("a: %s", outcome)
	}
	pc, _ := tab.Projection(c)
	if _, outcome := tab.PlannedProjection(b); outcome != ProjectionBuild {
		t.Fatalf("b, the least recently used set, was kept (%s)", outcome)
	}
	for _, cols := range [][]int{a, c} {
		if _, outcome := tab.PlannedProjection(cols); outcome != ProjectionHit {
			t.Fatalf("%v was dropped (%s)", cols, outcome)
		}
	}
	if got := tab.ProjectionBytes(); got != pa.Bytes()+pc.Bytes() {
		t.Fatalf("held %d B, want the two kept projections' %d B", got, pa.Bytes()+pc.Bytes())
	}

	for round := 0; round < 3; round++ {
		for x := 0; x < 5; x++ {
			for y := x + 1; y < 5; y++ {
				if p, _ := tab.Projection([]int{x, y}); p == nil {
					t.Fatalf("{%d,%d} has no projection", x, y)
				}
				if got := tab.ProjectionBytes(); got > bound {
					t.Fatalf("held %d B after {%d,%d}, bound %d B", got, x, y, bound)
				}
			}
		}
	}

	// A projection larger than the whole bound is still kept while it is
	// the one in use — and is the first to go afterwards.
	small := catTable(t, 2048, 2, 14)
	pb, _ := small.Projection(a)
	if pb.Bytes() <= small.projectionBound() {
		t.Fatalf("fixture: the pair projection (%d B) fits the bound (%d B)", pb.Bytes(), small.projectionBound())
	}
	if got := small.ProjectionBytes(); got != pb.Bytes() {
		t.Fatalf("held %d B, want the oversized projection's %d B", got, pb.Bytes())
	}
	small.Projection([]int{0})
	if _, outcome := small.PlannedProjection(a); outcome != ProjectionBuild {
		t.Fatalf("the oversized projection outlived the next request (%s)", outcome)
	}
}

// TestProjectionBuildsOnce: goroutines asking for one cold column set get
// one build between them. Run under -race.
func TestProjectionBuildsOnce(t *testing.T) {
	tab := packTable(t, buildMixedTable(t, 60_000, 5))
	const callers = 16
	var wg sync.WaitGroup
	ps := make([]*Projection, callers)
	outcomes := make([]string, callers)
	start := make(chan struct{})
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			ps[g], outcomes[g] = tab.Projection([]int{1, 4})
		}()
	}
	close(start)
	wg.Wait()
	builds := 0
	for g := range ps {
		if ps[g] == nil || ps[g] != ps[0] {
			t.Fatalf("caller %d got projection %p, caller 0 %p", g, ps[g], ps[0])
		}
		switch outcomes[g] {
		case ProjectionBuild:
			builds++
		case ProjectionHit:
		default:
			t.Fatalf("caller %d: outcome %q", g, outcomes[g])
		}
	}
	if builds != 1 {
		t.Fatalf("%d callers report a build, want exactly one", builds)
	}
}
