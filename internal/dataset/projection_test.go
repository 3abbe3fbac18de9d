package dataset

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestProjectionHoldsTheDistinctTuples rebuilds, row by row, the multiset
// of value tuples a column set holds — NULLs included, misfit rows left
// out — and requires the projection to hold exactly those tuples with
// those counts.
func TestProjectionHoldsTheDistinctTuples(t *testing.T) {
	tab, _ := buildMixedTable(t, 60_000, 11)
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
	tab.seal()
	return tab
}

// edgeTable is a sealed table of rows rows holding exactly distinct
// tuples over a wide packed column ("wide": 1000·k + 7, 16 or more bits)
// and a raw float64 one ("raw": k + 0.1234567891234) — plus, with misfit,
// one more row holding a tuple of its own next to a string in "raw".
func edgeTable(t *testing.T, rows, distinct int, misfit bool) *Table {
	t.Helper()
	schema, err := NewSchema(Attribute{Name: "wide", Kind: Continuous}, Attribute{Name: "raw", Kind: Continuous})
	if err != nil {
		t.Fatal(err)
	}
	tab := NewTable(schema)
	for i := 0; i < rows; i++ {
		k := float64(i % distinct)
		tab.MustAppend(Tuple{Num(1000*k + 7), Num(k + 0.1234567891234)})
	}
	if misfit {
		tab.MustAppend(Tuple{Num(999_007), Str("oops")})
	}
	if tab.ColumnData(0).PackedVals == nil || tab.ColumnData(1).PackedVals != nil {
		t.Fatal("fixture: want a packed wide column and a raw one")
	}
	return tab
}

// TestProjectionEligibility pins the observed rule at its exact edge: a
// set of a sealed table whose columns are packed or raw float64 gets a
// projection when its rows hold at most one distinct tuple per eight rows,
// however many lane combinations its columns could form; one tuple more
// aborts the build, which is remembered, so asking again runs no pass.
// Misfit rows do not count. Only a set whose keys alone are within the
// limit is sure to build before it is tried.
func TestProjectionEligibility(t *testing.T) {
	appended, _ := buildMixedTable(t, 60_000, 3)
	if _, outcome := appended.Projection([]int{0}); outcome != ProjectionBuild {
		t.Fatalf("an appended table got no projection (%s)", outcome)
	}

	const rows = 400 // the limit is 50 tuples
	for _, cols := range [][]int{{0}, {1}, {0, 1}} {
		for _, distinct := range []int{rows / 8, rows/8 + 1} {
			tab := edgeTable(t, rows, distinct, false)
			if _, planned := tab.PlannedProjection(cols); planned != ProjectionBuild || !tab.ProjectionMayAbort(cols) {
				t.Fatalf("columns %v, %d tuples: untried set planned %q (may abort: %v), want an unsure build", cols, distinct, planned, tab.ProjectionMayAbort(cols))
			}
			p, outcome := tab.Projection(cols)
			if distinct <= rows/8 {
				if outcome != ProjectionBuild || p.Table().Size() != distinct {
					t.Fatalf("columns %v, %d tuples: %q, want a build of %d rows", cols, distinct, outcome, distinct)
				}
				continue
			}
			if outcome != ProjectionAbort || p != nil {
				t.Fatalf("columns %v, %d tuples: %q, want an aborted build", cols, distinct, outcome)
			}
			for range 2 {
				if p, outcome := tab.Projection(cols); outcome != ProjectionIneligible || p != nil {
					t.Fatalf("columns %v: asked again after the abort: %q", cols, outcome)
				}
			}
			if _, planned := tab.PlannedProjection(cols); planned != ProjectionIneligible {
				t.Fatalf("columns %v: planned %q after the abort, want ineligible", cols, planned)
			}
			if st := tab.ProjectionStats(); st.Builds != 1 || st.Held != int64(len(projectionKey(cols))) {
				t.Fatalf("columns %v: stats %+v; want one build pass and the key's bytes held", cols, st)
			}
		}
	}

	withMisfit := edgeTable(t, rows, rows/8, true)
	for _, cols := range [][]int{{0}, {0, 1}} {
		if p, outcome := withMisfit.Projection(cols); outcome != ProjectionBuild || p.Table().Size() != rows/8 {
			t.Fatalf("columns %v: a misfit row's tuple was counted (%q)", cols, outcome)
		}
	}

	// One categorical column of 3 values has 3 + PackedCodeBias = 5 keys:
	// sure to build on 40 rows, not on 39.
	if narrow := catTable(t, 40, 1, 3); narrow.ProjectionMayAbort([]int{0}) {
		t.Fatal("5 keys on 40 rows may abort")
	}
	if narrow := catTable(t, 39, 1, 3); !narrow.ProjectionMayAbort([]int{0}) {
		t.Fatal("5 keys on 39 rows are sure to build")
	}
}

// TestProjectionAbortsStayBounded: a thousand distinct column sets that
// all abort are remembered within the table's byte bound — each costs its
// key's bytes, so the cache holds a bounded number of them — and asking a
// remembered set again runs no pass.
func TestProjectionAbortsStayBounded(t *testing.T) {
	tab := catTable(t, 512, 16, 200) // a column alone holds ~180 values, the limit is 64
	bound := tab.projectionBound()
	var sets [][]int
	var grow func(set []int, next int)
	grow = func(set []int, next int) {
		if len(set) > 0 {
			sets = append(sets, slices.Clone(set))
		}
		for c := next; c < 16 && len(set) < 4; c++ {
			grow(append(set, c), c+1)
		}
	}
	grow(nil, 0)
	sets = sets[:1000]
	for _, cols := range sets {
		if _, outcome := tab.Projection(cols); outcome != ProjectionAbort {
			t.Fatalf("%v: %q, want an aborted build", cols, outcome)
		}
		if held := tab.ProjectionStats().Held; held > bound {
			t.Fatalf("after %v: %d B held, bound %d B", cols, held, bound)
		}
		if n := tab.proj.Len(); n > int(bound)/len("[0]") {
			t.Fatalf("after %v: %d entries, more than the bound holds", cols, n)
		}
	}
	if st := tab.ProjectionStats(); st.Builds != int64(len(sets)) || st.Evictions == 0 {
		t.Fatalf("%d build passes for %d sets, %d evictions; want one pass each and the bound to bite", st.Builds, len(sets), st.Evictions)
	}
	last := sets[len(sets)-1]
	if _, outcome := tab.Projection(last); outcome != ProjectionIneligible || tab.ProjectionStats().Builds != int64(len(sets)) {
		t.Fatalf("re-asking %v: %q after %d build passes; want ineligible and no pass", last, outcome, tab.ProjectionStats().Builds)
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
	tab, _ := buildMixedTable(t, 60_000, 5)
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
