package workload

import (
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
)

// The scan kernel: attribute-at-a-time evaluation of a workload.
//
// Transform already reduced the workload to the partition domW(R) on
// which every predicate is constant. The kernel finishes that thought for
// the data side: per component it precomputes, for every combination
// ("cell") of the component's attribute atoms (dataset.Atoms — points,
// open intervals, unbounded ends, NULL, NaN; dictionary constants,
// "other", NULL), the predicate signature of that cell, found by
// evaluating the predicates on one representative tuple and looking the
// signature up in the component's existing sigToPart. A scan then reads
// each referenced column exactly once, in row morsels: a row's atoms
// combine by mixed radix into its cell, the cell's signature is counted,
// and both results fall out of the counts — the partition histogram x
// (signature ids below len(partSigs) are the partition indices) and the
// per-predicate truths Σ_sig count·[predicate ∈ sig]. The cost is per
// row, not per row × predicate.
//
// The kernel maps onto Transform's partitions and never changes them;
// rows outside the public domain land in cells whose signature sigToPart
// has never seen, reproducing the row path's error.

// morselRows is the unit of scan work: small enough that a worker's atom,
// cell and partition buffers (3 × 16 KiB) stay cache-resident across the
// columns of a component, a multiple of 64 so missing bitmaps are
// consumed in whole words.
const morselRows = 4096

// maxKernelCells bounds a component's cell table. The kernel's grid
// keeps cuts outside [Min, Max] (out-of-domain rows must evaluate
// exactly), so it can be larger than the one Transform enumerated.
const maxKernelCells = DefaultMaxCells

// Fallback reasons: why a workload is evaluated outside the scan kernel.
// They are the reason label values of apex_scan_fallback_total.
const (
	// FallbackOpaque: a predicate only evaluates row-at-a-time
	// (dataset.Func); the workload takes the row path.
	FallbackOpaque = "opaque"
	// FallbackImplicit: the transformation has no component grid (a
	// component too large to enumerate); each predicate is evaluated as a
	// workload of its own, one scan kernel pass over its columns.
	FallbackImplicit = "implicit"
	// FallbackGrid: the kernel's own cell table, or the partition space,
	// is too large to index — or a lone predicate's own component is too
	// large to enumerate; the workload takes the row path.
	FallbackGrid = "grid"
)

// FallbackReasons lists every fallback reason, for metric registration.
var FallbackReasons = []string{FallbackOpaque, FallbackImplicit, FallbackGrid}

// colKernels is the scan kernel of one workload.
type colKernels struct {
	// fallback is empty when the scan kernel applies, else the reason it
	// does not.
	fallback string
	comps    []compKernel // aligned with Transformed.comps
	// cols is the sorted set of schema positions an evaluation reads.
	cols []int
	// predCols are, on the FallbackImplicit path, the sorted columns each
	// predicate's own evaluation reads (aligned with Transformed.preds);
	// nil for a predicate whose own grid takes the row path, counted in
	// rowPreds.
	predCols [][]int
	rowPreds int
}

// compKernel classifies rows into one component's signatures.
type compKernel struct {
	atoms []*dataset.Atoms // aligned with component.attrs; first is most significant
	// cellSig maps a cell (mixed radix over the atoms) to its signature
	// id. The final entry is the skip cell: misfit rows are parked there
	// during the scan and evaluated row-at-a-time afterwards.
	cellSig []int32
	// sigs is the signature text per id. Ids below len(partSigs) are the
	// component's partition indices; the rest are signatures no in-domain
	// tuple produces. len(sigs) itself is the skip cell's id.
	sigs []string
}

// kernels builds the evaluator once per Transformed.
func (tr *Transformed) kernels() *colKernels {
	tr.kOnce.Do(func() { tr.k = buildKernels(tr) })
	return &tr.k
}

func buildKernels(tr *Transformed) colKernels {
	if tr.acc.opaque {
		return colKernels{fallback: FallbackOpaque}
	}
	if tr.comps == nil {
		if len(tr.preds) == 1 {
			// A lone predicate's own component is too large: evaluating it
			// as a workload of its own would land here again.
			return colKernels{fallback: FallbackGrid}
		}
		k := colKernels{fallback: FallbackImplicit, predCols: make([][]int, len(tr.preds))}
		for i, p := range tr.preds {
			cols, fits := soloColumns(tr.schema, p)
			k.cols = append(k.cols, cols...)
			if fits {
				k.predCols[i] = cols
			} else {
				k.rowPreds++
			}
		}
		slices.Sort(k.cols)
		k.cols = slices.Compact(k.cols)
		return k
	}
	if tr.parts >= math.MaxInt32 {
		return colKernels{fallback: FallbackGrid}
	}
	k := colKernels{comps: make([]compKernel, len(tr.comps))}
	for ci, c := range tr.comps {
		kc, ok := buildCompKernel(tr, c)
		if !ok {
			return colKernels{fallback: FallbackGrid}
		}
		k.comps[ci] = kc
		k.cols = append(k.cols, c.attrs...) // components partition the attributes
	}
	sort.Ints(k.cols)
	return k
}

// soloColumns returns the sorted columns predicate p reads and whether p
// as a workload of its own — how an implicit transformation evaluates it
// — gets a component grid that both Transform and the scan kernel index.
// When it does not, p takes the row path.
func soloColumns(s *dataset.Schema, p dataset.Predicate) ([]int, bool) {
	var cols []int
	for _, attr := range p.Attrs() {
		if pos, ok := s.Lookup(attr); ok {
			cols = append(cols, pos)
		}
	}
	slices.Sort(cols)
	cols = slices.Compact(cols)
	acc := newAtomAcc(s)
	if acc.collect(p) != nil { // unreachable: p's workload collected it
		return cols, false
	}
	if _, _, ok := acc.grid(cols, DefaultMaxCells); !ok {
		return cols, false
	}
	_, _, ok := acc.atoms(cols)
	return cols, ok
}

// atoms returns the scan kernel's atoms of each attribute under the
// collected constants and the number of cells of their product, or false
// once that passes maxKernelCells.
func (a *atomAcc) atoms(attrs []int) (atoms []*dataset.Atoms, cells int, ok bool) {
	atoms = make([]*dataset.Atoms, len(attrs))
	cells = 1
	for i, pos := range attrs {
		if a.schema.Attr(pos).Kind == dataset.Categorical {
			atoms[i] = dataset.CatAtoms(pos, slices.Collect(maps.Keys(a.strs[pos])))
		} else {
			atoms[i] = dataset.NumAtoms(pos, slices.Collect(maps.Keys(a.nums[pos])))
		}
		if cells *= atoms[i].Count(); cells > maxKernelCells {
			return nil, 0, false
		}
	}
	return atoms, cells, true
}

func buildCompKernel(tr *Transformed, c *component) (compKernel, bool) {
	atoms, cells, ok := tr.acc.atoms(c.attrs)
	if !ok {
		return compKernel{}, false
	}
	kc := compKernel{atoms: atoms}

	sigID := make(map[string]int32, len(c.sigToPart))
	for sig, part := range c.sigToPart {
		sigID[sig] = int32(part)
	}
	kc.sigs = append([]string(nil), c.partSigs...)
	kc.cellSig = make([]int32, cells+1)

	// Enumerate the grid like an odometer, last attribute fastest — the
	// order in which the scan's mixed radix numbers the cells. The row
	// template carries NULLs outside the component; no predicate of it
	// reads them.
	row := make(dataset.Tuple, tr.schema.Arity())
	idx := make([]int, len(c.attrs))
	sig := make([]byte, len(c.predIdx))
	for cell := 0; cell < cells; cell++ {
		reachable := true
		for i, a := range kc.atoms {
			v, ok := a.Rep(idx[i])
			row[a.Pos()] = v
			reachable = reachable && ok
		}
		if reachable { // an empty interval holds no row; its entry is never read
			for bi, pi := range c.predIdx {
				sig[bi] = '0'
				if tr.preds[pi].Eval(tr.schema, row) {
					sig[bi] = '1'
				}
			}
			id, ok := sigID[string(sig)]
			if !ok {
				id = int32(len(kc.sigs))
				sigID[string(sig)] = id
				kc.sigs = append(kc.sigs, string(sig))
			}
			kc.cellSig[cell] = id
		}
		for i := len(idx) - 1; i >= 0; i-- {
			if idx[i]++; idx[i] < kc.atoms[i].Count() {
				break
			}
			idx[i] = 0
		}
	}
	kc.cellSig[cells] = int32(len(kc.sigs))
	return kc, true
}

// scanTraffic returns what an evaluation over d reads, given what
// d.Projection (or PlannedProjection) said of the kernel's column set: the
// full-column passes it issues, the rows it classifies (per column read)
// and the storage bytes behind them. A projection hit passes over no
// column: it classifies the projection's rows and reads the projection's
// own columns and weights. A build and an ineligible set read each
// referenced column of the table once — the build's answer from the
// projection it just made is not counted again; an aborted build reads
// them twice, once for the attempt and once for the row pass. The
// implicit path pays one pass per (predicate, column); the row path's
// traffic is not modelled by the column directory.
func (k *colKernels) scanTraffic(d *dataset.Table, proj *dataset.Projection, outcome string) (passes int, rows, bytes int64) {
	switch {
	case k.fallback == "" && outcome == dataset.ProjectionHit:
		return 0, int64(len(k.cols)) * int64(proj.Table().Size()), proj.Bytes()
	case k.fallback == "":
		passes = len(k.cols)
		for _, pos := range k.cols {
			bytes += d.ColumnScanBytes(pos)
		}
		if outcome == dataset.ProjectionAbort {
			passes, bytes = 2*passes, 2*bytes
		}
	case k.fallback == FallbackImplicit:
		for _, cols := range k.predCols {
			for _, pos := range cols {
				passes++
				bytes += d.ColumnScanBytes(pos)
			}
		}
	}
	return passes, int64(passes) * int64(d.Size()), bytes
}

// ScanPlan predicts the scan a noise-free evaluation of this workload
// alone would issue over d, without running it: the sorted set of columns
// the workload references and the byte traffic. It runs the identical
// accounting as EvaluateBatch over what d.PlannedProjection predicts — a
// projection hit reads the projection's bytes rather than the columns', a
// build or an ineligible set each column once. exact says the prediction
// equals BatchStats.ScanBytes of a single-workload batch to the byte. It is
// false when the evaluation would take the row path, whose traffic the
// column accounting does not model (cols is then nil), when some predicate
// of an implicit transformation would, and for a column set never tried
// whose build may abort, which reads its columns twice: the prediction
// assumes the build.
func (tr *Transformed) ScanPlan(d *dataset.Table) (cols []int, scanBytes int64, exact bool) {
	k := tr.kernels()
	if k.fallback == FallbackOpaque || k.fallback == FallbackGrid {
		return nil, 0, false
	}
	var proj *dataset.Projection
	var outcome string
	exact = k.rowPreds == 0
	if k.fallback == "" {
		proj, outcome = d.PlannedProjection(k.cols)
		exact = outcome != dataset.ProjectionBuild || !d.ProjectionMayAbort(k.cols)
	}
	_, _, scanBytes = k.scanTraffic(d, proj, outcome)
	return append([]int(nil), k.cols...), scanBytes, exact
}

// evalTask is one workload's share of an evaluation: what is wanted, and
// the results once evaluate returns.
type evalTask struct {
	tr          *Transformed
	hist, truth bool

	x      []float64
	xErr   error
	truths []float64

	// unprojected keeps the task on the table's rows whatever projection
	// the table could offer (EvaluateUnprojected).
	unprojected bool

	// Set by bind for a kernel task, nil/empty for a fallback one. src is
	// what the scan reads: the rows of proj, the projection of the kernel's
	// column set, when the table has one (outcome says whether this task
	// built it), else the table itself. readers are the kernel's atoms
	// bound to src, by component and attribute.
	src     *dataset.Table
	proj    *dataset.Projection
	outcome string
	readers [][]*dataset.AtomReader
}

// bind decides what the task scans and binds the kernel's atoms to it.
func (t *evalTask) bind(d *dataset.Table) {
	k := t.tr.kernels()
	if k.fallback != "" {
		return
	}
	t.src, t.outcome = d, dataset.ProjectionIneligible
	if !t.unprojected {
		if t.proj, t.outcome = d.Projection(k.cols); t.proj != nil {
			t.src = t.proj.Table()
		}
	}
	t.bindReaders(t.src)
}

func (t *evalTask) bindReaders(src *dataset.Table) {
	k := t.tr.kernels()
	t.readers = make([][]*dataset.AtomReader, len(k.comps))
	for ci := range k.comps {
		for _, a := range k.comps[ci].atoms {
			t.readers[ci] = append(t.readers[ci], a.Bind(src))
		}
	}
}

// counts accumulates one worker's share of one task.
type counts struct {
	sig [][]int64 // per component, by signature id; the last slot is the skip cell's
	// joint counts rows per global partition when the histogram spans
	// several components (a single component's histogram is its signature
	// counts); the last slot collects misfit rows.
	joint []int64
}

func (t *evalTask) newCounts() *counts {
	k := t.tr.kernels()
	c := &counts{sig: make([][]int64, len(k.comps))}
	for ci := range k.comps {
		c.sig[ci] = make([]int64, len(k.comps[ci].sigs)+1)
	}
	if t.hist && len(k.comps) > 1 {
		c.joint = make([]int64, t.tr.parts+1)
	}
	return c
}

// morselBufs are one worker's scratch buffers.
type morselBufs struct {
	atoms, cell, part [morselRows]uint32
}

// classify fills cell with the component-ci cell of every row in
// [lo, lo+len(cell)), parking misfit rows in the skip cell.
func (t *evalTask) classify(ci, lo int, misfits []int, cell, atoms []uint32) {
	kc := &t.tr.kernels().comps[ci]
	if len(kc.atoms) == 0 { // a component of attribute-free predicates: one cell
		clear(cell)
	}
	for ai, r := range t.readers[ci] {
		if ai == 0 {
			r.Read(lo, cell)
			continue
		}
		r.Read(lo, atoms)
		radix := uint32(kc.atoms[ai].Count())
		for i, a := range atoms {
			cell[i] = cell[i]*radix + a
		}
	}
	for _, r := range misfits {
		cell[r-lo] = uint32(len(kc.cellSig) - 1)
	}
}

// scanMorsel counts rows [lo, hi) of the task's source into c: one per
// row, or the row's weight when the source is a projection.
func (t *evalTask) scanMorsel(lo, hi int, c *counts, b *morselBufs) {
	k := t.tr.kernels()
	n := hi - lo
	cell, atoms, part := b.cell[:n], b.atoms[:n], b.part[:n]
	misfits := rowsIn(t.src.MisfitRows(), lo, hi)
	var w []uint32
	if t.proj != nil {
		w = t.proj.Weights()[lo:hi]
	}
	if c.joint != nil {
		clear(part)
	}
	for ci := range k.comps {
		t.classify(ci, lo, misfits, cell, atoms)
		cellSig, cnt := k.comps[ci].cellSig, c.sig[ci]
		if c.joint == nil {
			if w == nil {
				for _, x := range cell {
					cnt[cellSig[x]]++
				}
			} else {
				for i, x := range cell {
					cnt[cellSig[x]] += int64(w[i])
				}
			}
			continue
		}
		// An unseen signature has no partition; count the row anywhere —
		// its signature count already dooms the histogram.
		radix := uint32(len(t.tr.comps[ci].partSigs))
		if w == nil {
			for i, x := range cell {
				s := cellSig[x]
				cnt[s]++
				p := uint32(s)
				if p >= radix {
					p = 0
				}
				part[i] = part[i]*radix + p
			}
		} else {
			for i, x := range cell {
				s := cellSig[x]
				cnt[s] += int64(w[i])
				p := uint32(s)
				if p >= radix {
					p = 0
				}
				part[i] = part[i]*radix + p
			}
		}
	}
	if c.joint != nil {
		for _, r := range misfits {
			part[r-lo] = uint32(len(c.joint) - 1)
		}
		if w == nil {
			for _, p := range part {
				c.joint[p]++
			}
		} else {
			for i, p := range part {
				c.joint[p] += int64(w[i])
			}
		}
	}
}

// rowsIn returns the subslice of the sorted rows lying in [lo, hi).
func rowsIn(rows []int, lo, hi int) []int {
	if len(rows) == 0 {
		return nil
	}
	i := sort.SearchInts(rows, lo)
	return rows[i : i+sort.SearchInts(rows[i:], hi)]
}

// evaluate computes every task's requested results over d.
func evaluate(d *dataset.Table, tasks []*evalTask) {
	for _, t := range tasks {
		t.bind(d)
	}
	scan(d, tasks)
}

// scan runs the bound tasks. Work is cut into (task, morsel) units pulled
// by up to GOMAXPROCS workers, so a lone workload spreads over the cores
// exactly as a batch of many does; a fallback task is one unit. Each
// worker counts into its own integer accumulators, summed at the end — the
// result does not depend on the worker count or on which worker took which
// morsel.
func scan(d *dataset.Table, tasks []*evalTask) {
	// first[i] is task i's first unit; first[len(tasks)] the unit count.
	first := make([]int, len(tasks)+1)
	for i, t := range tasks {
		first[i+1] = first[i] + 1
		if t.src != nil {
			first[i+1] = first[i] + (t.src.Size()+morselRows-1)/morselRows
		}
	}
	units := first[len(tasks)]
	nw := max(1, min(runtime.GOMAXPROCS(0), units))
	partial := make([][]*counts, nw) // [worker][task]

	var next atomic.Int64
	work := func(w int) {
		var bufs morselBufs
		mine := make([]*counts, len(tasks))
		partial[w] = mine
		ti := 0
		for {
			u := int(next.Add(1)) - 1
			if u >= units {
				return
			}
			for u >= first[ti+1] { // units are handed out in order
				ti++
			}
			t := tasks[ti]
			if t.src == nil {
				t.evalFallback(d)
				continue
			}
			if mine[ti] == nil {
				mine[ti] = t.newCounts()
			}
			lo := (u - first[ti]) * morselRows
			t.scanMorsel(lo, min(lo+morselRows, t.src.Size()), mine[ti], &bufs)
		}
	}
	if nw == 1 {
		work(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				work(w)
			}(w)
		}
		wg.Wait()
	}

	for ti, t := range tasks {
		if t.src == nil {
			continue
		}
		total := t.newCounts()
		for _, mine := range partial {
			if mine == nil || mine[ti] == nil {
				continue
			}
			for ci, cnt := range mine[ti].sig {
				for s, v := range cnt {
					total.sig[ci][s] += v
				}
			}
			for p, v := range mine[ti].joint {
				total.joint[p] += v
			}
		}
		t.finish(d, total)
	}
}

// evalFallback evaluates a task the scan kernel does not cover.
func (t *evalTask) evalFallback(d *dataset.Table) {
	k := t.tr.kernels()
	if t.hist {
		t.x, t.xErr = t.tr.HistogramRows(d)
	}
	if !t.truth {
		return
	}
	if k.fallback != FallbackImplicit {
		t.truths = t.tr.TrueAnswersRows(d)
		return
	}
	// Each predicate alone, over the table's rows: L column sets of one
	// predicate each would crowd the table's projections out.
	t.truths = make([]float64, len(t.tr.preds))
	for j := range t.truths {
		solo := &evalTask{tr: t.tr.soloTransform(j), truth: true, unprojected: true}
		evaluate(d, []*evalTask{solo})
		t.truths[j] = solo.truths[0]
	}
}

// soloTransform returns predicate j as a workload of its own, the form in
// which an implicit transformation evaluates it. Only the per-predicate
// column positions are kept between evaluations (colKernels.predCols).
func (tr *Transformed) soloTransform(j int) *Transformed {
	solo, err := Transform(tr.schema, tr.preds[j:j+1], Options{})
	if err != nil { // unreachable: tr's own Transform collected the predicate
		panic(fmt.Sprintf("workload: predicate %d transforms in its workload but not alone: %v", j, err))
	}
	return solo
}

// finish turns the summed counts into the task's results, after
// evaluating the misfit rows the scan parked — row-at-a-time, the only
// way their per-cell semantics can be seen.
func (t *evalTask) finish(d *dataset.Table, c *counts) {
	tr, k := t.tr, t.tr.kernels()
	if t.truth {
		t.truths = make([]float64, len(tr.preds))
		for ci, comp := range tr.comps {
			for s, sig := range k.comps[ci].sigs {
				for bi, pi := range comp.predIdx {
					if sig[bi] == '1' {
						t.truths[pi] += float64(c.sig[ci][s])
					}
				}
			}
		}
	}
	if t.hist {
		t.x = make([]float64, tr.parts)
		for p := range t.x {
			if c.joint != nil {
				t.x[p] = float64(c.joint[p])
			} else {
				t.x[p] = float64(c.sig[0][p])
			}
		}
	}
	badRow, badSig := -1, ""
	for _, r := range d.MisfitRows() {
		row := d.Row(r)
		if t.truth {
			for j, p := range tr.preds {
				if p.Eval(tr.schema, row) {
					t.truths[j]++
				}
			}
		}
		if t.hist && badRow < 0 {
			if p, sig := tr.partitionOf(row); p >= 0 {
				t.x[p]++
			} else {
				badRow, badSig = r, sig
			}
		}
	}
	if !t.hist {
		return
	}
	// The row path fails at the first row outside the public domain,
	// naming the first component that does not know its signature. Counts
	// say whether such a row exists; only then is it worth finding.
	if c.anyUnseen(tr) {
		if r, sig := t.firstUnseen(d); badRow < 0 || r < badRow {
			badRow, badSig = r, sig
		}
	}
	if badRow >= 0 {
		t.x, t.xErr = nil, unseenSignature(badRow, badSig)
	}
}

// anyUnseen reports whether some scanned row carries a signature its
// component has no partition for (the skip slot excluded).
func (c *counts) anyUnseen(tr *Transformed) bool {
	for ci, comp := range tr.comps {
		cnt := c.sig[ci]
		for _, v := range cnt[len(comp.partSigs) : len(cnt)-1] {
			if v > 0 {
				return true
			}
		}
	}
	return false
}

// firstUnseen rescans d's own rows in order for the first non-misfit row
// whose signature some component has no partition for; ties between
// components go to the earlier one, like the row path's component loop.
func (t *evalTask) firstUnseen(d *dataset.Table) (int, string) {
	tr, k := t.tr, t.tr.kernels()
	if t.src != d { // a projection has no row numbers
		t.bindReaders(d)
	}
	var b morselBufs
	for lo := 0; lo < d.Size(); lo += morselRows {
		hi := min(lo+morselRows, d.Size())
		cell := b.cell[:hi-lo]
		misfits := rowsIn(d.MisfitRows(), lo, hi)
		badRow, badSig := -1, ""
		for ci := range k.comps {
			kc := &k.comps[ci]
			t.classify(ci, lo, misfits, cell, b.atoms[:hi-lo])
			parts, skip := int32(len(tr.comps[ci].partSigs)), int32(len(kc.sigs))
			for i, x := range cell {
				if badRow >= 0 && lo+i >= badRow {
					break
				}
				if s := kc.cellSig[x]; s >= parts && s != skip {
					badRow, badSig = lo+i, kc.sigs[s]
					break
				}
			}
		}
		if badRow >= 0 {
			return badRow, badSig
		}
	}
	return -1, "" // unreachable: the caller counted such a row
}

// unseenSignature renders the row path's out-of-domain error.
func unseenSignature(row int, sig string) error {
	return fmt.Errorf("workload: row %d: tuple outside public domain (unseen signature %s)", row, sig)
}

// Sums returns the exact per-predicate sums of the continuous attribute
// at schema position pos over d's rows, from one classify pass of the
// scan kernel: each row's value, clipped to the attribute's public domain
// (dataset.Attribute.Clamp), is added to every predicate the row's cells
// make true, in row order, and a misfit row is evaluated row-at-a-time
// where it stands — so every sum is bit for bit the row-at-a-time one. A
// NULL, non-numeric or NaN value adds nothing. An implicit transformation
// sums predicate by predicate, as it counts. ok is false when some
// predicate takes the row path (opaque predicates, a grid too large to
// index) or pos is not continuous; the caller sums row-at-a-time then.
func (tr *Transformed) Sums(d *dataset.Table, pos int) (sums []float64, ok bool) {
	k := tr.kernels()
	if k.fallback == FallbackImplicit && k.rowPreds == 0 {
		sums = make([]float64, len(tr.preds))
		for j := range sums {
			s, ok := tr.soloTransform(j).Sums(d, pos)
			if !ok {
				return nil, false
			}
			sums[j] = s[0]
		}
		return sums, true
	}
	vals, missing, ok := d.Floats(pos)
	if k.fallback != "" || !ok {
		return nil, false
	}
	a := tr.schema.Attr(pos)
	// hits[ci][s] lists the predicates signature s of component ci makes
	// true; the skip cell's id has no entry (its rows are misfits).
	hits := make([][][]int, len(k.comps))
	sig := make([][]int32, len(k.comps))
	for ci, comp := range tr.comps {
		hits[ci] = make([][]int, len(k.comps[ci].sigs))
		for s, text := range k.comps[ci].sigs {
			for bi, pi := range comp.predIdx {
				if text[bi] == '1' {
					hits[ci][s] = append(hits[ci][s], pi)
				}
			}
		}
		sig[ci] = make([]int32, morselRows)
	}
	t := &evalTask{tr: tr, src: d}
	t.bindReaders(d)
	sums = make([]float64, len(tr.preds))
	var b morselBufs
	for lo := 0; lo < d.Size(); lo += morselRows {
		hi := min(lo+morselRows, d.Size())
		cell := b.cell[:hi-lo]
		misfits := rowsIn(d.MisfitRows(), lo, hi)
		for ci := range k.comps {
			t.classify(ci, lo, misfits, cell, b.atoms[:hi-lo])
			cellSig := k.comps[ci].cellSig
			for i, x := range cell {
				sig[ci][i] = cellSig[x]
			}
		}
		for r := lo; r < hi; r++ {
			if len(misfits) > 0 && misfits[0] == r {
				misfits = misfits[1:]
				row := d.Row(r)
				v, ok := row[pos].AsNum()
				if ok {
					v, ok = a.Clamp(v)
				}
				if !ok {
					continue
				}
				for j, p := range tr.preds {
					if p.Eval(tr.schema, row) {
						sums[j] += v
					}
				}
				continue
			}
			if missing.Get(r) {
				continue
			}
			v, ok := a.Clamp(vals[r])
			if !ok {
				continue
			}
			for ci := range sig {
				for _, j := range hits[ci][sig[ci][r-lo]] {
					sums[j] += v
				}
			}
		}
	}
	return sums, true
}
