// Package server turns the APEx library into a multi-tenant HTTP/JSON
// service: a dataset registry holds the owner's named tables, a session
// manager runs one privacy engine per analyst session, and the HTTP layer
// exposes session creation, query answering in the paper's text syntax,
// and full per-session transcripts for audit.
//
// Each session owns an isolated engine (its own budget B, translator mode
// and random source), so concurrent analysts cannot observe or drain each
// other's budgets; the engine's own locking keeps individual sessions
// race-safe under concurrent requests. What sessions over the same
// dataset do share is the registry's per-dataset evaluation cache: one
// workload transformation and one noise-free Histogram/TrueAnswers scan
// per distinct workload, with noise still drawn per session by the
// mechanisms — cached noise-free values never leave the server.
//
// Durable datasets are additionally backed by the column store
// (internal/colstore): ingest streams the CSV into a checksummed segment
// file next to schema.json, and the storage policy decides per dataset
// whether the serving table lives on the heap (small tables) or is the
// segment mmap'd read-only (large ones) — queries run the same columnar
// kernels either way, and recovery opens the segment instead of
// re-parsing the source CSV.
package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/colstore"
	"repro/internal/dataset"
	"repro/internal/store"
	"repro/internal/translate"
	"repro/internal/workload"
)

// ErrDuplicateDataset is returned when registering a name that is taken.
var ErrDuplicateDataset = errors.New("server: dataset already registered")

// ErrStoreFailed marks a dataset-persistence failure: the registration
// was rejected because it could not be made durable. The server maps it
// to a 5xx, distinct from the analyst/owner input errors.
var ErrStoreFailed = errors.New("server: dataset persistence failed")

// StorageMode says where a registered dataset's serving table lives.
type StorageMode int

const (
	// StorageHeap: the columns are ordinary Go slices in process memory.
	StorageHeap StorageMode = iota
	// StorageMmap: the columns alias a read-only mapping of the dataset's
	// column-store segment; the page cache is the working set.
	StorageMmap
)

// String implements fmt.Stringer ("heap" / "mmap").
func (m StorageMode) String() string {
	if m == StorageMmap {
		return "mmap"
	}
	return "heap"
}

// DefaultMmapThreshold is the full-width column-bytes size (4 B a
// categorical cell, 8 B a continuous one — what the table would occupy
// unpacked) at which a durable dataset switches from heap to mmap serving
// when the owner sets no explicit policy: 64 MiB keeps small exploratory
// tables in RAM and maps everything that would meaningfully compete with
// the OS page cache.
const DefaultMmapThreshold int64 = 64 << 20

// StoragePolicy is the owner's resident-memory policy for durable
// datasets.
type StoragePolicy struct {
	// MmapThreshold is the full-width column payload size (bytes) at or
	// above which a dataset is served from its mmap'd segment — the size
	// of the table's shape, not of its encoding, so a segment that packs
	// better after a rebuild keeps its home. 0 maps every durable dataset;
	// a negative value disables mmap entirely (heap always).
	MmapThreshold int64
	// ColdStart restricts recovery to column-store segments: a catalog
	// entry without a valid segment is skipped instead of re-parsed from
	// CSV, and a segment in the retired v1 layout is served as it is
	// instead of being rebuilt from CSV. It proves (and enforces) that
	// restart cost is independent of dataset size — the recoverysmoke
	// runs the server this way with the source CSV deleted.
	ColdStart bool
}

// Dataset is one registered table plus the evaluation cache every session
// over it shares, and the storage bookkeeping behind /metrics.
type Dataset struct {
	Table *dataset.Table
	// Transforms caches workload transformations and their noise-free
	// evaluations across all of the dataset's sessions.
	Transforms *workload.TransformCache
	// Translations caches Monte-Carlo translation plans (sorted error
	// samples + reconstruction scalars), one per distinct query matrix,
	// across all of the dataset's sessions. For durable datasets it is backed by the translate.tc
	// sidecar in the catalog entry, so plans survive restarts.
	Translations *translate.Cache
	// Mode says whether Table's columns live on the heap or alias the
	// mmap'd segment.
	Mode StorageMode
	// Segment is the open column-store segment backing an mmap table
	// (nil for heap tables). It stays open for the process lifetime:
	// closing it would unmap the columns under live sessions.
	Segment *colstore.Segment
}

// DatasetRecovery describes how one catalog entry came back at startup —
// in particular whether the rows were served from the segment (cheap) or
// re-parsed from CSV (the legacy path), and how long that took.
type DatasetRecovery struct {
	Name    string
	Source  string // "segment", "segment (v1), segment rebuilt" or "csv (...)" with the fallback reason
	Mode    StorageMode
	Rows    int
	Elapsed time.Duration
	// TranslatePlans is how many Monte-Carlo translation plans came back
	// from the dataset's sidecar — query matrices a restarted server
	// serves in microseconds instead of re-sampling, under any predicate
	// text.
	TranslatePlans int
}

// Registry is the thread-safe catalog of named sensitive tables the server
// hosts. Tables are immutable once registered; sessions hold direct
// references, so a table can never change under a live session.
type Registry struct {
	mu     sync.RWMutex
	tables map[string]*Dataset
	store  *store.Store // nil: registrations are memory-only
	policy StoragePolicy

	// ingestMu serializes AddCSV end to end so the durable save (segment
	// build plus fsyncs) runs outside r.mu — registrations are rare and
	// may be slow, and they must not stall concurrent reads.
	ingestMu sync.Mutex

	// Storage counters for /metrics.
	segmentOpens       atomic.Int64 // successful segment opens
	segmentOpenFails   atomic.Int64 // opens that failed validation
	segmentQuarantines atomic.Int64 // corrupt segments renamed aside
	csvFallbacks       atomic.Int64 // recoveries that re-parsed CSV
}

// NewRegistry returns an empty registry with the default storage policy.
func NewRegistry() *Registry {
	return &Registry{
		tables: make(map[string]*Dataset),
		policy: StoragePolicy{MmapThreshold: DefaultMmapThreshold},
	}
}

// AttachStore makes CSV registrations durable: every AddCSV/LoadFiles
// from here on persists the schema, rows and column-store segment into
// the store's catalog before the dataset becomes visible. Attach before
// serving traffic.
func (r *Registry) AttachStore(st *store.Store) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.store = st
}

// SetStorage installs the owner's resident-memory policy. Call before
// recovery/ingest; it does not re-home already-registered datasets.
func (r *Registry) SetStorage(p StoragePolicy) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.policy = p
}

// mmapWanted applies the threshold to a segment's full-width column
// payload.
func (p StoragePolicy) mmapWanted(fullWidthBytes int64) bool {
	if p.MmapThreshold < 0 {
		return false
	}
	return fullWidthBytes >= p.MmapThreshold
}

// RecoverDatasets loads every dataset persisted in the attached store
// into the registry (without re-persisting). Entries with a valid
// column-store segment reopen from it — no CSV re-parse, so restart cost
// does not scale with row count; a corrupt segment is quarantined
// (renamed aside, counted in the storage metrics) and the entry falls
// back to the source CSV, which is streamed into a fresh segment in place
// and served from there. Catalogs predating the column store take the
// same fallback+rebuild path, and a healthy segment in the retired v1
// layout is rebuilt at the current format the same way. With
// StoragePolicy.ColdStart set no CSV is read: an entry without a valid
// segment is skipped, and a v1 segment is served as it is.
//
// recovered describes every served entry (source, storage mode, timing);
// skipped describes every catalog entry that could not be served. Damaged
// entries are skipped, not fatal, and stay on disk for the operator. This
// is the first phase of the startup recovery path.
func (r *Registry) RecoverDatasets() (recovered []DatasetRecovery, skipped []string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.store == nil {
		return nil, nil, nil
	}
	recs, skipped, err := r.store.LoadDatasets()
	if err != nil {
		return nil, skipped, err
	}
	for i := range recs {
		rec := &recs[i]
		if _, dup := r.tables[rec.Name]; dup {
			skipped = append(skipped, fmt.Sprintf("%s: already registered", rec.Name))
			continue
		}
		start := time.Now()
		ds, source, rerr := r.openRecord(rec)
		if rerr != nil {
			skipped = append(skipped, fmt.Sprintf("%s: %v", rec.Name, rerr))
			continue
		}
		plans := r.attachTranslationSidecar(rec.Name, ds)
		r.tables[rec.Name] = ds
		recovered = append(recovered, DatasetRecovery{
			Name:           rec.Name,
			Source:         source,
			Mode:           ds.Mode,
			Rows:           ds.Table.Size(),
			Elapsed:        time.Since(start),
			TranslatePlans: plans,
		})
	}
	return recovered, skipped, nil
}

// openRecord brings one catalog entry to a serving table. A segment that
// opens is served; one in the retired v1 layout is additionally rebuilt
// at the current format from the source CSV and reopened, unless
// ColdStart forbids CSV work. A missing or unusable segment takes the CSV
// fallback (unless ColdStart): the segment is rebuilt by the same helper
// and the entry served from it. Only when that rebuild or the reopen
// fails — a full or read-only disk — is the CSV parsed onto the heap, the
// last-resort degraded mode.
func (r *Registry) openRecord(rec *store.DatasetRecord) (*Dataset, string, error) {
	var segErr error
	if rec.SegmentPath != "" {
		ds, ver, err := r.openSegment(rec.SegmentPath, r.policy)
		if err == nil {
			if ver >= colstore.CurrentVersion || r.policy.ColdStart {
				return ds, "segment", nil
			}
			ds, source := r.upgradeSegment(rec, ds, ver)
			return ds, source, nil
		}
		segErr = err
		if errors.Is(err, colstore.ErrCorrupt) {
			if q, qerr := r.store.QuarantineSegment(rec); qerr == nil {
				r.segmentQuarantines.Add(1)
				segErr = fmt.Errorf("%v (quarantined to %s)", err, filepath.Base(q))
			}
		}
		if r.policy.ColdStart {
			return nil, "", fmt.Errorf("cold-start: segment unusable and CSV fallback disabled: %w", segErr)
		}
	} else if r.policy.ColdStart {
		return nil, "", errors.New("cold-start: no column-store segment in catalog entry")
	}

	source := "csv (no segment in catalog)"
	if segErr != nil {
		source = fmt.Sprintf("csv (%v)", segErr)
	}
	rebuildErr := rebuildSegment(r.store, rec)
	if rebuildErr == nil {
		source += ", segment rebuilt"
		// Serve per policy from the fresh segment; no heap table was built.
		if ds, _, err := r.openSegment(rec.SegmentPath, r.policy); err == nil {
			r.csvFallbacks.Add(1)
			return ds, source, nil
		}
	}
	// Degraded mode: the rows are still in the CSV even though a segment
	// cannot be written or read back.
	table, err := readRecordCSV(rec)
	if err != nil {
		if segErr != nil {
			return nil, "", fmt.Errorf("segment: %v; csv: %v", segErr, err)
		}
		return nil, "", err
	}
	r.csvFallbacks.Add(1)
	return newDataset(table, StorageHeap, nil), source, nil
}

// upgradeSegment rebuilds a healthy segment of a retired format version
// at the current one and serves the result. The old table keeps serving
// when the rebuild or the reopen fails; a failed rebuild leaves the file
// exactly as it was.
func (r *Registry) upgradeSegment(rec *store.DatasetRecord, old *Dataset, ver int) (*Dataset, string) {
	if err := rebuildSegment(r.store, rec); err != nil {
		return old, fmt.Sprintf("segment (v%d; rebuild failed: %v)", ver, err)
	}
	r.csvFallbacks.Add(1)
	source := fmt.Sprintf("segment (v%d), segment rebuilt", ver)
	ds, _, err := r.openSegment(rec.SegmentPath, r.policy)
	if err != nil {
		return old, source
	}
	if old.Segment != nil {
		old.Segment.Close() // never registered: nothing else can hold its table
	}
	return ds, source
}

// rebuildSegment streams the entry's source CSV through the segment
// builder (bounded memory — no heap table) and adopts the result as the
// entry's table.seg. It builds under a temp name and adopts via rename,
// so a crash or error mid-rebuild leaves the entry exactly as it was.
func rebuildSegment(st *store.Store, rec *store.DatasetRecord) error {
	src, err := openRecordCSV(rec)
	if err != nil {
		return err
	}
	defer src.Close()
	tmp := filepath.Join(st.DatasetDir(rec.Name), ".rebuild-"+store.SegmentFile)
	if _, err := colstore.BuildCSV(tmp, rec.Schema, src); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := st.AdoptSegment(rec, tmp); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

func openRecordCSV(rec *store.DatasetRecord) (*os.File, error) {
	if rec.CSVPath == "" {
		return nil, fmt.Errorf("dataset %q has no source CSV on disk", rec.Name)
	}
	return os.Open(rec.CSVPath)
}

// readRecordCSV parses the entry's source CSV onto the heap.
func readRecordCSV(rec *store.DatasetRecord) (*dataset.Table, error) {
	src, err := openRecordCSV(rec)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	return dataset.ReadCSV(src, rec.Schema)
}

// openSegment opens a segment and homes its table per the storage policy:
// mapped at or above the threshold, copied onto the heap (and the mapping
// released) below it. It also reports the file's format version.
func (r *Registry) openSegment(path string, p StoragePolicy) (*Dataset, int, error) {
	seg, err := colstore.Open(path)
	if err != nil {
		r.segmentOpenFails.Add(1)
		return nil, 0, err
	}
	r.segmentOpens.Add(1)
	ver := seg.Version()
	if p.mmapWanted(seg.V1DataBytes()) {
		return newDataset(seg.Table(), StorageMmap, seg), ver, nil
	}
	heap, err := colstore.HeapCopy(seg.Table())
	seg.Close()
	if err != nil {
		return nil, 0, err
	}
	return newDataset(heap, StorageHeap, nil), ver, nil
}

func newDataset(t *dataset.Table, mode StorageMode, seg *colstore.Segment) *Dataset {
	return &Dataset{
		Table:        t,
		Transforms:   workload.NewTransformCache(workload.Options{}),
		Translations: translate.NewCache(""),
		Mode:         mode,
		Segment:      seg,
	}
}

// attachTranslationSidecar rebinds a durable dataset's translation cache
// to its catalog sidecar and loads whatever plans a previous process life
// persisted. Called before the dataset is registered (no session can hold
// the memory-only cache yet). Returns the number of plans loaded; a
// corrupt sidecar is quarantined and rebuilt from its valid prefix by the
// cache itself, counted in the registry's translate counters. A sidecar
// in the older text-keyed format loads nothing and is silently replaced
// by the first persist.
func (r *Registry) attachTranslationSidecar(name string, ds *Dataset) int {
	if r.store == nil {
		return 0
	}
	ds.Translations = translate.NewCache(filepath.Join(r.store.DatasetDir(name), store.TranslateSidecarFile))
	loaded, quarantined, err := ds.Translations.LoadSidecar()
	if quarantined != "" {
		fmt.Fprintf(os.Stderr, "apex-server: dataset %s: corrupt translation sidecar quarantined to %s (rebuilt with %d plans)\n",
			name, filepath.Base(quarantined), loaded)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "apex-server: dataset %s: translation sidecar: %v\n", name, err)
	}
	return loaded
}

// HealCorruptSegment is the scrubber's segment-violation response: the
// corrupt table.seg is quarantined (renamed aside, never deleted) and a
// fresh segment is rebuilt from the source CSV and adopted in its place,
// so the next open — and the next restart — reads verified bytes. The
// live serving table is deliberately left untouched: a heap table is
// independent of the file, and an mmap table's mapping pins the old
// inode, so in-flight queries keep their pre-rebuild view and the
// rebuilt segment takes over on restart. Serialized with ingest via
// ingestMu; if the segment verifies clean by the time we hold the lock
// (a concurrent heal won), this is a no-op.
func (r *Registry) HealCorruptSegment(name string) error {
	r.mu.RLock()
	st := r.store
	r.mu.RUnlock()
	if st == nil {
		return fmt.Errorf("server: dataset %q: no store attached, cannot heal", name)
	}
	r.ingestMu.Lock()
	defer r.ingestMu.Unlock()
	rec, err := st.LoadDataset(name)
	if err != nil {
		return err
	}
	if rec.SegmentPath != "" {
		if _, verr := colstore.Verify(rec.SegmentPath); verr == nil {
			return nil // already healed
		}
		if _, qerr := st.QuarantineSegment(rec); qerr != nil {
			return qerr
		}
		r.segmentQuarantines.Add(1)
	}
	if err := rebuildSegment(st, rec); err != nil {
		return fmt.Errorf("server: dataset %q: rebuild from the source CSV: %w", name, err)
	}
	r.csvFallbacks.Add(1)
	return nil
}

// AddCSV parses and registers a dataset from its source CSV. With a store
// attached the rows stream through the column-store builder into a
// durable segment (schema + CSV + segment land atomically in the catalog)
// and the serving table is homed by the storage policy; the registration
// is visible only once it is durable. This is the canonical ingest path
// for both the owner HTTP endpoint and the startup file loader.
func (r *Registry) AddCSV(name string, schema *dataset.Schema, csv []byte) (*dataset.Table, error) {
	return r.addCSV(name, schema,
		func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(csv)), nil })
}

// AddCSVFile is AddCSV reading the rows from a file, streaming them with
// bounded memory on the durable path (the CSV is never fully resident).
func (r *Registry) AddCSVFile(name string, schema *dataset.Schema, csvPath string) (*dataset.Table, error) {
	return r.addCSV(name, schema,
		func() (io.ReadCloser, error) { return os.Open(csvPath) })
}

// addCSV registers from a re-openable CSV source (the durable path reads
// it twice: once through the segment builder, once into the catalog).
func (r *Registry) addCSV(name string, schema *dataset.Schema, openCSV func() (io.ReadCloser, error)) (*dataset.Table, error) {
	if err := validateDatasetName(name); err != nil {
		return nil, err
	}
	if schema == nil {
		return nil, fmt.Errorf("server: dataset %q: nil schema", name)
	}
	// One ingest at a time; r.mu is only taken for the map touches, so
	// reads (listing, session creation) never wait on disk I/O here.
	r.ingestMu.Lock()
	defer r.ingestMu.Unlock()
	r.mu.RLock()
	_, dup := r.tables[name]
	st, policy := r.store, r.policy
	r.mu.RUnlock()
	if dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateDataset, name)
	}

	if st == nil {
		// Memory-only registration: parse straight onto the heap.
		src, err := openCSV()
		if err != nil {
			return nil, err
		}
		defer src.Close()
		table, err := dataset.ReadCSV(src, schema)
		if err != nil {
			return nil, err
		}
		r.register(name, newDataset(table, StorageHeap, nil))
		return table, nil
	}

	tx, err := st.CreateDataset(name)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStoreFailed, err)
	}
	if err := tx.WriteSchema(schema); err != nil {
		tx.Abort()
		return nil, fmt.Errorf("%w: %v", ErrStoreFailed, err)
	}
	// Pass 1: stream the rows through the segment builder. A CSV parse
	// error surfaces here, before anything is persisted.
	src, err := openCSV()
	if err != nil {
		tx.Abort()
		return nil, err
	}
	_, err = colstore.BuildCSV(tx.SegmentPath(), schema, src)
	src.Close()
	if err != nil {
		tx.Abort()
		if errors.Is(err, colstore.ErrIO) {
			// Disk trouble, not the owner's CSV: surface as a
			// persistence failure (500), never a bad-request.
			return nil, fmt.Errorf("%w: %v", ErrStoreFailed, err)
		}
		return nil, err
	}
	// Pass 2: the source CSV, byte-exact, for audit and fallback.
	src, err = openCSV()
	if err != nil {
		tx.Abort()
		return nil, err
	}
	err = tx.StoreCSV(src)
	src.Close()
	if err != nil {
		tx.Abort()
		return nil, fmt.Errorf("%w: %v", ErrStoreFailed, err)
	}
	rec, err := tx.Commit()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStoreFailed, err)
	}

	// Serve from the durable segment, homed by policy. (Failing to open
	// a segment written moments ago means disk trouble; surface it
	// rather than serving state that would not survive a restart.)
	ds, _, err := r.openSegment(rec.SegmentPath, policy)
	if err != nil {
		return nil, fmt.Errorf("%w: reopen fresh segment: %v", ErrStoreFailed, err)
	}
	// Bind the (empty) translation sidecar so plans computed for this
	// dataset persist for future restarts.
	r.attachTranslationSidecar(name, ds)
	r.register(name, ds)
	return ds.Table, nil
}

func (r *Registry) register(name string, ds *Dataset) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tables[name] = ds
}

// Add registers a table under name. Names are unique: re-registering is an
// error so a dataset can't be swapped out from under running sessions.
func (r *Registry) Add(name string, t *dataset.Table) error {
	if err := validateDatasetName(name); err != nil {
		return err
	}
	if t == nil {
		return fmt.Errorf("server: nil table for dataset %q", name)
	}
	r.ingestMu.Lock()
	defer r.ingestMu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.tables[name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateDataset, name)
	}
	r.tables[name] = newDataset(t, StorageHeap, nil)
	return nil
}

// validateDatasetName restricts names to URL-path-safe characters so they
// survive the /v1/datasets/{name} route without escaping.
func validateDatasetName(name string) error {
	if name == "" {
		return fmt.Errorf("server: dataset name must be non-empty")
	}
	if name[0] == '.' {
		// Also keeps catalog directory names ("..", dot-prefixed temp
		// dirs) unreachable from user input.
		return fmt.Errorf("server: dataset name %q must not start with '.'", name)
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '-', c == '.':
		default:
			return fmt.Errorf("server: dataset name %q: only letters, digits, '_', '-' and '.' are allowed", name)
		}
	}
	return nil
}

// LoadFiles reads a CSV + text-schema pair from disk and registers the
// table under name, persisting it (rows streamed, never fully resident)
// when a store is attached. This is the startup path used by
// cmd/apex-server.
func (r *Registry) LoadFiles(name, csvPath, schemaPath string) error {
	sf, err := os.Open(schemaPath)
	if err != nil {
		return fmt.Errorf("server: dataset %q: %w", name, err)
	}
	schema, err := dataset.ReadSchemaText(sf)
	sf.Close()
	if err != nil {
		return fmt.Errorf("server: dataset %q: %w", name, err)
	}
	if _, err := r.AddCSVFile(name, schema, csvPath); err != nil {
		return err
	}
	return nil
}

// Get returns the named table.
func (r *Registry) Get(name string) (*dataset.Table, bool) {
	d, ok := r.Dataset(name)
	if !ok {
		return nil, false
	}
	return d.Table, true
}

// Dataset returns the named table together with its shared evaluation
// cache.
func (r *Registry) Dataset(name string) (*Dataset, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.tables[name]
	return d, ok
}

// Names returns the registered dataset names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.tables))
	for name := range r.tables {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// StorageStat is the /metrics view of one dataset's residency.
type StorageStat struct {
	Name string
	Mode StorageMode
	Rows int
	// DataBytes is the raw column payload; for an mmap dataset,
	// MappedBytes is the segment mapping size and ResidentBytes how much
	// of it physical memory currently holds (mincore). Heap datasets
	// count their full payload as resident.
	DataBytes     int64
	MappedBytes   int64
	ResidentBytes int64
	// SegmentVersion is the on-disk format version (0 for heap datasets
	// without a segment); FileBytes the segment file size on disk; and
	// V1Bytes what the same columns would occupy in the full-width v1
	// layout — FileBytes/V1Bytes is the compression ratio the v2
	// encodings bought.
	SegmentVersion int
	FileBytes      int64
	V1Bytes        int64
	// Columns counts the dataset's columns by the encoding they are
	// served in (colstore.Encodings); "raw" is where a column that fit no
	// packed form fell back to.
	Columns map[string]int
}

// StorageCounters are the registry's lifetime segment counters.
type StorageCounters struct {
	SegmentOpens       int64
	SegmentOpenFails   int64
	SegmentQuarantines int64
	CSVFallbacks       int64
}

// StorageStats snapshots per-dataset residency for the metrics collector.
func (r *Registry) StorageStats() []StorageStat {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]StorageStat, 0, len(r.tables))
	for name, ds := range r.tables {
		stat := StorageStat{Name: name, Mode: ds.Mode, Rows: ds.Table.Size(), Columns: map[string]int{}}
		for pos := 0; pos < ds.Table.Schema().Arity(); pos++ {
			stat.Columns[colstore.EncodingOf(ds.Table.ColumnData(pos))]++
		}
		if ds.Segment != nil {
			stat.DataBytes = ds.Segment.DataBytes()
			stat.MappedBytes = ds.Segment.MappedBytes()
			stat.SegmentVersion = ds.Segment.Version()
			stat.FileBytes = ds.Segment.MappedBytes()
			stat.V1Bytes = ds.Segment.V1DataBytes()
			if res, err := ds.Segment.ResidentBytes(); err == nil {
				stat.ResidentBytes = res
			}
		} else {
			stat.DataBytes = heapColumnBytes(ds.Table)
			stat.ResidentBytes = stat.DataBytes
		}
		out = append(out, stat)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TranslateStat is one dataset's translation-cache counters for /metrics.
type TranslateStat struct {
	Name  string
	Stats translate.Stats
}

// TranslateStats snapshots every dataset's translation-plane counters.
func (r *Registry) TranslateStats() []TranslateStat {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]TranslateStat, 0, len(r.tables))
	for name, ds := range r.tables {
		if ds.Translations == nil {
			continue
		}
		out = append(out, TranslateStat{Name: name, Stats: ds.Translations.Stats()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Counters snapshots the registry's segment counters.
func (r *Registry) Counters() StorageCounters {
	return StorageCounters{
		SegmentOpens:       r.segmentOpens.Load(),
		SegmentOpenFails:   r.segmentOpenFails.Load(),
		SegmentQuarantines: r.segmentQuarantines.Load(),
		CSVFallbacks:       r.csvFallbacks.Load(),
	}
}

// heapColumnBytes estimates a heap table's raw column payload with the
// same accounting the segment builder uses.
func heapColumnBytes(t *dataset.Table) int64 {
	var total int64
	for pos := 0; pos < t.Schema().Arity(); pos++ {
		cd := t.ColumnData(pos)
		total += int64(len(cd.Codes))*4 + int64(len(cd.Vals))*8 + int64(len(cd.MissingWords))*8
		if cd.PackedCodes != nil {
			total += int64(len(cd.PackedCodes.Words)) * 8
		}
		if cd.PackedVals != nil {
			total += int64(len(cd.PackedVals.Ints.Words)) * 8
		}
		for _, s := range cd.Dict {
			total += int64(len(s)) + 1
		}
	}
	return total
}
