package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/dataset"
	"repro/internal/durable"
)

// Catalog entry files. A dataset directory holds the public schema, the
// source CSV exactly as ingested, and (for catalogs written since the
// column store landed) the serialized segment the server can mmap instead
// of re-parsing the CSV. Old catalogs without a segment still load — the
// registry re-parses the CSV and heals the entry by writing the segment.
const (
	SchemaFile  = "schema.json"
	CSVFile     = "data.csv"
	SegmentFile = "table.seg"
	// TranslateSidecarFile is the Monte-Carlo translation sidecar: the
	// dataset's persisted translation plans (internal/translate), written
	// atomically beside schema.json and reloaded on recovery so a restart
	// never re-samples a previously translated workload.
	TranslateSidecarFile = "translate.tc"
)

// DatasetRecord is one durable catalog entry. SegmentPath and CSVPath
// point at the on-disk artifacts ("" when absent): recovery opens the
// segment when there is one and only falls back to re-parsing the CSV
// when there isn't (or the segment is corrupt), so a restart never pays
// the full-CSV parse for a healthy modern catalog entry and never pulls
// the rows into memory just to list the catalog.
type DatasetRecord struct {
	Name        string
	Schema      *dataset.Schema
	CSVPath     string
	SegmentPath string
}

// DatasetTx stages one dataset registration in a temp directory inside
// the catalog: the caller writes schema, CSV and segment into Dir(), then
// Commit renames the directory into place atomically and fsyncs the
// catalog. A crash mid-build leaves only an invisible temp directory,
// swept by the next LoadDatasets.
type DatasetTx struct {
	store *Store
	name  string
	tmp   string
	final string
	done  bool
}

// CreateDataset begins a staged registration. Registering a name that is
// already persisted is an error; the catalog never swaps a table out from
// under live sessions.
func (s *Store) CreateDataset(name string) (*DatasetTx, error) {
	if name == "" || name != filepath.Base(name) || name[0] == '.' {
		return nil, fmt.Errorf("store: invalid dataset name %q", name)
	}
	final := filepath.Join(s.catalogDir(), name)
	if _, err := os.Stat(final); err == nil {
		return nil, fmt.Errorf("store: dataset %q already persisted", name)
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: %w", err)
	}
	tmp, err := os.MkdirTemp(s.catalogDir(), ".tmp-"+name+"-")
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &DatasetTx{store: s, name: name, tmp: tmp, final: final}, nil
}

// Dir returns the staging directory; SegmentPath names the segment file
// the column-store builder should write inside it.
func (tx *DatasetTx) Dir() string         { return tx.tmp }
func (tx *DatasetTx) SegmentPath() string { return filepath.Join(tx.tmp, SegmentFile) }

// WriteSchema persists the public schema into the staging directory.
func (tx *DatasetTx) WriteSchema(schema *dataset.Schema) error {
	schemaJSON, err := json.Marshal(schema)
	if err != nil {
		return fmt.Errorf("store: dataset %q schema: %w", tx.name, err)
	}
	return tx.storeFile(SchemaFile, bytes.NewReader(schemaJSON))
}

// StoreCSV streams the source rows into the staging directory and fsyncs
// them, without ever holding the whole file in memory.
func (tx *DatasetTx) StoreCSV(r io.Reader) error { return tx.storeFile(CSVFile, r) }

func (tx *DatasetTx) storeFile(name string, r io.Reader) error {
	fill := func(f *os.File) error { _, err := io.Copy(f, r); return err }
	if err := durable.WriteFile(filepath.Join(tx.tmp, name), fill); err != nil {
		return fmt.Errorf("store: dataset %q: %w", tx.name, err)
	}
	return nil
}

// Commit renames the staged directory into the catalog. After a nil
// return the dataset is durable; the tx is spent either way.
func (tx *DatasetTx) Commit() (*DatasetRecord, error) {
	if tx.done {
		return nil, fmt.Errorf("store: dataset %q transaction already finished", tx.name)
	}
	tx.done = true
	if err := durable.Rename(tx.tmp, tx.final); err != nil {
		os.RemoveAll(tx.tmp) // a no-op when only the directory fsync failed
		return nil, fmt.Errorf("store: dataset %q: %w", tx.name, err)
	}
	return tx.store.loadDataset(tx.name)
}

// Abort discards the staging directory. Safe after Commit (no-op).
func (tx *DatasetTx) Abort() {
	if !tx.done {
		tx.done = true
		os.RemoveAll(tx.tmp)
	}
}

// SaveDataset durably persists one dataset from in-memory schema + CSV
// bytes (no segment; the registry's ingest path writes segments through
// CreateDataset directly). Kept as the simple whole-payload convenience.
func (s *Store) SaveDataset(name string, schema *dataset.Schema, csv []byte) error {
	tx, err := s.CreateDataset(name)
	if err != nil {
		return err
	}
	if err := tx.WriteSchema(schema); err != nil {
		tx.Abort()
		return err
	}
	if err := tx.StoreCSV(bytes.NewReader(csv)); err != nil {
		tx.Abort()
		return err
	}
	_, err = tx.Commit()
	return err
}

// QuarantineSegment renames a corrupt segment aside (table.seg →
// table.seg.quarantined) so the entry falls back to its CSV and the bad
// file stays inspectable. It never deletes data.
func (s *Store) QuarantineSegment(rec *DatasetRecord) (string, error) {
	if rec.SegmentPath == "" {
		return "", fmt.Errorf("store: dataset %q has no segment to quarantine", rec.Name)
	}
	quarantined := rec.SegmentPath + durable.QuarantineSuffix
	// A leftover quarantine from an earlier life is replaced: the newest
	// corrupt artifact is the one worth inspecting.
	if err := durable.Rename(rec.SegmentPath, quarantined); err != nil {
		return "", fmt.Errorf("store: dataset %q: %w", rec.Name, err)
	}
	rec.SegmentPath = ""
	return quarantined, nil
}

// AdoptSegment atomically installs a freshly rebuilt segment (written at
// tmpPath inside the dataset directory) as the entry's table.seg — the
// healing path after a CSV fallback, and the upgrade path for catalogs
// that predate the column store.
func (s *Store) AdoptSegment(rec *DatasetRecord, tmpPath string) error {
	final := filepath.Join(s.catalogDir(), rec.Name, SegmentFile)
	if err := durable.Rename(tmpPath, final); err != nil {
		return fmt.Errorf("store: dataset %q: %w", rec.Name, err)
	}
	rec.SegmentPath = final
	return nil
}

// DatasetDir returns the catalog directory of a persisted dataset (for
// staging a rebuilt segment on the same filesystem).
func (s *Store) DatasetDir(name string) string {
	return filepath.Join(s.catalogDir(), name)
}

// LoadDatasets reads every persisted dataset, sorted by name. Temp
// directories abandoned by a crashed save are swept. An unreadable
// catalog entry (stray directory, missing or mangled file) is reported
// in skipped rather than failing the whole load — one damaged dataset
// must not keep the server from serving the healthy ones; the entry is
// left on disk for the operator.
func (s *Store) LoadDatasets() (recs []DatasetRecord, skipped []string, err error) {
	entries, err := os.ReadDir(s.catalogDir())
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		if name[0] == '.' {
			// Leftover temp dir from a save that crashed before rename.
			os.RemoveAll(filepath.Join(s.catalogDir(), name))
			continue
		}
		rec, lerr := s.loadDataset(name)
		if lerr != nil {
			skipped = append(skipped, fmt.Sprintf("%s: %v", name, lerr))
			continue
		}
		recs = append(recs, *rec)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Name < recs[j].Name })
	return recs, skipped, nil
}

func (s *Store) loadDataset(name string) (*DatasetRecord, error) {
	dir := filepath.Join(s.catalogDir(), name)
	schemaJSON, err := os.ReadFile(filepath.Join(dir, SchemaFile))
	if err != nil {
		return nil, err
	}
	schema := new(dataset.Schema)
	if err := json.Unmarshal(schemaJSON, schema); err != nil {
		return nil, err
	}
	rec := &DatasetRecord{Name: name, Schema: schema}
	if p := filepath.Join(dir, CSVFile); fileExists(p) {
		rec.CSVPath = p
	}
	if p := filepath.Join(dir, SegmentFile); fileExists(p) {
		rec.SegmentPath = p
	}
	if rec.CSVPath == "" && rec.SegmentPath == "" {
		return nil, fmt.Errorf("neither %s nor %s present", CSVFile, SegmentFile)
	}
	return rec, nil
}

func fileExists(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.Mode().IsRegular()
}
