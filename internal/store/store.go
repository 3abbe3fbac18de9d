// Package store is the durable persistence subsystem under the APEx
// server: a dataset catalog that survives registration across restarts,
// and one append-only, CRC-framed, group-commit-fsynced write-ahead log
// per analyst session holding the transcript the Definition 6.1 audit
// depends on.
//
// On-disk layout under the data directory:
//
//	<dir>/catalog/<name>/schema.json   public schema (dataset JSON form)
//	<dir>/catalog/<name>/data.csv      sensitive rows, exactly as ingested
//	<dir>/catalog/<name>/table.seg     column-store segment (mmap-served;
//	                                   absent in catalogs predating it)
//	<dir>/sessions/<id>.wal            live session log (meta + entries)
//	<dir>/sessions/<id>.wal.closed     session closed by the analyst
//	<dir>/sessions/<id>.wal.invalid    quarantined: failed re-validation
//
// Durability policy: a transcript entry is fsynced (group commit — many
// concurrent commits share one flush) before the engine releases the
// answer, so the on-disk spend can only ever be equal to or greater than
// what any analyst has observed; a crash never under-accounts privacy
// loss. Dataset registration writes into a temp directory, fsyncs, and
// renames into the catalog, so a half-written dataset is never visible.
// Frames, write→fsync→close and rename-then-directory-fsync are
// internal/durable's; this package holds the policies.
//
// Recovery policy: session logs are replayed frame by frame; a torn or
// corrupt tail (crash mid-write) is truncated back to the last valid
// frame and the session resumes from there. A log whose frames are
// intact but whose transcript no longer passes ValidateTranscript is
// quarantined rather than served, and so is a log that died being born
// (0..7 bytes of the magic: an empty log with a torn tail).
package store

import (
	"fmt"
	"os"
	"path/filepath"
)

// Store manages one data directory.
type Store struct {
	dir string
}

// Open prepares dir (creating it and its subdirectories as needed) and
// returns the store over it.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty data directory")
	}
	for _, d := range []string{dir, filepath.Join(dir, "catalog"), filepath.Join(dir, "sessions")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	return &Store{dir: dir}, nil
}

// Dir returns the data directory root.
func (s *Store) Dir() string { return s.dir }

func (s *Store) catalogDir() string  { return filepath.Join(s.dir, "catalog") }
func (s *Store) sessionsDir() string { return filepath.Join(s.dir, "sessions") }

// sessionPath returns the live WAL path for a session id.
func (s *Store) sessionPath(id string) string {
	return filepath.Join(s.sessionsDir(), id+".wal")
}
