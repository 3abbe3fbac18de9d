package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/durable"
)

// This file holds the store's surface for the background verification
// plane (internal/scrub) and the readiness probe: read-only enumeration
// of session logs, the exported single-dataset catalog lookup, the
// quarantine path for a retired log that fails re-verification, and a
// durability probe for the readyz "is the WAL device responsive" check.

// Path returns the log's on-disk WAL path (the scrubber verifies the
// file through ReadWALFrames, never through the live handle).
func (l *SessionLog) Path() string { return l.wal.Path() }

// Session log states as enumerated by SessionLogFiles.
const (
	SessionLogLive    = "live"    // <id>.wal — recoverable, may be appended to right now
	SessionLogClosed  = "closed"  // <id>.wal.closed — finished by the analyst, kept for audit
	SessionLogInvalid = "invalid" // <id>.wal.invalid — quarantined, never served
)

// SessionLogFile is one on-disk session log as seen by the scrubber.
type SessionLogFile struct {
	Path  string
	ID    string
	State string // SessionLogLive, SessionLogClosed or SessionLogInvalid
}

// SessionLogFiles enumerates every session log under the store, sorted
// by path — live, closed and already-quarantined alike — without opening
// any of them.
func (s *Store) SessionLogFiles() ([]SessionLogFile, error) {
	entries, err := os.ReadDir(s.sessionsDir())
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []SessionLogFile
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		var state, id string
		switch {
		case strings.HasSuffix(name, ".wal"):
			state, id = SessionLogLive, strings.TrimSuffix(name, ".wal")
		case strings.HasSuffix(name, ".wal.closed"):
			state, id = SessionLogClosed, strings.TrimSuffix(name, ".wal.closed")
		case strings.HasSuffix(name, ".wal.invalid"):
			state, id = SessionLogInvalid, strings.TrimSuffix(name, ".wal.invalid")
		default:
			continue // probe files, strays
		}
		out = append(out, SessionLogFile{Path: filepath.Join(s.sessionsDir(), name), ID: id, State: state})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// QuarantineLogFile renames a retired session log that failed
// re-verification aside (path → path.invalid) so it is never replayed,
// keeping the bytes for forensics. It is only for logs no live session
// holds open — quarantining a live log is the recovery path's job
// (SessionLog.Quarantine), which closes the handle first.
func (s *Store) QuarantineLogFile(path string) (string, error) {
	quarantined := path + ".invalid"
	if err := durable.Rename(path, quarantined); err != nil {
		return "", fmt.Errorf("store: quarantine session log: %w", err)
	}
	return quarantined, nil
}

// LoadDataset reads one persisted catalog entry by name — the exported
// lookup the segment-heal path uses to get a fresh record (with current
// CSV/segment paths) without re-listing the whole catalog.
func (s *Store) LoadDataset(name string) (*DatasetRecord, error) {
	if name == "" || name != filepath.Base(name) || name[0] == '.' {
		return nil, fmt.Errorf("store: invalid dataset name %q", name)
	}
	rec, err := s.loadDataset(name)
	if err != nil {
		return nil, fmt.Errorf("store: dataset %q: %w", name, err)
	}
	return rec, nil
}

// ProbeSync measures whether the store's backing device still accepts
// durable writes: it writes and fsyncs a tiny probe file in the sessions
// directory (the same filesystem the WAL flusher depends on) and returns
// the observed latency. The readiness endpoint uses it to flag a stalled
// or read-only data volume before an analyst's commit does.
func (s *Store) ProbeSync() (time.Duration, error) {
	start := time.Now()
	path := filepath.Join(s.sessionsDir(), ".syncprobe")
	fill := func(f *os.File) error { _, err := f.WriteString("probe"); return err }
	if err := durable.WriteFile(path, fill); err != nil {
		return 0, fmt.Errorf("store: sync probe: %w", err)
	}
	os.Remove(path)
	return time.Since(start), nil
}
