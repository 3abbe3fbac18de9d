package store

import (
	"context"
	"encoding/json"
	"fmt"
	"iter"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/obs"
)

// SessionMeta is the header frame of every session log: everything the
// server needs to rebuild the session shell around the replayed
// transcript. The RNG seed is deliberately NOT persisted — a recovered
// session draws a fresh random source, because re-running the original
// seed would replay noise the analyst has already observed.
type SessionMeta struct {
	ID      string    `json:"id"`
	Dataset string    `json:"dataset"`
	Budget  float64   `json:"budget"`
	Mode    string    `json:"mode"`
	Reuse   bool      `json:"reuse,omitempty"`
	Created time.Time `json:"created"`
}

// SessionLog is one session's durable transcript: a WAL whose first
// frame is the SessionMeta and whose subsequent frames are encoded
// engine entries, appended by the engine's commit hook as each
// interaction commits and read back through Entries — the log is the
// one home of a durable session's full entries (engine.Config.History).
type SessionLog struct {
	wal  *WAL
	meta SessionMeta
}

// Meta returns the log's header.
func (l *SessionLog) Meta() SessionMeta { return l.meta }

// AppendEntry frames one committed transcript entry into the log and
// returns once it is durable. The wait for the WAL's group-commit fsync
// is recorded as a "wal_flush" span on the request's trace — under high
// concurrency an entry mostly rides a neighbor's fsync, and this span is
// where that shows up (or doesn't).
func (l *SessionLog) AppendEntry(ctx context.Context, e engine.Entry) error {
	b, err := engine.EncodeEntry(e)
	if err != nil {
		return err
	}
	start := time.Now()
	err = l.wal.Append(b)
	if sp := obs.RecordSpan(ctx, "wal_flush", start, time.Now()); sp != nil {
		sp.Set("bytes", len(b))
	}
	return err
}

// Len returns the number of transcript entries in the log: every frame
// but the meta header.
func (l *SessionLog) Len() int { return l.wal.Frames() - 1 }

// entriesPerRead bounds how many frames one read of Entries holds in
// memory: a transcript of any length streams through ~this many frames'
// bytes at a time.
const entriesPerRead = 256

// Entries reads transcript entries [from, to) back from the log's file,
// decoding one frame at a time; frames before from are never read. It has
// the shape of engine.History. A range the file no longer holds intact, or
// a frame that no longer decodes, yields one error naming the entry and
// ends the sequence.
func (l *SessionLog) Entries(from, to int) iter.Seq2[engine.Entry, error] {
	return func(yield func(engine.Entry, error) bool) {
		for lo := from; lo < to; lo += entriesPerRead {
			// Frame 0 is the meta header: entry i is frame i+1.
			frames, err := l.wal.ReadFrames(lo+1, min(lo+entriesPerRead, to)+1)
			if err != nil {
				yield(engine.Entry{}, err)
				return
			}
			for i, frame := range frames {
				e, err := engine.DecodeEntry(frame)
				if err != nil {
					yield(engine.Entry{}, fmt.Errorf("store: %s: entry %d: %w", l.wal.Path(), lo+i, err))
					return
				}
				if !yield(e, nil) {
					return
				}
			}
		}
	}
}

// Close flushes and closes the log, leaving the file in place to be
// recovered on the next start (the graceful-shutdown path).
func (l *SessionLog) Close() error { return l.wal.Close() }

// Finish closes the log and marks it finished (the analyst closed the
// session): the file is renamed aside so recovery no longer restores the
// session, but the transcript is retained for audit.
func (l *SessionLog) Finish() error { return l.retire(".closed") }

// Quarantine closes the log and marks it invalid so recovery refuses to
// serve it; the bytes are retained for forensics.
func (l *SessionLog) Quarantine() error { return l.retire(".invalid") }

// Discard closes the log and deletes its file. It is for the narrow
// window where session construction fails after the log was created but
// before the session was ever visible — nothing served, nothing to audit.
func (l *SessionLog) Discard() error {
	closeErr := l.wal.Close()
	if err := os.Remove(l.wal.Path()); err != nil {
		return fmt.Errorf("store: discard session log: %w", err)
	}
	if err := durable.SyncDir(filepath.Dir(l.wal.Path())); err != nil {
		return err
	}
	return closeErr
}

func (l *SessionLog) retire(suffix string) error {
	closeErr := l.wal.Close()
	if err := durable.Rename(l.wal.Path(), l.wal.Path()+suffix); err != nil {
		return fmt.Errorf("store: retire session log: %w", err)
	}
	return closeErr
}

// CreateSessionLog starts a new session log: the meta header frame is
// written and fsynced before the log is returned, so a session that was
// ever visible to an analyst is recoverable by id even if it crashes
// before its first query.
func (s *Store) CreateSessionLog(meta SessionMeta) (*SessionLog, error) {
	if meta.ID == "" || meta.ID != filepath.Base(meta.ID) || strings.HasPrefix(meta.ID, ".") {
		return nil, fmt.Errorf("store: invalid session id %q", meta.ID)
	}
	path := s.sessionPath(meta.ID)
	if _, err := os.Stat(path); err == nil {
		return nil, fmt.Errorf("store: session log %q already exists", meta.ID)
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: %w", err)
	}
	wal, frames, _, err := OpenWAL(path)
	if err != nil {
		return nil, err
	}
	if len(frames) != 0 {
		wal.Close()
		return nil, fmt.Errorf("store: session log %q already has frames", meta.ID)
	}
	header, err := json.Marshal(meta)
	if err != nil {
		wal.Close()
		return nil, fmt.Errorf("store: session meta: %w", err)
	}
	if err := wal.Append(header); err != nil {
		wal.Close()
		return nil, err
	}
	// The file's own frames are durable, but the file itself is not until
	// its directory entry is — without this fsync a power loss could drop
	// the whole log, and with it a session's charged budget.
	if err := durable.SyncDir(s.sessionsDir()); err != nil {
		wal.Close()
		return nil, fmt.Errorf("store: session log: %w", err)
	}
	return &SessionLog{wal: wal, meta: meta}, nil
}

// RecoveredSession is one session log reopened at startup: its header,
// how many corrupt trailing bytes were dropped, and the log itself — open
// and positioned for further appends. The transcript stays in the file:
// Log.Entries(0, Log.Len()) streams it to engine.Replay.
type RecoveredSession struct {
	Meta           SessionMeta
	Log            *SessionLog
	TruncatedBytes int64
}

// RecoverSessions reopens every live session log under the store, in id
// order. Logs whose tail is torn or corrupt are repaired (truncated to
// the last valid frame) and still recovered; logs whose header is
// unreadable are quarantined (renamed *.wal.invalid) and reported in
// skipped rather than served. Entries are not decoded here: an
// intact-CRC frame that no longer decodes surfaces from Log.Entries as
// the transcript is replayed, and the caller quarantines the log then,
// as it does a transcript that fails Definition 6.1.
func (s *Store) RecoverSessions() (recovered []RecoveredSession, skipped []string, err error) {
	entries, err := os.ReadDir(s.sessionsDir())
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	var ids []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".wal") {
			continue // *.wal.closed, *.wal.invalid, strays
		}
		ids = append(ids, strings.TrimSuffix(name, ".wal"))
	}
	sort.Strings(ids)

	for _, id := range ids {
		rec, qerr := s.recoverSession(id)
		if qerr != nil {
			skipped = append(skipped, fmt.Sprintf("%s: %v", id, qerr))
			continue
		}
		recovered = append(recovered, *rec)
	}
	return recovered, skipped, nil
}

// recoverSession reopens one log; on structural failure the log is
// quarantined and the error describes why.
func (s *Store) recoverSession(id string) (*RecoveredSession, error) {
	wal, frames, truncated, err := OpenWAL(s.sessionPath(id))
	if err != nil {
		// Could not even open/repair: leave the file for the operator.
		return nil, err
	}
	quarantine := func(cause error) error {
		l := &SessionLog{wal: wal}
		if qerr := l.Quarantine(); qerr != nil {
			return fmt.Errorf("%v (quarantine failed: %v)", cause, qerr)
		}
		return cause
	}
	if len(frames) == 0 {
		return nil, quarantine(fmt.Errorf("empty log (no meta header survived)"))
	}
	var meta SessionMeta
	if err := json.Unmarshal(frames[0], &meta); err != nil {
		return nil, quarantine(fmt.Errorf("meta header: %v", err))
	}
	if meta.ID != id {
		return nil, quarantine(fmt.Errorf("meta id %q does not match file name %q", meta.ID, id))
	}
	return &RecoveredSession{
		Meta:           meta,
		Log:            &SessionLog{wal: wal, meta: meta},
		TruncatedBytes: truncated,
	}, nil
}
