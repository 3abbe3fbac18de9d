package server

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/noise"
	"repro/internal/store"
)

// ErrPolicyDenied marks owner-policy refusals (budget cap, session limit),
// as opposed to malformed requests.
var ErrPolicyDenied = errors.New("server: owner policy denied")

// Session is one analyst's live interaction with one dataset. The engine
// inside is private to the session — budget isolation between analysts is
// structural, not policed.
type Session struct {
	ID      string
	Dataset string
	Created time.Time
	eng     *engine.Engine
	wal     *store.SessionLog // nil when the server runs without a store
}

// Engine exposes the session's privacy engine.
func (s *Session) Engine() *engine.Engine { return s.eng }

// LogPath returns the session's on-disk WAL path ("" for memory-only
// sessions) — the artifact the background scrubber cross-checks against
// the live transcript.
func (s *Session) LogPath() string {
	if s.wal == nil {
		return ""
	}
	return s.wal.Path()
}

// SessionManager creates, finds and closes sessions. Closing a session
// only forgets it; its transcript is served through the engine, so
// callers that need a final audit should fetch the transcript first.
type SessionManager struct {
	mu          sync.RWMutex
	sessions    map[string]*Session
	maxBudget   float64 // 0 means uncapped
	maxSessions int     // 0 means unlimited
	now         func() time.Time
	store       *store.Store // nil: sessions are memory-only
}

// NewSessionManager returns a manager enforcing the owner's per-session
// budget cap (0 = uncapped) and concurrent session limit (0 = unlimited).
func NewSessionManager(maxBudget float64, maxSessions int) *SessionManager {
	return &SessionManager{
		sessions:    make(map[string]*Session),
		maxBudget:   maxBudget,
		maxSessions: maxSessions,
		now:         time.Now,
	}
}

// AttachStore makes sessions durable: every new session gets a
// write-ahead log, and each engine commit is fsynced into it before the
// answer is released. Attach before serving traffic.
func (m *SessionManager) AttachStore(st *store.Store) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.store = st
}

// Create starts a session over ds with its own engine but the dataset's
// shared evaluation cache (one workload transformation and one noise-free
// scan per distinct workload across all of the dataset's sessions). seed
// drives the session's mechanism randomness — 0 draws an unpredictable
// seed, which is the only privacy-safe choice when the analyst is
// untrusted (an analyst who knows the seed can replay the noise and
// recover exact counts); fixed seeds exist for reproducible tests and
// experiments. reuse enables the §9 inferencer.
func (m *SessionManager) Create(datasetName string, ds *Dataset, budget float64, mode engine.Mode, seed int64, reuse bool) (*Session, error) {
	if m.maxBudget > 0 && budget > m.maxBudget {
		return nil, fmt.Errorf("%w: budget %g exceeds the owner's per-session cap %g", ErrPolicyDenied, budget, m.maxBudget)
	}
	if budget <= 0 {
		// engine.New enforces this too; checking up front keeps the
		// durable path from creating a WAL for a session that cannot be.
		return nil, fmt.Errorf("server: privacy budget must be positive, got %v", budget)
	}
	if seed == 0 {
		var err error
		if seed, err = randomSeed(); err != nil {
			return nil, err
		}
	}
	// Fail fast when saturated, before paying for engine construction;
	// the authoritative re-check below runs under the write lock.
	if m.maxSessions > 0 {
		m.mu.RLock()
		full := len(m.sessions) >= m.maxSessions
		m.mu.RUnlock()
		if full {
			return nil, fmt.Errorf("%w: session limit %d reached", ErrPolicyDenied, m.maxSessions)
		}
	}
	id, err := newSessionID()
	if err != nil {
		return nil, err
	}
	created := m.now()

	// Make the session durable before it exists: the WAL header is
	// fsynced first, so any session an analyst ever saw is recoverable.
	var wal *store.SessionLog
	var onCommit engine.CommitHook
	var history engine.History
	if m.store != nil {
		wal, err = m.store.CreateSessionLog(store.SessionMeta{
			ID:      id,
			Dataset: datasetName,
			Budget:  budget,
			Mode:    mode.String(),
			Reuse:   reuse,
			Created: created,
		})
		if err != nil {
			return nil, fmt.Errorf("server: session log: %w", err)
		}
		onCommit, history = commitTo(wal), wal.Entries
	}
	abort := func() {
		if wal != nil {
			if derr := wal.Discard(); derr != nil {
				log.Printf("server: discard session log %s: %v", id, derr)
			}
		}
	}

	eng, err := engine.New(ds.Table, engine.Config{
		Budget:       budget,
		Mode:         mode,
		Rng:          noise.NewRand(seed),
		Reuse:        reuse,
		Transforms:   ds.Transforms,
		Translations: ds.Translations,
		OnCommit:     onCommit,
		History:      history,
	})
	if err != nil {
		abort()
		return nil, err
	}
	s := &Session{ID: id, Dataset: datasetName, Created: created, eng: eng, wal: wal}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.maxSessions > 0 && len(m.sessions) >= m.maxSessions {
		abort()
		return nil, fmt.Errorf("%w: session limit %d reached", ErrPolicyDenied, m.maxSessions)
	}
	m.sessions[id] = s
	return s, nil
}

// commitTo is the engine commit hook of a durable session: frame the
// entry into the session's log before the answer is released.
func commitTo(l *store.SessionLog) engine.CommitHook {
	return func(ctx context.Context, _ int, e engine.Entry) error { return l.AppendEntry(ctx, e) }
}

// Restore re-admits one recovered session: the transcript is streamed
// from its log into a fresh engine's ledger (re-validating the Definition
// 6.1 invariant and re-deriving the spent budget; the entries themselves
// stay in the log), the session keeps its original id and creation time,
// and further commits append to the same log. The
// engine's randomness is freshly seeded — replaying the original seed
// would reuse noise the analyst has already observed. Recovered sessions
// bypass the owner's current budget/session caps: they were admitted
// under the policy in force when they were created.
func (m *SessionManager) Restore(ds *Dataset, rec *store.RecoveredSession) (*Session, error) {
	mode, err := engine.ParseMode(rec.Meta.Mode)
	if err != nil {
		return nil, fmt.Errorf("server: restore session %s: %w", rec.Meta.ID, err)
	}
	seed, err := randomSeed()
	if err != nil {
		return nil, err
	}
	eng, err := engine.Replay(ds.Table, engine.Config{
		Budget:       rec.Meta.Budget,
		Mode:         mode,
		Rng:          noise.NewRand(seed),
		Reuse:        rec.Meta.Reuse,
		Transforms:   ds.Transforms,
		Translations: ds.Translations,
		OnCommit:     commitTo(rec.Log),
		History:      rec.Log.Entries,
	}, rec.Log.Entries(0, rec.Log.Len()))
	if err != nil {
		return nil, fmt.Errorf("server: restore session %s: %w", rec.Meta.ID, err)
	}
	s := &Session{
		ID:      rec.Meta.ID,
		Dataset: rec.Meta.Dataset,
		Created: rec.Meta.Created,
		eng:     eng,
		wal:     rec.Log,
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.sessions[s.ID]; dup {
		return nil, fmt.Errorf("server: restore session %s: id already live", s.ID)
	}
	m.sessions[s.ID] = s
	return s, nil
}

// Get returns the session with the given id.
func (m *SessionManager) Get(id string) (*Session, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s, ok := m.sessions[id]
	return s, ok
}

// Close forgets the session; it reports whether the id existed. A
// durable session's log is flushed and retired (kept on disk for audit
// but no longer restored at startup).
func (m *SessionManager) Close(id string) bool {
	m.mu.Lock()
	s, ok := m.sessions[id]
	delete(m.sessions, id)
	m.mu.Unlock()
	if !ok {
		return false
	}
	// Seal drains any in-flight ask (it waits on the engine lock) and
	// fails every later one with ErrSealed, so no commit can race the
	// log's retirement and the retired audit file misses nothing that
	// was charged.
	s.eng.Seal()
	if s.wal != nil {
		if err := s.wal.Finish(); err != nil {
			log.Printf("server: close session %s: %v", id, err)
		}
	}
	return true
}

// Shutdown flushes and closes every durable session's log, leaving the
// files in place for recovery on the next start. The graceful-shutdown
// path in cmd/apex-server calls it after the HTTP listener has drained,
// so no engine commits race the close.
func (m *SessionManager) Shutdown() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var firstErr error
	for id, s := range m.sessions {
		if s.wal == nil {
			continue
		}
		if err := s.wal.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("server: flush session %s: %w", id, err)
		}
	}
	return firstErr
}

// ForDataset returns the live sessions over one dataset, ordered by
// creation time then id — the set the per-dataset budget audit view
// reconstructs its spend timeline from.
func (m *SessionManager) ForDataset(name string) []*Session {
	all := m.List()
	out := all[:0]
	for _, s := range all {
		if s.Dataset == name {
			out = append(out, s)
		}
	}
	return out
}

// List returns all live sessions ordered by creation time, then id.
func (m *SessionManager) List() []*Session {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Created.Equal(out[j].Created) {
			return out[i].Created.Before(out[j].Created)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// newSessionID returns a 16-hex-char random id.
func newSessionID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("server: session id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// randomSeed returns a nonzero cryptographically random seed.
func randomSeed() (int64, error) {
	for {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			return 0, fmt.Errorf("server: session seed: %w", err)
		}
		if s := int64(binary.LittleEndian.Uint64(b[:])); s != 0 {
			return s, nil
		}
	}
}
