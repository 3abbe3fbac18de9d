// Package scrub is the server's continuous verification plane: a paced
// background loop that re-checks, while the system serves traffic, every
// invariant the durability layers only enforce at open/recovery time —
// column-store segment checksums (via bounded sequential reads, never
// the hot mapping), WAL frame integrity on live and retired session
// logs, translation-sidecar framing, and the live Definition 6.1
// accounting of every in-memory session (transcript validity plus the
// engine's spent counter cross-checked against the WAL-derived record).
//
// Any discrepancy increments apex_invariant_violations_total{kind} —
// a counter that must stay 0 on a healthy system — quarantines the
// damaged artifact through the owning subsystem's existing quarantine
// path, and emits one structured incident line with a trace-style id.
// Disk reads are rate-limited so a scrub cycle never competes with
// analysts for bandwidth.
package scrub

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/colstore"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/translate"
)

// Violation kinds, the {kind} label of apex_invariant_violations_total.
const (
	KindSegment    = "segment"    // colstore segment failed checksum/structural re-validation
	KindWAL        = "wal"        // session log frame corruption (or a torn tail on a closed log)
	KindSidecar    = "sidecar"    // translation sidecar framing damaged
	KindTranscript = "transcript" // a live transcript no longer passes Definition 6.1
	KindAccounting = "accounting" // engine spent counter diverged from its transcript/WAL record
)

var kinds = []string{KindSegment, KindWAL, KindSidecar, KindTranscript, KindAccounting}

// epsTol mirrors the engine's budget comparison tolerance for the
// WAL-vs-transcript epsilon cross-check.
const epsTol = 1e-9

// DatasetArtifacts names one dataset's durable artifacts. Empty paths
// mean the artifact does not exist (heap-served dataset, untranslated
// dataset) and are skipped, not flagged.
type DatasetArtifacts struct {
	Name        string
	SegmentPath string
	SidecarPath string
}

// SessionAccounting is one live session as the scrubber sees it: the
// engine whose accounting is re-validated, and (for durable sessions)
// the WAL whose frames are cross-checked against the transcript.
type SessionAccounting struct {
	ID      string
	Dataset string
	WALPath string // "" for non-durable sessions
	Engine  *engine.Engine
}

// Config wires a Scrubber to the subsystems it audits. All providers and
// heal hooks are optional; a nil provider simply disables that check
// (the benchmark harness, for instance, scrubs engines with no store).
type Config struct {
	// Interval between cycle starts. <= 0 means Start is a no-op and
	// cycles only run when RunCycle is called explicitly.
	Interval time.Duration
	// ReadBytesPerSec paces disk verification reads; <= 0 is unpaced.
	ReadBytesPerSec int64
	// Metrics receives the scrub/violation families. Required.
	Metrics *metrics.Registry
	// IncidentLog receives one JSON line per violation (default stderr).
	IncidentLog io.Writer

	Datasets    func() []DatasetArtifacts
	Sessions    func() []SessionAccounting
	SessionLogs func() []store.SessionLogFile

	// HealSegment is invoked after a segment violation: quarantine the
	// file and rebuild from the source CSV (the registry's fallback path).
	HealSegment func(dataset string) error
	// HealSidecar is invoked after a sidecar violation: quarantine and
	// rewrite from the valid frame prefix (translate.Cache.LoadSidecar).
	HealSidecar func(dataset string) error
	// QuarantineLog retires a corrupt closed session log (path →
	// path.invalid) so it is never replayed.
	QuarantineLog func(path string) (string, error)
}

// Violation is one detected invariant breach.
type Violation struct {
	Kind     string `json:"kind"`
	Dataset  string `json:"dataset,omitempty"`
	Session  string `json:"session,omitempty"`
	Artifact string `json:"artifact,omitempty"`
	Detail   string `json:"detail"`
	Incident string `json:"incident"` // trace-style id tying the metric bump to the log line
}

// CycleReport summarizes one scrub cycle.
type CycleReport struct {
	Started    time.Time
	Duration   time.Duration
	Checks     int
	BytesRead  int64
	Violations []Violation
}

// Clean reports whether the cycle found nothing wrong.
func (r CycleReport) Clean() bool { return len(r.Violations) == 0 }

// Scrubber runs the verification plane. Construct with New; Start spins
// the background loop, RunCycle runs one cycle synchronously (the
// deterministic path tests and smokes drive).
type Scrubber struct {
	cfg       Config
	incidents io.Writer
	incMu     sync.Mutex

	cycles      *metrics.Counter
	bytesRead   *metrics.Counter
	lastClean   *metrics.Gauge
	checks      map[string]*metrics.Counter
	violations  map[string]*metrics.Counter
	quarantines map[string]*metrics.Counter
	total       atomic.Int64

	mu   sync.Mutex
	last CycleReport
	ran  bool

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	started  bool
}

// New builds a Scrubber and eagerly creates every metric family it owns
// — all series exist (at zero) from the first scrape, whether or not a
// cycle ever runs, so "violations == 0" is an observable fact rather
// than a missing series.
func New(cfg Config) *Scrubber {
	s := &Scrubber{
		cfg:         cfg,
		incidents:   cfg.IncidentLog,
		checks:      make(map[string]*metrics.Counter, len(kinds)),
		violations:  make(map[string]*metrics.Counter, len(kinds)),
		quarantines: make(map[string]*metrics.Counter, len(kinds)),
		stop:        make(chan struct{}),
	}
	if s.incidents == nil {
		s.incidents = os.Stderr
	}
	m := cfg.Metrics
	s.cycles = m.Counter("apex_scrub_cycles_total", "Completed background verification cycles.")
	s.bytesRead = m.Counter("apex_scrub_bytes_total", "Bytes read and checksummed by the scrubber.")
	s.lastClean = m.Gauge("apex_scrub_last_cycle_clean", "1 when the most recent scrub cycle found no violations, 0 when it did (1 before the first cycle).")
	s.lastClean.Set(1)
	for _, k := range kinds {
		s.checks[k] = m.Counter("apex_scrub_checks_total", "Verification checks performed, by kind.", metrics.L("kind", k))
		s.violations[k] = m.Counter("apex_invariant_violations_total", "Invariant violations detected by the verification plane, by kind. Must stay 0 on a healthy system.", metrics.L("kind", k))
		s.quarantines[k] = m.Counter("apex_scrub_quarantines_total", "Artifacts quarantined by the scrubber, by kind.", metrics.L("kind", k))
	}
	return s
}

// Start launches the background loop (no-op unless Interval > 0).
func (s *Scrubber) Start() {
	if s.cfg.Interval <= 0 || s.started {
		return
	}
	s.started = true
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		t := time.NewTicker(s.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.RunCycle()
			}
		}
	}()
}

// Running reports whether the background loop is active.
func (s *Scrubber) Running() bool { return s.started }

// Stop halts the loop (and interrupts any in-cycle pacing sleep), then
// waits for the current cycle to finish. Idempotent.
func (s *Scrubber) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	if s.started {
		<-s.done
	}
}

// Violations returns the total violations detected over the scrubber's
// lifetime.
func (s *Scrubber) Violations() int64 { return s.total.Load() }

// LastCycle returns the most recent cycle's report; ok is false before
// the first cycle completes.
func (s *Scrubber) LastCycle() (r CycleReport, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last, s.ran
}

// RunCycle runs one full verification pass synchronously and returns its
// report. Safe to call concurrently with a running loop (checks are
// read-only; heals go through subsystem paths that serialize), though
// normal operation uses one or the other.
func (s *Scrubber) RunCycle() CycleReport {
	rep := CycleReport{Started: time.Now()}

	if s.cfg.Datasets != nil {
		for _, ds := range s.cfg.Datasets() {
			s.scrubSegment(&rep, ds)
			s.scrubSidecar(&rep, ds)
		}
	}

	liveWALs := make(map[string]bool)
	if s.cfg.Sessions != nil {
		for _, sess := range s.cfg.Sessions() {
			if sess.WALPath != "" {
				liveWALs[sess.WALPath] = true
			}
			s.scrubSession(&rep, sess)
		}
	}

	if s.cfg.SessionLogs != nil {
		for _, lf := range s.cfg.SessionLogs() {
			if lf.State == store.SessionLogInvalid || liveWALs[lf.Path] {
				continue // already quarantined / already cross-checked live
			}
			s.scrubLogFile(&rep, lf)
		}
	}

	rep.Duration = time.Since(rep.Started)
	s.cycles.Inc()
	if rep.Clean() {
		s.lastClean.Set(1)
	} else {
		s.lastClean.Set(0)
	}
	s.mu.Lock()
	s.last = rep
	s.ran = true
	s.mu.Unlock()
	return rep
}

// scrubSegment re-runs the full open-time validation of one dataset's
// segment file through bounded sequential reads.
func (s *Scrubber) scrubSegment(rep *CycleReport, ds DatasetArtifacts) {
	if ds.SegmentPath == "" {
		return
	}
	s.check(rep, KindSegment)
	start := time.Now()
	n, err := colstore.Verify(ds.SegmentPath)
	s.countBytes(rep, n)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return // quarantined or rebuilt between listing and check
		}
		s.violate(rep, Violation{Kind: KindSegment, Dataset: ds.Name, Artifact: ds.SegmentPath, Detail: err.Error()})
		if s.cfg.HealSegment != nil {
			if herr := s.cfg.HealSegment(ds.Name); herr != nil {
				s.violate(rep, Violation{Kind: KindSegment, Dataset: ds.Name, Artifact: ds.SegmentPath,
					Detail: fmt.Sprintf("heal after quarantine failed: %v", herr)})
			} else {
				s.quarantines[KindSegment].Inc()
			}
		}
		return
	}
	s.pace(n, time.Since(start))
}

// scrubSidecar checks the translation sidecar's framing.
func (s *Scrubber) scrubSidecar(rep *CycleReport, ds DatasetArtifacts) {
	if ds.SidecarPath == "" {
		return
	}
	s.check(rep, KindSidecar)
	if st, err := os.Stat(ds.SidecarPath); err == nil {
		s.countBytes(rep, st.Size())
	}
	plans, corrupt, err := translate.VerifySidecar(ds.SidecarPath)
	if err != nil {
		s.violate(rep, Violation{Kind: KindSidecar, Dataset: ds.Name, Artifact: ds.SidecarPath, Detail: err.Error()})
		return
	}
	if !corrupt {
		return
	}
	s.violate(rep, Violation{Kind: KindSidecar, Dataset: ds.Name, Artifact: ds.SidecarPath,
		Detail: fmt.Sprintf("sidecar framing corrupt after %d valid plans", plans)})
	if s.cfg.HealSidecar != nil {
		if herr := s.cfg.HealSidecar(ds.Name); herr != nil {
			s.violate(rep, Violation{Kind: KindSidecar, Dataset: ds.Name, Artifact: ds.SidecarPath,
				Detail: fmt.Sprintf("heal after quarantine failed: %v", herr)})
		} else {
			s.quarantines[KindSidecar].Inc()
		}
	}
}

// scrubSession re-validates one live session: the Definition 6.1
// ledger and spent counter inside the engine, then the on-disk WAL
// cross-checked frame by frame against the ledger — the WAL holds the
// transcript, the ledger what admission control charged for it, and the
// two were written by different code, so this is a double-entry audit.
//
// Ordering matters for the cross-check: the engine's commit path appends
// to its ledger before the WAL hook runs (both under the engine lock),
// so frame i of the WAL always corresponds to ledger record i. We
// snapshot the ledger's epsilons first and read the WAL second; either
// side may have more entries than the other by the time both reads land
// (commits race the scrubber), so only the epsilons at shared indices
// are compared — count drift is in-flight traffic, not corruption.
func (s *Scrubber) scrubSession(rep *CycleReport, sess SessionAccounting) {
	if sess.Engine == nil {
		return
	}
	s.check(rep, KindTranscript)
	if _, err := sess.Engine.VerifyAccounting(); err != nil {
		kind := KindTranscript
		if strings.HasPrefix(err.Error(), "spent counter:") {
			kind = KindAccounting
			s.check(rep, KindAccounting)
		}
		s.violate(rep, Violation{Kind: kind, Dataset: sess.Dataset, Session: sess.ID, Detail: err.Error()})
		return
	}

	if sess.WALPath == "" {
		return
	}
	s.check(rep, KindWAL)
	ledger := sess.Engine.LedgerEpsilons() // snapshot BEFORE reading the WAL
	start := time.Now()
	frames, _, err := store.ReadWALFrames(sess.WALPath)
	if err != nil {
		// A live log is never renamed out from under its engine — the
		// violation and incident are the alert; the operator decides.
		s.violate(rep, Violation{Kind: KindWAL, Dataset: sess.Dataset, Session: sess.ID,
			Artifact: sess.WALPath, Detail: err.Error()})
		return
	}
	var bytes int64
	for _, f := range frames {
		bytes += int64(len(f))
	}
	s.countBytes(rep, bytes)
	if len(frames) == 0 {
		return // just-created log whose meta frame is still in flight
	}
	var meta store.SessionMeta
	if jerr := json.Unmarshal(frames[0], &meta); jerr != nil || meta.ID != sess.ID {
		detail := fmt.Sprintf("meta frame names session %q, file belongs to %q", meta.ID, sess.ID)
		if jerr != nil {
			detail = fmt.Sprintf("meta frame undecodable: %v", jerr)
		}
		s.violate(rep, Violation{Kind: KindWAL, Dataset: sess.Dataset, Session: sess.ID,
			Artifact: sess.WALPath, Detail: detail})
		return
	}

	s.check(rep, KindAccounting)
	walEntries := frames[1:]
	for i := range min(len(walEntries), len(ledger)) {
		en, derr := engine.DecodeEntry(walEntries[i])
		if derr != nil {
			s.violate(rep, Violation{Kind: KindWAL, Dataset: sess.Dataset, Session: sess.ID,
				Artifact: sess.WALPath, Detail: fmt.Sprintf("entry %d survived CRC but no longer decodes: %v", i, derr)})
			return
		}
		diff := en.Epsilon - ledger[i]
		if diff < 0 {
			diff = -diff
		}
		if diff > epsTol {
			s.violate(rep, Violation{Kind: KindAccounting, Dataset: sess.Dataset, Session: sess.ID,
				Artifact: sess.WALPath,
				Detail:   fmt.Sprintf("entry %d: WAL records ε=%v, engine ledger ε=%v", i, en.Epsilon, ledger[i])})
			return
		}
	}
	s.pace(bytes, time.Since(start))
}

// scrubLogFile verifies one on-disk session log no live session owns: a
// retired (closed) log must be perfectly framed end to end — its final
// commit was acknowledged, so a torn tail there is lost accounting — and
// is quarantined when it is not. An orphan live-state log (recovery not
// run, or a crashed predecessor's) is verified tolerantly and never
// renamed: recovery owns its repair.
func (s *Scrubber) scrubLogFile(rep *CycleReport, lf store.SessionLogFile) {
	s.check(rep, KindWAL)
	frames, torn, err := store.ReadWALFrames(lf.Path)
	var bytes int64
	for _, f := range frames {
		bytes += int64(len(f))
	}
	s.countBytes(rep, bytes)
	closed := lf.State == store.SessionLogClosed
	detail := ""
	switch {
	case err != nil:
		detail = err.Error()
	case closed && torn > 0:
		detail = fmt.Sprintf("closed log has a %d-byte torn tail: its final acknowledged commit is not on disk", torn)
	}
	if detail == "" {
		return
	}
	v := Violation{Kind: KindWAL, Session: lf.ID, Artifact: lf.Path, Detail: detail}
	if closed && s.cfg.QuarantineLog != nil {
		if q, qerr := s.cfg.QuarantineLog(lf.Path); qerr != nil {
			v.Detail += fmt.Sprintf(" (quarantine failed: %v)", qerr)
		} else {
			v.Artifact = q
			s.quarantines[KindWAL].Inc()
		}
	}
	s.violate(rep, v)
}

func (s *Scrubber) check(rep *CycleReport, kind string) {
	rep.Checks++
	s.checks[kind].Inc()
}

func (s *Scrubber) countBytes(rep *CycleReport, n int64) {
	if n <= 0 {
		return
	}
	rep.BytesRead += n
	s.bytesRead.Add(float64(n))
}

// violate records one violation: counter, report entry, incident line.
func (s *Scrubber) violate(rep *CycleReport, v Violation) {
	v.Incident = obs.NewRequestID()
	s.violations[v.Kind].Inc()
	s.total.Add(1)
	rep.Violations = append(rep.Violations, v)

	line := struct {
		Msg string `json:"msg"`
		Violation
		At string `json:"at"`
	}{Msg: "integrity violation", Violation: v, At: time.Now().UTC().Format(time.RFC3339Nano)}
	b, err := json.Marshal(line)
	if err != nil {
		return
	}
	s.incMu.Lock()
	fmt.Fprintf(s.incidents, "%s\n", b)
	s.incMu.Unlock()
}

// pace sleeps off the debt a read of n bytes accrued against the
// configured read rate, so scrubbing never monopolizes the disk. The
// sleep aborts on Stop.
func (s *Scrubber) pace(n int64, took time.Duration) {
	rate := s.cfg.ReadBytesPerSec
	if rate <= 0 || n <= 0 {
		return
	}
	want := time.Duration(float64(n) / float64(rate) * float64(time.Second))
	if want <= took {
		return
	}
	select {
	case <-s.stop:
	case <-time.After(want - took):
	}
}
