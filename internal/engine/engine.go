// Package engine implements the APEx privacy engine (paper Algorithm 1 and
// §6): given a sensitive table and an owner-specified privacy budget B, it
// answers an adaptively chosen sequence of exploration queries, each with an
// accuracy requirement, by
//
//  1. translating the query to the applicable mechanism with the least
//     privacy loss (the accuracy translator, in optimistic or pessimistic
//     mode), and
//  2. refusing any query whose worst-case loss would overrun the remaining
//     budget, while charging only the *actual* loss of data-dependent
//     mechanisms (the privacy analyzer).
//
// Every interaction is recorded in a transcript whose validity invariants
// (Definition 6.1) are maintained: the cumulative actual loss never exceeds
// B, and any answered query also fit under B at its worst case.
package engine

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/mechanism"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/strategy"
	"repro/internal/translate"
	"repro/internal/workload"
)

// Mode selects how the translator ranks mechanisms whose privacy loss is an
// interval (paper Algorithm 1, lines 8 and 10).
type Mode int

const (
	// Pessimistic picks the mechanism with the least worst-case loss εu.
	Pessimistic Mode = iota
	// Optimistic picks the mechanism with the least best-case loss εl
	// (ties broken by εu). The paper's experiments run optimistic mode.
	Optimistic
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Pessimistic:
		return "pessimistic"
	case Optimistic:
		return "optimistic"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode parses a mode name ("optimistic" or "pessimistic",
// case-insensitive). Both the CLI and the server accept modes through it so
// the two front ends agree on spelling and errors.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "optimistic":
		return Optimistic, nil
	case "pessimistic":
		return Pessimistic, nil
	default:
		return 0, fmt.Errorf("engine: unknown mode %q (want optimistic or pessimistic)", s)
	}
}

// ErrDenied is returned when no applicable mechanism fits in the remaining
// privacy budget ("Query Denied", Algorithm 1 line 16).
var ErrDenied = errors.New("engine: query denied: insufficient privacy budget")

// ErrMechanismFailure marks an internal failure while running a chosen
// mechanism, as opposed to a problem with the analyst's input; callers
// (such as the server) use it to distinguish 5xx from 4xx conditions.
var ErrMechanismFailure = errors.New("mechanism failure")

// ErrPersist marks a commit-hook failure: the transcript entry could not
// be made durable. The in-memory charge stands (the noise was already
// drawn, so conservatively the budget is burned) but the answer is
// withheld from the caller.
var ErrPersist = errors.New("engine: transcript persistence failed")

// ErrSealed is returned by Ask/ChargeExternal after Seal: the engine no
// longer accepts interactions. Nothing is charged or logged.
var ErrSealed = errors.New("engine: session closed")

// epsTol absorbs floating-point drift in budget comparisons.
const epsTol = 1e-9

// Answer is the engine's reply to one query.
type Answer struct {
	// Counts holds noisy counts for WCQ.
	Counts []float64
	// Selected marks returned bins for ICQ/TCQ.
	Selected []bool
	// Predicates echoes the query workload, aligned with Selected.
	Predicates []dataset.Predicate
	// Epsilon is the actual privacy loss charged.
	Epsilon float64
	// EpsilonUpper is the worst-case loss the analyzer reserved.
	EpsilonUpper float64
	// Mechanism names the mechanism that answered.
	Mechanism string
}

// SelectedPredicates returns the predicates marked Selected.
func (a *Answer) SelectedPredicates() []dataset.Predicate {
	var out []dataset.Predicate
	for i, sel := range a.Selected {
		if sel {
			out = append(out, a.Predicates[i])
		}
	}
	return out
}

// Entry is one transcript record: the query with its accuracy requirement
// and either the answer or the denial. External charges (extensions such as
// SUM aggregates) carry a Label instead of a Query.
//
// TraceID and At are provenance: the request trace that committed the
// entry and when it committed. They are stamped only when the committing
// context carries a request ID (the server path) — engine-direct callers
// produce entries without them, which keeps transcripts byte-identical
// across storage backends and sequential runs.
type Entry struct {
	Query   *query.Query
	Label   string  // set for external charges
	Answer  *Answer // nil when denied
	Denied  bool
	Epsilon float64 // actual loss (0 when denied)

	TraceID string    // request trace that committed this entry, if any
	At      time.Time // commit time; zero when TraceID is empty
}

// Config customizes engine construction.
type Config struct {
	// Budget is the owner's total privacy budget B. Required.
	Budget float64
	// Mode is the translator mode; default Pessimistic (zero value).
	Mode Mode
	// Mechanisms overrides the default mechanism suite.
	Mechanisms []mechanism.Mechanism
	// Rng drives all mechanism randomness; nil means a fixed-seed source.
	Rng *rand.Rand
	// Transforms, when set, is the workload transformation cache the
	// engine evaluates through — typically one shared cache per dataset
	// (the server wires one up per registered table) so concurrent
	// sessions asking the same workload share one transformation and one
	// noise-free Histogram/TrueAnswers scan. Nil means a private cache.
	Transforms *workload.TransformCache
	// Translations, when set, is the Monte-Carlo translation plan source
	// the strategy mechanism reads through — the per-dataset shared,
	// sidecar-persisted translate.Cache on the server, so all sessions
	// pay each query matrix's ~9 ms sampling once and restarts reload
	// plans instead of re-sampling. It is injected into every suite SM that
	// doesn't already carry its own source; nil leaves each SM with a
	// private in-memory cache.
	Translations translate.Source
	// Reuse enables the inferencer (§9 extension): answered WCQ counts are
	// cached and later queries over the same workload with an equal-or-
	// looser accuracy requirement are answered as free post-processing.
	Reuse bool
	// OnCommit, when set, is called synchronously (under the engine lock,
	// so invocations are ordered exactly like the transcript) after entry
	// n is appended to the transcript — one call per answered, denied or
	// externally charged interaction. The durable store uses it to frame
	// the entry into the session's write-ahead log before the answer is
	// released. If the hook returns an error the entry and any budget
	// charge stand (the noise has already been drawn) but the caller gets
	// an error wrapping ErrPersist instead of the answer: budget is never
	// under-accounted across a crash. ctx is the committing request's
	// context, carrying its trace so the hook's own waits (WAL flush)
	// appear as spans in the request's trace.
	OnCommit CommitHook
	// History, when set, is the read side of OnCommit: it reads committed
	// entries [from, to) back from wherever the hook made them durable.
	// An engine with a History keeps only its fixed-size ledger on the
	// heap — the durable log is the one home of full entries — and every
	// transcript read goes through it, outside the engine lock. Without
	// one (library use, the CLI, a server without a data directory) the
	// engine retains its entries in memory.
	History History
}

// CommitHook observes transcript appends; see Config.OnCommit.
type CommitHook func(ctx context.Context, n int, e Entry) error

// History reads transcript entries [from, to) back in order, one at a
// time; see Config.History. The engine only asks for entries whose commit
// hook has returned. A read that fails yields the error and stops.
type History func(from, to int) iter.Seq2[Entry, error]

// Engine is the APEx privacy engine for one sensitive table.
type Engine struct {
	mu     sync.Mutex
	data   *dataset.Table
	budget float64
	spent  float64
	mode   Mode
	mechs  []mechanism.Mechanism
	rng    *rand.Rand

	// The transcript. ledger holds, for every entry, the fields
	// Definition 6.1 and admission control read; full entries live in the
	// durable log behind history or, when there is none, in entries.
	ledger  []ledgerRecord
	entries []Entry // retained only when history == nil
	history History

	// Two-phase bookkeeping: reserved is the summed worst-case loss of
	// every prepared-but-unfinished plan (admission checks against
	// budget - spent - reserved, so concurrent plans can never jointly
	// overrun B), inflight counts those plans, and idle signals when
	// inflight returns to zero so Seal can wait out in-flight work.
	reserved float64
	inflight int
	idle     sync.Cond

	// execMu serializes mechanism runs — and with them every draw from
	// rng, which is not safe for concurrent use — without holding the
	// engine lock across the scan.
	execMu sync.Mutex

	transforms   *workload.TransformCache
	translations translate.Source
	reuse        bool
	answers      map[string]*cachedAnswer
	onCommit     CommitHook
	sealed       bool
}

// DefaultMechanisms returns the full suite the paper's APEx supports: the
// Laplace baseline, the H2 strategy mechanism, the multi-poking mechanism
// and the Laplace top-k mechanism.
func DefaultMechanisms() []mechanism.Mechanism {
	return []mechanism.Mechanism{
		mechanism.LM{},
		mechanism.NewSM(strategy.H2, 0),
		mechanism.MPM{},
		mechanism.LTM{},
	}
}

// New builds an engine over the sensitive table d.
func New(d *dataset.Table, cfg Config) (*Engine, error) {
	if d == nil {
		return nil, fmt.Errorf("engine: nil table")
	}
	if cfg.Budget <= 0 {
		return nil, fmt.Errorf("engine: privacy budget must be positive, got %v", cfg.Budget)
	}
	mechs := cfg.Mechanisms
	if mechs == nil {
		mechs = DefaultMechanisms()
	}
	if cfg.Translations != nil {
		// Wire the shared plan source into every suite SM that doesn't
		// already carry one, so per-session engines translate through the
		// dataset's cache instead of private ones.
		for _, m := range mechs {
			if sm, ok := m.(*mechanism.SM); ok && sm.Source == nil {
				sm.Source = cfg.Translations
			}
		}
	}
	rng := cfg.Rng
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	transforms := cfg.Transforms
	if transforms == nil {
		transforms = workload.NewTransformCache(workload.Options{})
	}
	e := &Engine{
		data:         d,
		budget:       cfg.Budget,
		mode:         cfg.Mode,
		mechs:        mechs,
		rng:          rng,
		transforms:   transforms,
		translations: cfg.Translations,
		reuse:        cfg.Reuse,
		answers:      make(map[string]*cachedAnswer),
		onCommit:     cfg.OnCommit,
		history:      cfg.History,
	}
	e.idle.L = &e.mu
	return e, nil
}

// Replay rebuilds an engine from a recovered transcript, consumed one
// entry at a time: each entry is checked against cfg.Budget (Definition
// 6.1) and recorded in the ledger, the cumulative actual loss becomes the
// engine's spent counter, and when cfg.Reuse is set the inferencer cache
// is rebuilt from the answered WCQ entries so recovered sessions keep
// their free-reuse behavior. With cfg.History set the entries themselves
// are not kept — they are already durable where History reads them.
// cfg.OnCommit is NOT invoked for the replayed entries; it fires only for
// entries appended after recovery.
//
// cfg.Rng should be a fresh source: re-seeding a recovered session with
// the seed it was created with would replay noise the analyst has already
// seen, voiding the privacy guarantee for post-recovery answers.
func Replay(d *dataset.Table, cfg Config, entries iter.Seq2[Entry, error]) (*Engine, error) {
	e, err := New(d, cfg)
	if err != nil {
		return nil, err
	}
	v := validator{budget: cfg.Budget}
	for en, err := range entries {
		if err != nil {
			return nil, fmt.Errorf("engine: replay: %w", err)
		}
		if err := v.add(len(e.ledger), recordOf(en)); err != nil {
			return nil, fmt.Errorf("engine: replay: %w", err)
		}
		e.record(en)
		if e.reuse && en.Query != nil && en.Answer != nil && en.Answer.Counts != nil {
			e.remember(en.Query, workload.Key(en.Query.Predicates), en.Answer.Counts)
		}
	}
	e.spent = v.spent
	return e, nil
}

// Budget returns the owner's total budget B.
func (e *Engine) Budget() float64 { return e.budget }

// Table returns the sensitive table the engine answers over.
func (e *Engine) Table() *dataset.Table { return e.data }

// Transforms returns the transformation cache the engine evaluates
// through — the per-dataset shared cache when the server wired one up.
// Batch schedulers use it to warm noise-free evaluations for many plans
// in one grouped columnar pass.
func (e *Engine) Transforms() *workload.TransformCache { return e.transforms }

// Mode returns the translator mode the engine was built with.
func (e *Engine) Mode() Mode { return e.mode }

// Spent returns the cumulative actual privacy loss so far.
func (e *Engine) Spent() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.spent
}

// Remaining returns B minus the cumulative actual loss.
func (e *Engine) Remaining() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.budget - e.spent
}

// Transcript returns a copy of the interaction log.
func (e *Engine) Transcript() ([]Entry, error) {
	return e.TranscriptSince(0)
}

// TranscriptSince returns a copy of the transcript entries from index n
// on, so incremental consumers copy only the delta instead of O(entries)
// per call. A negative n is treated as 0; n past the end returns nil. The
// error is a failed read of the durable log (see Entries).
func (e *Engine) TranscriptSince(n int) ([]Entry, error) {
	var out []Entry
	for en, err := range e.Entries(n) {
		if err != nil {
			return nil, err
		}
		out = append(out, en)
	}
	return out, nil
}

// Entries streams the transcript entries committed so far from index
// from on (negative means 0). The entry count is snapshotted under the
// engine lock and the entries are read outside it — from the durable log
// through Config.History, or from memory when the engine has none — so a
// reader never blocks a commit. A failed durable read yields one error
// and ends the sequence; commits are unaffected.
func (e *Engine) Entries(from int) iter.Seq2[Entry, error] {
	return func(yield func(Entry, error) bool) {
		from = max(from, 0)
		e.mu.Lock()
		to := len(e.ledger)
		// Entries are append-only and never rewritten, so the slots below
		// to can be read after the lock is released.
		mem := e.entries
		e.mu.Unlock()
		if from >= to {
			return
		}
		if e.history != nil {
			e.history(from, to)(yield)
			return
		}
		for _, en := range mem[from:to] {
			if !yield(en, nil) {
				return
			}
		}
	}
}

// Validate re-checks the Definition 6.1 invariant on the live ledger,
// returning the cumulative actual loss. This is what the server's
// transcript endpoint runs on every audit read.
func (e *Engine) Validate() (float64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return validateLedger(e.ledger, e.budget)
}

// TranscriptLen returns the number of transcript entries.
func (e *Engine) TranscriptLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.ledger)
}

// LedgerEpsilons returns the actual loss the ledger holds for every
// entry, in transcript order: the in-memory half of the scrubber's
// double-entry check against the ε recorded in the WAL's frames.
func (e *Engine) LedgerEpsilons() []float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]float64, len(e.ledger))
	for i, r := range e.ledger {
		out[i] = r.eps
	}
	return out
}

// VerifyAccounting is the background scrubber's live invariant check,
// one atomic look at both halves of the accounting: the ledger must
// pass Definition 6.1 against the budget, and the spent counter — the
// number admission control actually gates on — must equal the
// ledger-derived cumulative loss. Both are read under one lock hold,
// so no commit can slip between the two reads and fake a divergence. It
// returns the ledger-derived loss and, on failure, an error that
// starts with "transcript:" (invalid history) or "spent counter:"
// (counter drifted from the history it is supposed to summarize).
func (e *Engine) VerifyAccounting() (float64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	logSpent, err := validateLedger(e.ledger, e.budget)
	if err != nil {
		return logSpent, fmt.Errorf("transcript: %w", err)
	}
	diff := e.spent - logSpent
	if diff < 0 {
		diff = -diff
	}
	if diff > epsTol {
		return logSpent, fmt.Errorf("spent counter: engine charges %v, transcript sums to %v (drift %v)",
			e.spent, logSpent, diff)
	}
	return logSpent, nil
}

// TestingSkewSpent adjusts the spent counter without touching the
// transcript — a deliberate accounting bug, injectable only from tests,
// so the scrubber's divergence detection can be exercised against a
// mis-accounted engine.
func (e *Engine) TestingSkewSpent(delta float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.spent += delta
}

// Choice describes one mechanism's translation for a query; used by
// Translations for inspection and by the experiment harness.
type Choice struct {
	Mechanism mechanism.Mechanism
	Cost      mechanism.Cost
}

// Translations returns every applicable mechanism's privacy-cost interval
// for q, without running anything or consuming budget.
func (e *Engine) Translations(q *query.Query) ([]Choice, error) {
	tr, err := e.transform(q, workload.Key(q.Predicates))
	if err != nil {
		return nil, err
	}
	choices, _, err := e.choose(q, tr, 0)
	return choices, err
}

// choose is Algorithm 1's choice, written once: translate q under every
// applicable mechanism and pick, by the engine mode, the best of those
// whose worst case fits remaining — nil when none does (a denial). It
// touches no lock or accounting: callers own locking, spans and logging.
func (e *Engine) choose(q *query.Query, tr *workload.Transformed, remaining float64) (choices []Choice, best *Choice, err error) {
	for _, m := range e.mechs {
		if !m.Applicable(q, tr) {
			continue
		}
		cost, err := m.Translate(q, tr)
		if err != nil {
			return nil, nil, fmt.Errorf("engine: %s translate: %w", m.Name(), err)
		}
		choices = append(choices, Choice{Mechanism: m, Cost: cost})
	}
	for i := range choices {
		if c := &choices[i]; fits(c.Cost, remaining) && (best == nil || e.better(*c, *best)) {
			best = c
		}
	}
	return choices, best, nil
}

// fits is the admission rule: the worst case must fit what is left.
func fits(c mechanism.Cost, remaining float64) bool {
	return c.Upper <= remaining+epsTol
}

// Ask answers one exploration query (Algorithm 1's loop body). On denial it
// returns ErrDenied and charges nothing.
func (e *Engine) Ask(q *query.Query) (*Answer, error) {
	return e.AskContext(context.Background(), q)
}

// AskContext is Ask with cancellation: if ctx is done before the mechanism
// runs, the query is abandoned and nothing is charged or logged. A query
// whose mechanism has already started runs to completion — charging actual
// loss for a half-delivered answer would break the transcript invariant.
//
// AskContext is the single-caller composition of the two-phase API:
// Prepare (translate, admit, reserve — under the engine lock), Execute
// (the mechanism's scan and noise draw — outside it), Commit (settle the
// actual loss and append the transcript entry). Batch schedulers drive
// the phases directly to interleave many sessions' scans.
func (e *Engine) AskContext(ctx context.Context, q *query.Query) (*Answer, error) {
	plan, ans, err := e.Prepare(ctx, q)
	if err != nil || ans != nil {
		return ans, err
	}
	if err := ctx.Err(); err != nil {
		// Canceled after admission but before the mechanism ran: abandon
		// the plan, releasing its reservation; nothing is charged or logged.
		e.Abort(plan)
		return nil, err
	}
	return e.Commit(ctx, plan, e.Execute(ctx, plan))
}

// Prepare runs the first phase of a query under the engine lock: validate,
// translate every applicable mechanism, pick the best by the engine mode,
// and reserve its worst-case loss against the budget. Exactly one of the
// three results is meaningful:
//
//   - (plan, nil, nil): the query was admitted. The caller owns the plan
//     and must finish it with Commit or Abort — an abandoned plan leaks
//     its reservation and blocks Seal.
//   - (nil, answer, nil): the query was answered immediately from the
//     reuse cache (§9 inferencer) and is already committed.
//   - (nil, nil, err): the query was denied (ErrDenied, logged) or failed
//     validation/translation (nothing logged).
//
// Admission checks against budget - spent - reserved: reservations held by
// concurrent in-flight plans count as spent until they settle, so parallel
// plans can never jointly overrun B (their commits stay valid under
// Definition 6.1 in any completion order).
func (e *Engine) Prepare(ctx context.Context, q *query.Query) (*exec.Plan, *Answer, error) {
	ctx, prepSpan := obs.StartSpan(ctx, "prepare")
	defer prepSpan.End()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, nil, err
	}
	key := workload.Key(q.Predicates)
	// Stamp the canonical workload identity on the request trace while the
	// rendered key is in hand — the analytics plane attributes cost per
	// workload from this tag without re-rendering the predicates.
	obs.FromContext(ctx).Tag("workload", workload.ID(key))
	prepSpan.Set("transform_cache_hit", e.transforms.Has(key))
	tr, err := e.transform(q, key)
	if err != nil {
		return nil, nil, err
	}

	e.mu.Lock()
	defer e.mu.Unlock()

	// Re-check after potentially waiting on the lock behind other sessions'
	// commits.
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if e.sealed {
		return nil, nil, ErrSealed
	}

	if ans := e.tryReuse(q, key); ans != nil {
		prepSpan.Set("reuse_hit", true)
		if err := e.append(ctx, Entry{Query: q, Answer: ans}); err != nil {
			return nil, nil, err
		}
		return nil, ans, nil
	}

	// The translation loop is the Monte-Carlo-bearing part of Prepare
	// (pessimistic translators simulate the noise distribution), so it gets
	// its own span under "prepare".
	_, tlSpan := obs.StartSpan(ctx, "translate")
	if tlSpan != nil && e.translations != nil {
		// Whether the shared translation plane already holds a plan for
		// this workload's matrix — i.e. whether the Monte-Carlo sampling
		// below is a lookup or a fresh ~9 ms computation. Only a live
		// span can record the answer, so untraced requests skip the probe.
		tlSpan.Set("translate_cache_hit", e.translations.Ready(tr.MatrixFingerprint()))
	}
	_, best, err := e.choose(q, tr, e.budget-e.spent-e.reserved)
	if err != nil {
		tlSpan.End()
		return nil, nil, err
	}
	if best != nil {
		tlSpan.Set("mechanism", best.Mechanism.Name())
		tlSpan.Set("eps_lower", best.Cost.Lower)
		tlSpan.Set("eps_upper", best.Cost.Upper)
	}
	tlSpan.End()
	if best == nil {
		prepSpan.Set("denied", true)
		if err := e.append(ctx, Entry{Query: q, Denied: true}); err != nil {
			return nil, nil, err
		}
		return nil, nil, ErrDenied
	}

	prepSpan.Set("reserved_eps", best.Cost.Upper)
	e.reserved += best.Cost.Upper
	e.inflight++
	return &exec.Plan{
		Query:       q,
		Transformed: tr,
		Mechanism:   best.Mechanism,
		Cost:        best.Cost,
		Key:         key,
		Needs:       best.Mechanism.Prefetch(q, tr),
		Owner:       e,
	}, nil, nil
}

// Execute runs the plan's mechanism — the second phase, outside the engine
// lock. Runs on one engine are serialized (the engine's random source is
// single-stream), but independent engines execute concurrently, and the
// noise-free scan inside typically hits the shared per-dataset evaluation
// cache a batching scheduler warmed beforehand.
//
// The "execute" span opens before the run lock is taken, so it covers the
// wait for the engine's serialized random stream as well as the
// mechanism's scan and noise draw; run_us isolates the run itself.
func (e *Engine) Execute(ctx context.Context, p *exec.Plan) *exec.Outcome {
	_, span := obs.StartSpan(ctx, "execute")
	e.execMu.Lock()
	defer e.execMu.Unlock()
	start := time.Now()
	res, err := p.Mechanism.Run(p.Query, p.Transformed, e.data, e.rng, p.Cost)
	elapsed := time.Since(start)
	span.Set("mechanism", p.Mechanism.Name())
	span.Set("run_us", elapsed.Microseconds())
	span.End()
	return &exec.Outcome{Result: res, Err: err, Elapsed: elapsed}
}

// Commit settles a plan under the engine lock: the reservation is
// released, the actual loss is charged (Algorithm 1 line 12), the
// transcript entry is appended and the commit hook runs — ordered exactly
// like the transcript, as in the single-phase path. A mechanism failure
// in the outcome charges and logs nothing (matching Ask), and an actual
// loss above the reserved upper bound is rejected as a mechanism failure.
func (e *Engine) Commit(ctx context.Context, p *exec.Plan, o *exec.Outcome) (*Answer, error) {
	ctx, span := obs.StartSpan(ctx, "commit")
	defer span.End()
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.finish(p); err != nil {
		return nil, err
	}
	if o.Err != nil {
		return nil, fmt.Errorf("engine: %s run: %v: %w", p.Mechanism.Name(), o.Err, ErrMechanismFailure)
	}
	res := o.Result
	if res.Epsilon > p.Cost.Upper+epsTol {
		return nil, fmt.Errorf("engine: %s actual loss %v exceeds declared upper bound %v: %w",
			p.Mechanism.Name(), res.Epsilon, p.Cost.Upper, ErrMechanismFailure)
	}
	ans := &Answer{
		Counts:       res.Counts,
		Selected:     res.Selected,
		Predicates:   p.Query.Predicates,
		Epsilon:      res.Epsilon,
		EpsilonUpper: p.Cost.Upper,
		Mechanism:    p.Mechanism.Name(),
	}
	span.Set("epsilon", res.Epsilon)
	e.spent += res.Epsilon
	if err := e.append(ctx, Entry{Query: p.Query, Answer: ans, Epsilon: res.Epsilon}); err != nil {
		// The charge stands — the noisy answer exists even if the analyst
		// never sees it — so a crash can only over-, never under-account.
		return nil, err
	}
	e.remember(p.Query, p.Key, ans.Counts)
	return ans, nil
}

// Abort abandons a prepared plan without running (or after a run whose
// result is discarded before any noise reached the caller): the
// reservation is released and nothing is charged or logged.
func (e *Engine) Abort(p *exec.Plan) {
	e.mu.Lock()
	defer e.mu.Unlock()
	_ = e.finish(p)
}

// finish retires a plan's reservation. Caller holds e.mu.
func (e *Engine) finish(p *exec.Plan) error {
	if p.Owner != e {
		return fmt.Errorf("engine: plan was prepared by a different engine")
	}
	if p.Finished {
		return fmt.Errorf("engine: plan already finished")
	}
	p.Finished = true
	e.reserved -= p.Cost.Upper
	if e.reserved < 0 {
		e.reserved = 0 // absorb float drift; reservations are short-lived
	}
	e.inflight--
	if e.inflight == 0 {
		e.idle.Broadcast()
	}
	return nil
}

// TranslationNeed pairs a translation warm item with the source to warm
// it in, so a scheduler batching across engines can group items by
// source (engines of one dataset share one) and pay one fanned-out
// sampling pass per source.
type TranslationNeed struct {
	Source translate.Source
	Item   translate.Item
}

// TranslationNeeds returns the Monte-Carlo translation plans q's
// applicable mechanisms would compute inside Prepare, without computing
// them. A batching scheduler calls it for every request of a batch
// before admission and warms the union via TranslateBatch; errors (a
// malformed query, an untransformable workload) return nil and are left
// for Prepare to surface.
func (e *Engine) TranslationNeeds(q *query.Query) []TranslationNeed {
	if q.Validate() != nil {
		return nil
	}
	tr, err := e.transform(q, workload.Key(q.Predicates))
	if err != nil {
		return nil
	}
	var out []TranslationNeed
	for _, m := range e.mechs {
		tw, ok := m.(mechanism.TranslationWarmer)
		if !ok {
			continue
		}
		if src, item, ok := tw.TranslationNeed(q, tr); ok {
			out = append(out, TranslationNeed{Source: src, Item: item})
		}
	}
	return out
}

// append records one transcript entry and runs the commit hook. Caller
// holds e.mu. On hook failure the entry stays in the ledger (and any
// charge the caller applied stands) and an ErrPersist-wrapped error is
// returned for the caller to surface instead of the answer.
//
// Provenance (TraceID, At) is stamped only when ctx carries a request ID:
// engine-direct callers keep byte-identical transcripts across runs and
// storage backends, while served requests get attributable entries.
func (e *Engine) append(ctx context.Context, en Entry) error {
	if id := obs.RequestID(ctx); id != "" {
		en.TraceID = id
		en.At = time.Now()
	}
	n := len(e.ledger)
	e.record(en)
	if e.onCommit == nil {
		return nil
	}
	if err := e.onCommit(ctx, n, en); err != nil {
		return fmt.Errorf("engine: commit entry %d: %v: %w", n, err, ErrPersist)
	}
	return nil
}

// ChargeExternal reserves and charges privacy loss for a mechanism that
// runs outside the engine's own suite (the Appendix E aggregate
// extensions). It enforces the same analyzer invariants as Ask: the upper
// bound must fit the remaining budget (otherwise ErrDenied and nothing is
// charged), and the actual loss must not exceed the declared upper bound.
func (e *Engine) ChargeExternal(upper, actual float64, label string) error {
	if upper < 0 || actual < 0 || actual > upper+epsTol {
		return fmt.Errorf("engine: invalid external charge actual=%v upper=%v", actual, upper)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.sealed {
		return ErrSealed
	}
	// Reservations held by in-flight plans count as spent here too:
	// otherwise an external charge racing a prepared plan could jointly
	// overrun B even though each passed its own admission check.
	if upper > e.budget-e.spent-e.reserved+epsTol {
		if err := e.append(context.Background(), Entry{Label: label, Denied: true}); err != nil {
			return err
		}
		return ErrDenied
	}
	e.spent += actual
	return e.append(context.Background(), Entry{Label: label, Epsilon: actual})
}

// Seal closes the engine to new interactions: once it returns, any
// in-flight interaction has fully committed — Seal waits for every
// prepared plan to finish (Commit or Abort) as well as on the engine lock
// behind any single-phase caller — and every later one fails with
// ErrSealed, charging and logging nothing. Callers retiring a session's
// durable log seal first, so no commit can race the log's close.
func (e *Engine) Seal() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sealed = true
	for e.inflight > 0 {
		e.idle.Wait()
	}
}

// LaplaceNoise draws n independent Laplace(0, b) samples from the
// engine's own random source — the source the owner's seed policy
// governs. Mechanisms that run outside the engine's suite (the Appendix E
// aggregate extensions) must draw their noise here rather than from a
// caller-supplied generator, so a server's crypto-random-by-default rule
// covers them too.
func (e *Engine) LaplaceNoise(b float64, n int) []float64 {
	// rng draws are serialized by execMu (not the engine lock) so they
	// never race a mechanism run executing outside the lock.
	e.execMu.Lock()
	defer e.execMu.Unlock()
	return noise.LaplaceVec(e.rng, b, n)
}

// better reports whether a should be preferred over b under the engine mode.
func (e *Engine) better(a, b Choice) bool {
	if e.mode == Optimistic {
		if a.Cost.Lower != b.Cost.Lower {
			return a.Cost.Lower < b.Cost.Lower
		}
		return a.Cost.Upper < b.Cost.Upper
	}
	if a.Cost.Upper != b.Cost.Upper {
		return a.Cost.Upper < b.Cost.Upper
	}
	return a.Cost.Lower < b.Cost.Lower
}

// transform computes (and caches) T(W) for the query's workload through
// the engine's transformation cache; repeated workloads (common in the
// entity-resolution case study) skip re-partitioning, and with a shared
// cache (Config.Transforms) concurrent sessions share one transformation
// and one noise-free evaluation per workload. key is
// workload.Key(q.Predicates), rendered once by the caller.
func (e *Engine) transform(q *query.Query, key string) (*workload.Transformed, error) {
	return e.transforms.Transform(e.data.Schema(), key, q.Predicates)
}

// ledgerRecord is what the engine keeps on the heap for every transcript
// entry: exactly the fields Definition 6.1 reads (32 bytes).
type ledgerRecord struct {
	eps      float64 // actual loss charged (0 when denied)
	ansEps   float64 // the answer's own record of that loss
	ansUpper float64 // worst-case loss reserved for the answer
	denied   bool
	answered bool
}

func recordOf(en Entry) ledgerRecord {
	r := ledgerRecord{eps: en.Epsilon, denied: en.Denied}
	if en.Answer != nil {
		r.answered, r.ansEps, r.ansUpper = true, en.Answer.Epsilon, en.Answer.EpsilonUpper
	}
	return r
}

// record adds en to the transcript: its ledger record always, the entry
// itself only when no History can read it back. Caller holds e.mu (or
// owns the engine exclusively, as Replay does).
func (e *Engine) record(en Entry) {
	e.ledger = append(e.ledger, recordOf(en))
	if e.history == nil {
		e.entries = append(e.entries, en)
	}
}

// validator checks Definition 6.1 one record at a time; spent is the
// cumulative actual loss of the records added so far.
type validator struct {
	budget, spent float64
}

// add checks record i against the records before it and charges it.
func (v *validator) add(i int, r ledgerRecord) error {
	if r.eps < 0 {
		return fmt.Errorf("engine: entry %d has negative epsilon %v", i, r.eps)
	}
	if r.denied {
		if r.eps != 0 {
			return fmt.Errorf("engine: denied entry %d charged %v", i, r.eps)
		}
		return nil
	}
	if r.answered {
		if r.ansEps != r.eps {
			return fmt.Errorf("engine: entry %d epsilon mismatch: %v vs %v", i, r.ansEps, r.eps)
		}
		if r.ansUpper+epsTol < r.eps {
			return fmt.Errorf("engine: entry %d actual %v above reserved %v", i, r.eps, r.ansUpper)
		}
		if v.spent+r.ansUpper > v.budget+epsTol {
			return fmt.Errorf("engine: entry %d reserved %v beyond remaining %v", i, r.ansUpper, v.budget-v.spent)
		}
	}
	v.spent += r.eps
	if v.spent > v.budget+epsTol {
		return fmt.Errorf("engine: cumulative loss %v exceeds budget %v at entry %d", v.spent, v.budget, i)
	}
	return nil
}

func validateLedger(ledger []ledgerRecord, budget float64) (float64, error) {
	v := validator{budget: budget}
	for i, r := range ledger {
		if err := v.add(i, r); err != nil {
			return v.spent, err
		}
	}
	return v.spent, nil
}

// ValidateTranscript checks the §6 validity invariants (Definition 6.1) on
// a transcript against a budget B: actual losses are nonnegative and sum to
// at most B, denied entries charge nothing, and no single answered entry's
// reserved worst case could have exceeded the budget remaining when it was
// asked. It returns the total actual loss.
func ValidateTranscript(entries []Entry, budget float64) (float64, error) {
	v := validator{budget: budget}
	for i, e := range entries {
		if err := v.add(i, recordOf(e)); err != nil {
			return v.spent, err
		}
	}
	return v.spent, nil
}
