package server

// The health plane: liveness (GET /v1/healthz), readiness with
// machine-readable degraded-state JSON (GET /v1/readyz), and the
// budget-observability layer — per-dataset/per-session ε-remaining
// gauges, windowed burn rate and time-to-exhaustion on /metrics and
// GET /v1/datasets/{name}/budget. Together with the background scrubber
// these turn the durability and accounting claims of the lower layers
// into continuously machine-checked ones.

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Health check statuses.
const (
	HealthOK       = "ok"
	HealthDegraded = "degraded"
	HealthDisabled = "disabled" // the subsystem is not configured on this server
)

// LivenessResponse is the GET /v1/healthz body: is the process up and
// able to answer at all. It never degrades short of the process dying —
// orchestrators use it to decide restarts, readyz to decide routing.
type LivenessResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Datasets      int     `json:"datasets"`
	Sessions      int     `json:"sessions"`
}

// HealthCheck is one readiness dimension.
type HealthCheck struct {
	Name   string `json:"name"`
	Status string `json:"status"` // ok | degraded | disabled
	Detail string `json:"detail,omitempty"`
}

// HealthResponse is the GET /v1/readyz body, returned with 200 when
// every check passes and 503 (same JSON shape) when any check degrades,
// so load balancers can act on the status code and operators on the
// structured detail.
type HealthResponse struct {
	Status string        `json:"status"` // ok | degraded
	Checks []HealthCheck `json:"checks"`
}

// BudgetSessionReport is one session's slice of a dataset budget report.
type BudgetSessionReport struct {
	ID        string  `json:"id"`
	Budget    float64 `json:"budget"`
	Spent     float64 `json:"spent"`
	Remaining float64 `json:"remaining"`
	Queries   int     `json:"queries"`
}

// BudgetResponse is the GET /v1/datasets/{name}/budget body: the
// dataset's aggregate ε position across its live sessions, the windowed
// burn rate, and the time-to-exhaustion estimate (absent when the burn
// rate is ~0 — an idle dataset never exhausts).
type BudgetResponse struct {
	Dataset            string                `json:"dataset"`
	Sessions           int                   `json:"sessions"`
	Budget             float64               `json:"budget"`
	Spent              float64               `json:"spent"`
	Remaining          float64               `json:"remaining"`
	BurnRatePerSecond  float64               `json:"burn_rate_epsilon_per_second"`
	WindowSeconds      float64               `json:"window_seconds"`
	ExhaustedInSeconds *float64              `json:"exhausted_in_seconds,omitempty"`
	PerSession         []BudgetSessionReport `json:"per_session"`
}

// budgetWindow is the burn-rate observation window.
const budgetWindow = 5 * time.Minute

// budgetSample is one (time, cumulative spent) observation for a dataset.
type budgetSample struct {
	at    time.Time
	spent float64
}

// budgetTracker keeps a pruned ring of spend samples per dataset and
// derives the windowed burn rate from the oldest and newest. Samples
// land whenever someone looks — a /metrics scrape, a budget report, a
// scrub cycle — so the window is as fine-grained as the observation
// pressure, which is exactly who cares about the answer.
type budgetTracker struct {
	mu     sync.Mutex
	window time.Duration
	series map[string][]budgetSample
}

func newBudgetTracker(window time.Duration) *budgetTracker {
	return &budgetTracker{window: window, series: make(map[string][]budgetSample)}
}

// observe records one cumulative-spend sample and returns the burn rate
// over the retained window plus the window actually covered. The rate is
// clamped at 0: total spend can step down when a session closes and its
// charge leaves the live sum, which is bookkeeping, not negative burn.
func (t *budgetTracker) observe(dataset string, spent float64, now time.Time) (rate, window float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := append(t.series[dataset], budgetSample{at: now, spent: spent})
	cut := 0
	for cut < len(s)-1 && now.Sub(s[cut].at) > t.window {
		cut++
	}
	s = s[cut:]
	t.series[dataset] = s
	first, last := s[0], s[len(s)-1]
	dt := last.at.Sub(first.at).Seconds()
	if dt <= 0 {
		return 0, 0
	}
	r := (last.spent - first.spent) / dt
	if r < 0 {
		r = 0
	}
	return r, dt
}

// MarkReady flips the server ready: recovery (catalog + session replay)
// has finished and readyz may pass. Non-durable servers are born ready.
func (s *Server) MarkReady() { s.ready.Store(true) }

// Ready reports whether startup recovery has completed.
func (s *Server) Ready() bool { return s.ready.Load() }

func (s *Server) handleLiveness(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, LivenessResponse{
		Status:        HealthOK,
		UptimeSeconds: time.Since(s.started).Seconds(),
		Datasets:      len(s.registry.Names()),
		Sessions:      len(s.sessions.List()),
	})
}

// queueSaturationFraction is the occupancy at which a dataset queue
// flips the readiness "queue" check: at 90% of capacity the next burst
// will be rejected with 429s, so routing new traffic here is a mistake.
const queueSaturationFraction = 0.9

// walProbePeriod bounds how often readyz actually fsyncs the data
// volume; within a period the cached verdict serves. walProbeSlow is the
// latency at which a responsive-but-slow volume degrades readiness.
const (
	walProbePeriod = time.Second
	walProbeSlow   = 2 * time.Second
)

// checkRecovery: has startup recovery finished.
func (s *Server) checkRecovery() HealthCheck {
	if !s.Ready() {
		return HealthCheck{Name: "recovery", Status: HealthDegraded, Detail: "startup recovery has not completed"}
	}
	return HealthCheck{Name: "recovery", Status: HealthOK}
}

// checkWALFlusher: is the data volume still accepting durable writes.
func (s *Server) checkWALFlusher() HealthCheck {
	if s.st == nil {
		return HealthCheck{Name: "wal_flusher", Status: HealthDisabled, Detail: "server runs without a store"}
	}
	s.probeMu.Lock()
	if time.Since(s.probeAt) >= walProbePeriod {
		s.probeDur, s.probeErr = s.st.ProbeSync()
		s.probeAt = time.Now()
	}
	dur, err := s.probeDur, s.probeErr
	s.probeMu.Unlock()
	switch {
	case err != nil:
		return HealthCheck{Name: "wal_flusher", Status: HealthDegraded, Detail: err.Error()}
	case dur > walProbeSlow:
		return HealthCheck{Name: "wal_flusher", Status: HealthDegraded,
			Detail: fmt.Sprintf("fsync probe took %s (threshold %s)", dur, walProbeSlow)}
	default:
		return HealthCheck{Name: "wal_flusher", Status: HealthOK,
			Detail: fmt.Sprintf("fsync probe %s", dur)}
	}
}

// checkQueues: is any dataset queue near its backpressure ceiling.
func (s *Server) checkQueues() HealthCheck {
	capacity := s.sched.Capacity()
	if capacity <= 0 {
		return HealthCheck{Name: "queue", Status: HealthOK}
	}
	for _, name := range s.registry.Names() {
		depth := s.sched.QueueDepth(name)
		if float64(depth) >= queueSaturationFraction*float64(capacity) {
			return HealthCheck{Name: "queue", Status: HealthDegraded,
				Detail: fmt.Sprintf("dataset %q queue at %d/%d", name, depth, capacity)}
		}
	}
	return HealthCheck{Name: "queue", Status: HealthOK}
}

// checkScrub: did the last verification cycle come back clean.
func (s *Server) checkScrub() HealthCheck {
	sc := s.scrubber
	if sc == nil {
		return HealthCheck{Name: "scrub", Status: HealthDisabled, Detail: "verification plane not constructed"}
	}
	last, ran := sc.LastCycle()
	if !ran {
		if !sc.Running() {
			return HealthCheck{Name: "scrub", Status: HealthDisabled, Detail: "background scrubbing off (-scrub-interval 0)"}
		}
		return HealthCheck{Name: "scrub", Status: HealthOK, Detail: "no cycle completed yet"}
	}
	if !last.Clean() {
		return HealthCheck{Name: "scrub", Status: HealthDegraded,
			Detail: fmt.Sprintf("last cycle found %d violation(s); see apex_invariant_violations_total and the incident log", len(last.Violations))}
	}
	return HealthCheck{Name: "scrub", Status: HealthOK,
		Detail: fmt.Sprintf("last cycle clean: %d checks, %d bytes verified", last.Checks, last.BytesRead)}
}

func (s *Server) healthChecks() HealthResponse {
	resp := HealthResponse{
		Status: HealthOK,
		Checks: []HealthCheck{s.checkRecovery(), s.checkWALFlusher(), s.checkQueues(), s.checkScrub()},
	}
	for _, c := range resp.Checks {
		if c.Status == HealthDegraded {
			resp.Status = HealthDegraded
			break
		}
	}
	return resp
}

func (s *Server) handleReadiness(w http.ResponseWriter, r *http.Request) {
	resp := s.healthChecks()
	status := http.StatusOK
	if resp.Status != HealthOK {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// datasetBudget aggregates one dataset's live-session ε position.
func (s *Server) datasetBudget(name string, now time.Time) BudgetResponse {
	sessions := s.sessions.ForDataset(name)
	resp := BudgetResponse{Dataset: name, Sessions: len(sessions), PerSession: make([]BudgetSessionReport, 0, len(sessions))}
	for _, sess := range sessions {
		eng := sess.Engine()
		spent := eng.Spent()
		resp.Budget += eng.Budget()
		resp.Spent += spent
		resp.PerSession = append(resp.PerSession, BudgetSessionReport{
			ID:        sess.ID,
			Budget:    eng.Budget(),
			Spent:     spent,
			Remaining: eng.Budget() - spent,
			Queries:   eng.TranscriptLen(),
		})
	}
	resp.Remaining = resp.Budget - resp.Spent
	resp.BurnRatePerSecond, resp.WindowSeconds = s.budget.observe(name, resp.Spent, now)
	if resp.BurnRatePerSecond > 0 && resp.Remaining > 0 {
		tte := resp.Remaining / resp.BurnRatePerSecond
		resp.ExhaustedInSeconds = &tte
	}
	return resp
}

func (s *Server) handleBudget(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, ok := s.registry.Dataset(name); !ok {
		writeError(w, r, http.StatusNotFound, CodeNotFound, fmt.Sprintf("unknown dataset %q", name))
		return
	}
	writeJSON(w, http.StatusOK, s.datasetBudget(name, time.Now()))
}

// registerHealthMetrics wires the budget-observability and readiness
// series: collected at scrape time (the OnScrape idiom — the truth lives
// in the engines and checks, and is only worth computing when someone
// looks).
func (s *Server) registerHealthMetrics(m *metrics.Registry) {
	ready := m.Gauge("apex_ready", "1 when the server passes every readiness check, 0 when degraded.")
	ready.Set(0)
	ledger := m.Gauge("apex_session_ledger_entries",
		"Transcript entries across live sessions: each holds one fixed-size ledger record on the heap (the full entry is in the session's WAL when the server is durable).")
	m.OnScrape(func() {
		if s.healthChecks().Status == HealthOK {
			ready.Set(1)
		} else {
			ready.Set(0)
		}
		var entries int
		for _, sess := range s.sessions.List() {
			entries += sess.Engine().TranscriptLen()
		}
		ledger.Set(float64(entries))
		now := time.Now()
		for _, name := range s.registry.Names() {
			b := s.datasetBudget(name, now)
			m.Gauge("apex_dataset_budget_remaining_epsilon",
				"Total ε remaining across the dataset's live sessions.",
				metrics.L("dataset", name)).Set(b.Remaining)
			m.Gauge("apex_dataset_budget_burn_epsilon_per_second",
				"Windowed ε burn rate across the dataset's live sessions.",
				metrics.L("dataset", name)).Set(b.BurnRatePerSecond)
			tte := -1.0 // sentinel: idle dataset, no exhaustion in sight
			if b.ExhaustedInSeconds != nil {
				tte = *b.ExhaustedInSeconds
			}
			m.Gauge("apex_dataset_budget_exhausted_seconds",
				"Estimated seconds until the dataset's live sessions exhaust their budgets at the current burn rate (-1 when idle).",
				metrics.L("dataset", name)).Set(tte)
			for _, ps := range b.PerSession {
				m.Gauge("apex_session_budget_remaining_epsilon",
					"ε remaining for one live session.",
					metrics.L("dataset", name), metrics.L("session", ps.ID)).Set(ps.Remaining)
			}
		}
	})
}
