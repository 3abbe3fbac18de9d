package engine

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/accuracy"
	"repro/internal/dataset"
	"repro/internal/mechanism"
	"repro/internal/noise"
	"repro/internal/query"
	"repro/internal/workload"
)

// faultyMechanism misbehaves on demand: it can lie about its translation
// (reporting a cheaper bound than the loss it actually charges) or fail in
// Run. The analyzer must contain both failure modes.
type faultyMechanism struct {
	overcharge bool
	failRun    bool
}

func (faultyMechanism) Name() string { return "faulty" }

func (faultyMechanism) Applicable(q *query.Query, tr *workload.Transformed) bool {
	return q.Kind == query.WCQ
}

func (m faultyMechanism) Translate(q *query.Query, tr *workload.Transformed) (mechanism.Cost, error) {
	return mechanism.Cost{Lower: 0.001, Upper: 0.001}, nil
}

func (faultyMechanism) Prefetch(*query.Query, *workload.Transformed) mechanism.Prefetch {
	return mechanism.Prefetch{}
}

func (m faultyMechanism) Run(q *query.Query, tr *workload.Transformed, d *dataset.Table, rng *rand.Rand, _ mechanism.Cost) (*mechanism.Result, error) {
	if m.failRun {
		return nil, errRunFailed
	}
	eps := 0.001
	if m.overcharge {
		eps = 10 // way beyond the declared upper bound
	}
	return &mechanism.Result{Counts: make([]float64, q.L()), Epsilon: eps}, nil
}

var errRunFailed = &runError{}

type runError struct{}

func (*runError) Error() string { return "injected run failure" }

func faultEngine(t *testing.T, m mechanism.Mechanism) *Engine {
	t.Helper()
	d := testTable(t, []int{10, 20})
	e, err := New(d, Config{
		Budget:     1,
		Rng:        noise.NewRand(1),
		Mechanisms: []mechanism.Mechanism{m},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEngineRejectsOverchargingMechanism(t *testing.T) {
	e := faultEngine(t, faultyMechanism{overcharge: true})
	q := histQuery(t, 2, accuracy.Requirement{Alpha: 10, Beta: 0.05})
	_, err := e.Ask(q)
	if err == nil {
		t.Fatal("engine must reject a mechanism whose actual loss exceeds its declared bound")
	}
	if !strings.Contains(err.Error(), "exceeds declared upper bound") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestEngineSurfacesRunFailures(t *testing.T) {
	e := faultEngine(t, faultyMechanism{failRun: true})
	q := histQuery(t, 2, accuracy.Requirement{Alpha: 10, Beta: 0.05})
	if _, err := e.Ask(q); err == nil {
		t.Fatal("run failure must propagate")
	}
	if e.Spent() != 0 {
		t.Fatal("failed run must not charge")
	}
}

func TestChargeExternalValidation(t *testing.T) {
	d := testTable(t, []int{10})
	e, err := New(d, Config{Budget: 1, Rng: noise.NewRand(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ChargeExternal(0.5, 0.6, "bad"); err == nil {
		t.Fatal("actual above upper must be rejected")
	}
	if err := e.ChargeExternal(-1, -1, "bad"); err == nil {
		t.Fatal("negative charge must be rejected")
	}
	if err := e.ChargeExternal(0.5, 0.3, "ok"); err != nil {
		t.Fatal(err)
	}
	if e.Spent() != 0.3 {
		t.Fatalf("spent %v", e.Spent())
	}
	log := transcriptOf(t, e)
	if len(log) != 1 || log[0].Label != "ok" {
		t.Fatalf("transcript %+v", log)
	}
}
