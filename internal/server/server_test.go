package server_test

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/server"
	"repro/internal/server/client"
)

const epsTol = 1e-9

// peopleCSV builds a small CSV over (age continuous 0-100, state in {CA,NY,TX}).
func peopleCSV(n int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	states := []string{"CA", "NY", "TX"}
	var b strings.Builder
	b.WriteString("age,state\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d,%s\n", rng.Intn(100), states[rng.Intn(len(states))])
	}
	return b.String()
}

func peopleSchema(t *testing.T) *dataset.Schema {
	t.Helper()
	s, err := dataset.NewSchema(
		dataset.Attribute{Name: "age", Kind: dataset.Continuous, Min: 0, Max: 100},
		dataset.Attribute{Name: "state", Kind: dataset.Categorical, Values: []string{"CA", "NY", "TX"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// newTestServer starts an httptest server hosting two datasets ("people"
// and "people2") and returns a client against it.
func newTestServer(t *testing.T, cfg server.Config) *client.Client {
	t.Helper()
	reg := server.NewRegistry()
	schema := peopleSchema(t)
	for i, name := range []string{"people", "people2"} {
		table, err := dataset.ReadCSV(strings.NewReader(peopleCSV(200, int64(i+1))), schema)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Add(name, table); err != nil {
			t.Fatal(err)
		}
	}
	srv := server.New(reg, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Shutdown()
	})
	return client.New(ts.URL)
}

const (
	easyQuery = "BIN D ON COUNT(*) WHERE W = { age BETWEEN 0 AND 50, age BETWEEN 50 AND 100 } ERROR 100 CONFIDENCE 0.95;"
	// hardQuery has a tight error bound, so each answer costs a sizable
	// epsilon and a small budget exhausts in a handful of queries.
	hardQuery = "BIN D ON COUNT(*) WHERE W = { age BETWEEN 0 AND 50, age BETWEEN 50 AND 100 } ERROR 5 CONFIDENCE 0.95;"
)

func TestDatasetEndpoints(t *testing.T) {
	c := newTestServer(t, server.Config{})

	infos, err := c.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Name != "people" || infos[1].Name != "people2" {
		t.Fatalf("datasets = %+v", infos)
	}
	if infos[0].Rows != 200 {
		t.Fatalf("rows = %d", infos[0].Rows)
	}

	// Single dataset carries the public schema.
	info, err := c.Dataset("people")
	if err != nil {
		t.Fatal(err)
	}
	if info.Schema == nil || info.Schema.Arity() != 2 {
		t.Fatalf("schema = %+v", info.Schema)
	}
	if _, ok := info.Schema.AttrByName("state"); !ok {
		t.Fatal("schema lost the state attribute over the wire")
	}

	if _, err := c.Dataset("nope"); !isAPIError(err, 404, server.CodeNotFound) {
		t.Fatalf("unknown dataset: %v", err)
	}

	// Owner registration endpoint.
	added, err := c.AddDataset(server.AddDatasetRequest{
		Name:   "extra",
		Schema: peopleSchema(t),
		CSV:    peopleCSV(50, 99),
	})
	if err != nil {
		t.Fatal(err)
	}
	if added.Rows != 50 {
		t.Fatalf("added rows = %d", added.Rows)
	}
	// Duplicate names conflict.
	_, err = c.AddDataset(server.AddDatasetRequest{Name: "extra", Schema: peopleSchema(t), CSV: "age,state\n"})
	if !isAPIError(err, 409, server.CodeConflict) {
		t.Fatalf("duplicate dataset: %v", err)
	}
	// Names must be URL-path safe so the /v1/datasets/{name} route works.
	_, err = c.AddDataset(server.AddDatasetRequest{Name: "a/b", Schema: peopleSchema(t), CSV: "age,state\n"})
	if !isAPIError(err, 400, server.CodeBadRequest) {
		t.Fatalf("slash in dataset name: %v", err)
	}
	// Sessions can open against the freshly registered dataset.
	if _, err := c.CreateSession(server.CreateSessionRequest{Dataset: "extra", Budget: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestAddDatasetRefusesDuplicateHeader: a CSV header naming a column twice
// is the owner's bad input — a 400 naming the column, memory-only and
// durable alike — not a 500, and nothing is registered.
func TestAddDatasetRefusesDuplicateHeader(t *testing.T) {
	durable, _, _, _ := startDurableServer(t, t.TempDir())
	for name, c := range map[string]*client.Client{"memory": newTestServer(t, server.Config{}), "durable": durable} {
		_, err := c.AddDataset(server.AddDatasetRequest{Name: "dup", Schema: peopleSchema(t), CSV: "age,state,age\n1,CA,2\n"})
		var apiErr *client.APIError
		if !isAPIError(err, 400, server.CodeBadRequest) || !errors.As(err, &apiErr) ||
			!strings.Contains(apiErr.Message, `CSV column "age" appears twice in the header`) {
			t.Fatalf("%s: duplicate header column: %v", name, err)
		}
		if _, err := c.Dataset("dup"); !isAPIError(err, 404, server.CodeNotFound) {
			t.Fatalf("%s: refused dataset is visible: %v", name, err)
		}
	}
}

func TestSessionLifecycle(t *testing.T) {
	c := newTestServer(t, server.Config{AllowSeeds: true})

	// Bad requests first.
	if _, err := c.CreateSession(server.CreateSessionRequest{Dataset: "nope", Budget: 1}); !isAPIError(err, 404, server.CodeNotFound) {
		t.Fatalf("unknown dataset: %v", err)
	}
	if _, err := c.CreateSession(server.CreateSessionRequest{Dataset: "people", Budget: 1, Mode: "wild"}); !isAPIError(err, 400, server.CodeBadRequest) {
		t.Fatalf("bad mode: %v", err)
	}
	if _, err := c.CreateSession(server.CreateSessionRequest{Dataset: "people", Budget: -1}); !isAPIError(err, 400, server.CodeBadRequest) {
		t.Fatalf("bad budget: %v", err)
	}

	sess, err := c.CreateSession(server.CreateSessionRequest{
		Dataset: "people", Budget: 1.0, Mode: "optimistic", Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sess.ID == "" || sess.Budget != 1.0 || sess.Remaining != 1.0 || sess.Mode != "optimistic" {
		t.Fatalf("session = %+v", sess)
	}

	// Parse errors surface as structured 4xx, not engine errors.
	if _, err := c.Query(sess.ID, "BIN D ON"); !isAPIError(err, 400, server.CodeParseError) {
		t.Fatalf("parse error: %v", err)
	}
	if _, err := c.Query(sess.ID, ""); !isAPIError(err, 400, server.CodeParseError) {
		t.Fatalf("empty query: %v", err)
	}
	// Unknown attributes are the analyst's fault too.
	if _, err := c.Query(sess.ID, "BIN D ON COUNT(*) WHERE W = { zzz BETWEEN 0 AND 1 } ERROR 100 CONFIDENCE 0.95;"); !isAPIError(err, 400, server.CodeBadRequest) {
		t.Fatalf("unknown attribute: %v", err)
	}

	// An answered query charges budget and echoes counts per predicate.
	ans, err := c.Query(sess.ID, easyQuery)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Denied {
		t.Fatalf("easy query denied: %+v", ans)
	}
	if len(ans.Counts) != 2 || len(ans.Predicates) != 2 {
		t.Fatalf("answer shape: %+v", ans)
	}
	if ans.Epsilon <= 0 || ans.Epsilon > ans.EpsilonUpper+epsTol {
		t.Fatalf("epsilon %v outside (0, %v]", ans.Epsilon, ans.EpsilonUpper)
	}
	if ans.Spent != ans.Epsilon || ans.Remaining != 1.0-ans.Epsilon {
		t.Fatalf("budget math: %+v", ans)
	}

	// Session state reflects the charge; failed parses never hit the engine.
	got, err := c.Session(sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Queries counts transcript entries; parse and validation failures
	// never reach the engine, so only the answered query is logged.
	if got.Spent != ans.Epsilon || got.Queries != 1 {
		t.Fatalf("session after query = %+v", got)
	}

	// Transcript: one answered entry, valid under Definition 6.1.
	tr, err := c.Transcript(sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Valid || tr.Invalid != "" {
		t.Fatalf("transcript invalid: %+v", tr)
	}
	if len(tr.Entries) != 1 || tr.Entries[0].Denied || tr.Entries[0].Mechanism == "" {
		t.Fatalf("entries = %+v", tr.Entries)
	}
	if !strings.Contains(tr.Entries[0].Query, "BIN D ON COUNT(*)") {
		t.Fatalf("query not rendered: %q", tr.Entries[0].Query)
	}
	checkDefinition61(t, tr)

	// Close and verify it is gone.
	if err := c.CloseSession(sess.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Session(sess.ID); !isAPIError(err, 404, server.CodeNotFound) {
		t.Fatalf("closed session: %v", err)
	}
	if err := c.CloseSession(sess.ID); !isAPIError(err, 404, server.CodeNotFound) {
		t.Fatalf("double close: %v", err)
	}
}

func TestBudgetCapAndSessionLimit(t *testing.T) {
	c := newTestServer(t, server.Config{MaxBudget: 0.5, MaxSessions: 2})

	if _, err := c.CreateSession(server.CreateSessionRequest{Dataset: "people", Budget: 1.0}); !isAPIError(err, 403, server.CodePolicyDenied) {
		t.Fatalf("over-cap budget: %v", err)
	}
	// Fixed seeds are an owner policy, off by default.
	if _, err := c.CreateSession(server.CreateSessionRequest{Dataset: "people", Budget: 0.5, Seed: 7}); !isAPIError(err, 403, server.CodePolicyDenied) {
		t.Fatalf("seed without AllowSeeds: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := c.CreateSession(server.CreateSessionRequest{Dataset: "people", Budget: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.CreateSession(server.CreateSessionRequest{Dataset: "people", Budget: 0.5}); !isAPIError(err, 403, server.CodePolicyDenied) {
		t.Fatalf("session limit: %v", err)
	}
	live, err := c.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != 2 {
		t.Fatalf("live sessions = %d", len(live))
	}
}

func TestDenialReportsReasonAndChargesNothing(t *testing.T) {
	c := newTestServer(t, server.Config{})
	sess, err := c.CreateSession(server.CreateSessionRequest{Dataset: "people", Budget: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := c.Query(sess.ID, hardQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Denied || ans.Reason == "" {
		t.Fatalf("want denial with reason, got %+v", ans)
	}
	if ans.Spent != 0 || ans.Remaining != 0.01 {
		t.Fatalf("denial charged budget: %+v", ans)
	}
	tr, err := c.Transcript(sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Entries) != 1 || !tr.Entries[0].Denied || tr.Entries[0].Epsilon != 0 {
		t.Fatalf("denied entry = %+v", tr.Entries)
	}
	if !tr.Valid {
		t.Fatalf("transcript invalid: %+v", tr)
	}
	checkDefinition61(t, tr)
}

// TestConcurrentSessionsBudgetIsolation is the acceptance test: many
// parallel sessions across two datasets each drive their own budget to
// exhaustion; every transcript must independently satisfy the Definition
// 6.1 invariant, and no session's spending can leak into another's.
func TestConcurrentSessionsBudgetIsolation(t *testing.T) {
	c := newTestServer(t, server.Config{AllowSeeds: true})

	type result struct {
		id       string
		answered int
		denied   int
		err      error
	}
	const perDataset = 3
	var wg sync.WaitGroup
	results := make([]result, 2*perDataset)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ds := "people"
			if i%2 == 1 {
				ds = "people2"
			}
			sess, err := c.CreateSession(server.CreateSessionRequest{
				Dataset: ds, Budget: 1.0, Seed: int64(i + 1),
			})
			if err != nil {
				results[i] = result{err: err}
				return
			}
			r := result{id: sess.ID}
			for q := 0; q < 50 && r.denied == 0; q++ {
				ans, err := c.Query(sess.ID, hardQuery)
				if err != nil {
					r.err = err
					break
				}
				if ans.Denied {
					r.denied++
				} else {
					r.answered++
				}
			}
			results[i] = r
		}(i)
	}
	wg.Wait()

	for i, r := range results {
		if r.err != nil {
			t.Fatalf("session %d: %v", i, r.err)
		}
		if r.answered == 0 {
			t.Errorf("session %d: no query answered before exhaustion", i)
		}
		if r.denied == 0 {
			t.Errorf("session %d: budget never exhausted (answered %d)", i, r.answered)
		}

		tr, err := c.Transcript(r.id)
		if err != nil {
			t.Fatalf("session %d transcript: %v", i, err)
		}
		if !tr.Valid {
			t.Errorf("session %d: server reports invalid transcript: %s", i, tr.Invalid)
		}
		// Independent re-check of Definition 6.1 from the wire data alone.
		checkDefinition61(t, tr)
		if tr.Budget != 1.0 {
			t.Errorf("session %d: budget %v leaked", i, tr.Budget)
		}
		if got := len(tr.Entries); got != r.answered+r.denied {
			t.Errorf("session %d: %d entries for %d interactions — cross-session leakage?", i, got, r.answered+r.denied)
		}
	}

	// Isolation also means each session spent from its own budget only:
	// every per-session spend is within [0, B], while the total across
	// sessions far exceeds any single B.
	var total float64
	for _, r := range results {
		tr, err := c.Transcript(r.id)
		if err != nil {
			t.Fatal(err)
		}
		total += tr.Spent
	}
	if total <= 1.0 {
		t.Errorf("total spend %v implies sessions shared one budget", total)
	}
}

// TestSharedEvaluationCacheAcrossSessions drives many concurrent sessions
// through the SAME workload over one dataset. The registry's per-dataset
// evaluation cache must collapse the work to a single transformation
// (observable via TransformCache.Len) while every session still gets its
// own independently noised answer — cached noise-free counts must never
// surface identically to two analysts.
func TestSharedEvaluationCacheAcrossSessions(t *testing.T) {
	reg := server.NewRegistry()
	table, err := dataset.ReadCSV(strings.NewReader(peopleCSV(500, 3)), peopleSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("people", table); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(reg, server.Config{}).Handler())
	t.Cleanup(ts.Close)
	c := client.New(ts.URL)

	const sessions = 8
	counts := make([][]float64, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess, err := c.CreateSession(server.CreateSessionRequest{Dataset: "people", Budget: 5})
			if err != nil {
				errs[i] = err
				return
			}
			ans, err := c.Query(sess.ID, easyQuery)
			if err != nil {
				errs[i] = err
				return
			}
			if ans.Denied {
				errs[i] = fmt.Errorf("query denied: %s", ans.Reason)
				return
			}
			counts[i] = ans.Counts
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}

	ds, ok := reg.Dataset("people")
	if !ok {
		t.Fatal("dataset vanished")
	}
	if got := ds.Transforms.Len(); got != 1 {
		t.Fatalf("shared cache holds %d workloads, want 1 (sessions did not share)", got)
	}

	// Per-session noise: with crypto-random session seeds the odds of two
	// sessions drawing identical Laplace noise are negligible; identical
	// counts across all sessions would mean the cached noise-free values
	// leaked through.
	distinct := false
	for i := 1; i < sessions && !distinct; i++ {
		for j := range counts[i] {
			if counts[i][j] != counts[0][j] {
				distinct = true
				break
			}
		}
	}
	if !distinct {
		t.Fatalf("all %d sessions returned identical counts %v — noise is not per-session", sessions, counts[0])
	}

	// The answers still agree with the data up to the requested accuracy:
	// ERROR 100 at confidence 0.95 over 500 rows. The bound is 3x the
	// requested error so the 0.05 noise tail across 20 independent draws
	// (10 sessions x 2 counts) stays a <0.1% flake, not a ~5% one.
	trueCounts := []float64{
		float64(table.Count(dataset.Range{Attr: "age", Lo: 0, Hi: 50})),
		float64(table.Count(dataset.Range{Attr: "age", Lo: 50, Hi: 100})),
	}
	for i := range counts {
		for j := range counts[i] {
			if diff := counts[i][j] - trueCounts[j]; diff > 300 || diff < -300 {
				t.Errorf("session %d count %d: noisy %v vs true %v implausibly far", i, j, counts[i][j], trueCounts[j])
			}
		}
	}
}

// checkDefinition61 re-verifies the transcript validity invariant
// (Definition 6.1) from the JSON wire form, independently of the server's
// own Valid flag: actual losses are nonnegative and sum to at most B,
// denied entries charge nothing, and every answered entry's reserved
// worst case fit the budget remaining at the time it was asked.
func checkDefinition61(t *testing.T, tr *server.TranscriptResponse) {
	t.Helper()
	var spent float64
	for _, e := range tr.Entries {
		if e.Epsilon < 0 {
			t.Fatalf("entry %d: negative epsilon %v", e.Index, e.Epsilon)
		}
		if e.Denied {
			if e.Epsilon != 0 {
				t.Fatalf("entry %d: denied but charged %v", e.Index, e.Epsilon)
			}
			continue
		}
		if e.EpsilonUpper+epsTol < e.Epsilon {
			t.Fatalf("entry %d: actual %v above reserved worst case %v", e.Index, e.Epsilon, e.EpsilonUpper)
		}
		if spent+e.EpsilonUpper > tr.Budget+epsTol {
			t.Fatalf("entry %d: worst case %v did not fit remaining %v", e.Index, e.EpsilonUpper, tr.Budget-spent)
		}
		spent += e.Epsilon
	}
	if spent > tr.Budget+epsTol {
		t.Fatalf("cumulative loss %v exceeds budget %v", spent, tr.Budget)
	}
	if diff := spent - tr.Spent; diff > epsTol || diff < -epsTol {
		t.Fatalf("recomputed spend %v != reported %v", spent, tr.Spent)
	}
}

func isAPIError(err error, status int, code string) bool {
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		return false
	}
	return apiErr.StatusCode == status && apiErr.Code == code
}
