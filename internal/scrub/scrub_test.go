package scrub_test

import (
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/durable"
	"repro/internal/scrub"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/store"
	"repro/internal/translate"
)

// startServer brings up one process life over dir: catalog recovery (which
// is where the translation sidecar is loaded), session recovery, and a
// scrubber whose cycles the test drives by hand.
func startServer(t *testing.T, dir string) (*server.Server, *client.Client, *server.Registry, *store.Store, []server.DatasetRecovery) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	reg.AttachStore(st)
	recovered, skipped, err := reg.RecoverDatasets()
	if err != nil || len(skipped) != 0 {
		t.Fatalf("catalog recovery: err=%v skipped=%v", err, skipped)
	}
	srv := server.New(reg, server.Config{Store: st, Scrub: server.ScrubConfig{IncidentLog: io.Discard}})
	if _, _, err := srv.RecoverSessions(st); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown()
	})
	return srv, client.New(ts.URL), reg, st, recovered
}

func sidecarViolations(rep scrub.CycleReport) int {
	n := 0
	for _, v := range rep.Violations {
		if v.Kind == scrub.KindSidecar {
			n++
		}
	}
	return n
}

// TestStaleV1SidecarIsNotAnIncident is the upgrade path for data dirs
// written before the translation plane was keyed by matrix: a well-formed
// v1 translate.tc is stale, not corrupt. Recovery loads nothing from it
// and leaves it alone, the scrubber passes it, readiness stays ok, and the
// first translation's persist replaces it with a v2 file — after which a
// bit flip is, as ever, a sidecar violation that quarantines and rebuilds.
func TestStaleV1SidecarIsNotAnIncident(t *testing.T) {
	dir := t.TempDir()

	// A data dir from the old build: the dataset's catalog entry plus a
	// sidecar in the text-keyed format (the fixture the last v1 build wrote).
	schema, err := dataset.NewSchema(dataset.Attribute{Name: "age", Kind: dataset.Continuous, Min: 0, Max: 100})
	if err != nil {
		t.Fatal(err)
	}
	var csv strings.Builder
	csv.WriteString("age\n")
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&csv, "%d\n", i*7%100)
	}
	st0, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg0 := server.NewRegistry()
	reg0.AttachStore(st0)
	if _, err := reg0.AddCSV("people", schema, []byte(csv.String())); err != nil {
		t.Fatal(err)
	}
	v1, err := os.ReadFile(filepath.Join("..", "translate", "testdata", "sidecar_v1.tc"))
	if err != nil {
		t.Fatal(err)
	}
	sidecar := filepath.Join(st0.DatasetDir("people"), store.TranslateSidecarFile)
	if err := os.WriteFile(sidecar, v1, 0o644); err != nil {
		t.Fatal(err)
	}

	// The new build starts over it.
	srv, c, reg, _, recovered := startServer(t, dir)
	if len(recovered) != 1 || recovered[0].TranslatePlans != 0 {
		t.Fatalf("recovery over a v1 sidecar: %+v, want 1 dataset with 0 plans loaded", recovered)
	}
	if st := reg.TranslateStats()[0].Stats; st.Loads != 0 || st.Rebuilds != 0 {
		t.Fatalf("translate stats after recovery: %+v, want no loads and no rebuilds", st)
	}
	if _, err := os.Stat(sidecar + durable.QuarantineSuffix); !os.IsNotExist(err) {
		t.Fatalf("stale sidecar was quarantined (stat err %v)", err)
	}
	if got, err := os.ReadFile(sidecar); err != nil || string(got) != string(v1) {
		t.Fatalf("stale sidecar was touched before any persist (err %v)", err)
	}

	// One scrub cycle: the sidecar is checked and passes.
	rep := srv.Scrubber().RunCycle()
	if !rep.Clean() {
		t.Fatalf("scrub over a v1 sidecar is dirty: %+v", rep.Violations)
	}
	if !strings.Contains(srv.Metrics().Render(), `apex_invariant_violations_total{kind="sidecar"} 0`) {
		t.Fatal("sidecar violation counter is not 0 after scrubbing a v1 sidecar")
	}
	if !strings.Contains(srv.Metrics().Render(), `apex_scrub_checks_total{kind="sidecar"} 1`) {
		t.Fatal("the scrub cycle never looked at the sidecar")
	}
	if rz, err := c.Readyz(); err != nil || rz.Status != server.HealthOK {
		t.Fatalf("readyz over a v1 sidecar: %+v %v", rz, err)
	}

	// The first translation persists, replacing the file with a v2 one.
	sess, err := c.CreateSession(server.CreateSessionRequest{Dataset: "people", Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	const q = "BIN D ON COUNT(*) WHERE W = { age BETWEEN 10 AND 40, age BETWEEN 40 AND 70 } ERROR 100 CONFIDENCE 0.95;"
	if ans, err := c.Query(sess.ID, q); err != nil || ans.Denied {
		t.Fatalf("query: err=%v ans=%+v", err, ans)
	}
	plans, corrupt, err := translate.VerifySidecar(sidecar)
	if err != nil || corrupt || plans < 1 {
		t.Fatalf("sidecar after the first persist: plans=%d corrupt=%v err=%v, want a clean v2 file", plans, corrupt, err)
	}
	if rep := srv.Scrubber().RunCycle(); !rep.Clean() {
		t.Fatalf("scrub over the upgraded sidecar is dirty: %+v", rep.Violations)
	}

	// Staleness is about the version, not a licence to ignore damage: a
	// flipped bit in the v2 file is a violation, quarantined and rebuilt.
	data, err := os.ReadFile(sidecar)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-9] ^= 0x01
	if err := os.WriteFile(sidecar, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if rep := srv.Scrubber().RunCycle(); sidecarViolations(rep) != 1 {
		t.Fatalf("bit-flipped v2 sidecar: %+v, want exactly one sidecar violation", rep.Violations)
	}
	if _, err := os.Stat(sidecar + durable.QuarantineSuffix); err != nil {
		t.Fatalf("corrupt v2 sidecar not quarantined: %v", err)
	}
	if st := reg.TranslateStats()[0].Stats; st.Rebuilds != 1 {
		t.Fatalf("rebuilds after the bit flip = %d, want 1", st.Rebuilds)
	}
	if n, corrupt, err := translate.VerifySidecar(sidecar); err != nil || corrupt || n != plans {
		t.Fatalf("rebuilt sidecar: plans=%d corrupt=%v err=%v, want %d clean plans", n, corrupt, err, plans)
	}
	if rep := srv.Scrubber().RunCycle(); !rep.Clean() {
		t.Fatalf("scrub after the heal is still dirty: %+v", rep.Violations)
	}
}
