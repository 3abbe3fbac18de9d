// Command recoverysmoke is the CI recovery smoke: it builds apex-server,
// starts it with a data dir, registers a dataset and runs a session to
// partial budget, kills the process with SIGKILL, restarts it on the same
// data dir, and asserts that the dataset, the session's remaining budget
// and the byte-identical transcript all survived. It then exercises the
// column-store recovery ladder: a restart with the segment deleted must
// fall back to re-parsing the CSV and rebuild the segment in place (the
// legacy cost, whose parse time it records), a catalog entry whose
// segment is in the retired v1 layout (the committed fixture
// internal/colstore/testdata/v1) must be served and rebuilt at v2, and a
// final restart with -cold-start and the source CSV deleted must serve
// answers purely from the segment — proving restart cost no longer scales
// with the CSV. It exits nonzero (with a reason) on any divergence. Run
// it from the repository root:
//
//	go run ./scripts/recoverysmoke
//
// It finishes in a few seconds, so it is cheap enough for every CI run.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"repro/internal/colstore"
	"repro/scripts/internal/smoke"
)

// v1Fixture is the committed v1 segment with its source CSV and schema;
// nothing in the tree writes that layout any more.
var v1Fixture = filepath.Join("internal", "colstore", "testdata", "v1")

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "recoverysmoke: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("recoverysmoke: OK — dataset, budget and transcript survived kill -9")
}

func run() error {
	work, err := os.MkdirTemp("", "recoverysmoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	bin, err := smoke.BuildServer(work)
	if err != nil {
		return err
	}
	dataDir := filepath.Join(work, "data")
	addr, err := smoke.FreeAddr()
	if err != nil {
		return err
	}
	base := "http://" + addr

	// ---- first life.
	srv, err := startServer(bin, addr, dataDir)
	if err != nil {
		return err
	}
	defer srv.Process.Kill()

	if _, err := post(base+"/v1/datasets", map[string]any{
		"name": "smoke", "schema": json.RawMessage(smoke.SchemaJSON), "csv": smoke.PeopleCSV(100),
	}, http.StatusCreated); err != nil {
		return fmt.Errorf("register dataset: %w", err)
	}
	sess, err := post(base+"/v1/sessions", map[string]any{"dataset": "smoke", "budget": 1.0}, http.StatusCreated)
	if err != nil {
		return fmt.Errorf("create session: %w", err)
	}
	id, _ := sess["id"].(string)
	if id == "" {
		return fmt.Errorf("session id missing: %v", sess)
	}
	if _, err := post(base+"/v1/sessions/"+id+"/query", map[string]any{"query": smoke.QueryText}, http.StatusOK); err != nil {
		return fmt.Errorf("query: %w", err)
	}
	before, err := smoke.Get(base + "/v1/sessions/" + id)
	if err != nil {
		return err
	}
	transcriptBefore, err := smoke.GetRaw(base + "/v1/sessions/" + id + "/transcript")
	if err != nil {
		return err
	}

	// ---- kill -9: no drain, no flush.
	if err := srv.Process.Kill(); err != nil {
		return err
	}
	srv.Wait()

	// ---- second life on the same data dir.
	srv2, err := startServer(bin, addr, dataDir)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	defer srv2.Process.Kill()

	if _, err := smoke.Get(base + "/v1/datasets/smoke"); err != nil {
		return fmt.Errorf("dataset lost across restart: %w", err)
	}
	after, err := smoke.Get(base + "/v1/sessions/" + id)
	if err != nil {
		return fmt.Errorf("session lost across restart: %w", err)
	}
	for _, k := range []string{"budget", "spent", "remaining", "queries", "mode", "created"} {
		if fmt.Sprint(before[k]) != fmt.Sprint(after[k]) {
			return fmt.Errorf("session %s changed across restart: %v -> %v", k, before[k], after[k])
		}
	}
	transcriptAfter, err := smoke.GetRaw(base + "/v1/sessions/" + id + "/transcript")
	if err != nil {
		return err
	}
	if !bytes.Equal(transcriptBefore, transcriptAfter) {
		return fmt.Errorf("transcript changed across restart:\n before: %s\n after:  %s", transcriptBefore, transcriptAfter)
	}
	var tr map[string]any
	if err := json.Unmarshal(transcriptAfter, &tr); err != nil {
		return err
	}
	if valid, _ := tr["valid"].(bool); !valid {
		return fmt.Errorf("recovered transcript failed validation: %s", transcriptAfter)
	}
	// The recovered session keeps serving.
	if _, err := post(base+"/v1/sessions/"+id+"/query", map[string]any{"query": smoke.QueryText}, http.StatusOK); err != nil {
		return fmt.Errorf("post-restart query: %w", err)
	}

	// ---- graceful shutdown path: SIGTERM must drain and exit cleanly.
	if err := smoke.Stop(srv2); err != nil {
		return err
	}

	// ---- column-store recovery ladder.
	catalogDir := filepath.Join(dataDir, "catalog", "smoke")

	// (a) Legacy path: delete the segment; the restart must fall back to
	// re-parsing data.csv and rebuild the segment in place. The logged
	// recovery line records the CSV parse time.
	if err := os.Remove(filepath.Join(catalogDir, "table.seg")); err != nil {
		return fmt.Errorf("remove segment: %w", err)
	}
	srv3, logs3, err := smoke.Start(bin, addr, "-data-dir", dataDir)
	if err != nil {
		return fmt.Errorf("restart without segment: %w", err)
	}
	defer srv3.Process.Kill()
	if _, err := smoke.Get(base + "/v1/datasets/smoke"); err != nil {
		return fmt.Errorf("dataset lost on CSV-fallback restart: %w", err)
	}
	csvLine := recoveryLine(logs3(), "smoke")
	if !strings.Contains(csvLine, "recovered from csv") || !strings.Contains(csvLine, "segment rebuilt") {
		return fmt.Errorf("CSV fallback did not rebuild the segment; recovery log: %q", csvLine)
	}
	fmt.Printf("recoverysmoke: CSV re-parse recovery: %s\n", csvLine)
	if err := smoke.Stop(srv3); err != nil {
		return err
	}
	if info, err := colstore.Inspect(filepath.Join(catalogDir, "table.seg")); err != nil || info.Version != colstore.CurrentVersion {
		return fmt.Errorf("segment not rebuilt on disk at v%d: %+v, %v", colstore.CurrentVersion, info, err)
	}

	// (a2) Read-then-upgrade: register the v1 fixture's CSV as a second
	// dataset, stop, and put the fixture's v1 segment in its place — a
	// catalog entry as a pre-v2 server left it. The restart must serve it
	// and rebuild it at v2 from the catalog's CSV, with no quarantine.
	fixCSV, err := os.ReadFile(filepath.Join(v1Fixture, "table.csv"))
	if err != nil {
		return err
	}
	fixSchema, err := os.ReadFile(filepath.Join(v1Fixture, "schema.json"))
	if err != nil {
		return err
	}
	fixSeg, err := os.ReadFile(filepath.Join(v1Fixture, "table.seg"))
	if err != nil {
		return err
	}
	srv3b, err := startServer(bin, addr, dataDir)
	if err != nil {
		return fmt.Errorf("restart before registering the legacy dataset: %w", err)
	}
	defer srv3b.Process.Kill()
	if _, err := post(base+"/v1/datasets", map[string]any{
		"name": "legacy", "schema": json.RawMessage(fixSchema), "csv": string(fixCSV),
	}, http.StatusCreated); err != nil {
		return fmt.Errorf("register legacy dataset: %w", err)
	}
	if err := smoke.Stop(srv3b); err != nil {
		return err
	}
	legacySeg := filepath.Join(dataDir, "catalog", "legacy", "table.seg")
	if err := os.WriteFile(legacySeg, fixSeg, 0o644); err != nil {
		return err
	}
	infoV1, err := colstore.Inspect(legacySeg)
	if err != nil || infoV1.Version != 1 {
		return fmt.Errorf("fixture segment is not a valid v1 file: %+v, %v", infoV1, err)
	}
	srv3c, logs3c, err := smoke.Start(bin, addr, "-data-dir", dataDir)
	if err != nil {
		return fmt.Errorf("restart on v1 segment: %w", err)
	}
	defer srv3c.Process.Kill()
	upLine := recoveryLine(logs3c(), "legacy")
	if !strings.Contains(upLine, "recovered from segment (v1)") || !strings.Contains(upLine, "segment rebuilt") {
		return fmt.Errorf("v1 segment was not upgraded; recovery log: %q", upLine)
	}
	sessV1, err := post(base+"/v1/sessions", map[string]any{"dataset": "legacy", "budget": 1.0}, http.StatusCreated)
	if err != nil {
		return fmt.Errorf("session on upgraded dataset: %w", err)
	}
	idV1, _ := sessV1["id"].(string)
	if _, err := post(base+"/v1/sessions/"+idV1+"/query", map[string]any{"query": smoke.QueryText}, http.StatusOK); err != nil {
		return fmt.Errorf("query over upgraded dataset: %w", err)
	}
	if err := smoke.Stop(srv3c); err != nil {
		return err
	}
	infoUp, err := colstore.Inspect(legacySeg)
	if err != nil {
		return fmt.Errorf("inspect upgraded segment: %w", err)
	}
	if infoUp.Version != colstore.CurrentVersion {
		return fmt.Errorf("upgrade left the segment at v%d, want v%d", infoUp.Version, colstore.CurrentVersion)
	}
	if infoUp.DataBytes >= infoV1.DataBytes {
		return fmt.Errorf("upgraded payload (%d B) not smaller than v1 (%d B)", infoUp.DataBytes, infoV1.DataBytes)
	}
	if _, err := os.Stat(legacySeg + ".quarantined"); err == nil {
		return fmt.Errorf("healthy v1 segment was quarantined")
	}
	fmt.Printf("recoverysmoke: v1 segment served and rebuilt in place at v%d (%d B -> %d B payload)\n",
		infoUp.Version, infoV1.DataBytes, infoUp.DataBytes)

	// (b) Segment-only path: delete the source CSV and restart with
	// -cold-start. Recovery must come from the segment alone and the
	// dataset must keep answering queries.
	if err := os.Remove(filepath.Join(catalogDir, "data.csv")); err != nil {
		return fmt.Errorf("remove csv: %w", err)
	}
	srv4, logs4, err := smoke.Start(bin, addr, "-data-dir", dataDir, "-cold-start")
	if err != nil {
		return fmt.Errorf("cold-start restart: %w", err)
	}
	defer srv4.Process.Kill()
	segLine := recoveryLine(logs4(), "smoke")
	if !strings.Contains(segLine, "recovered from segment") {
		return fmt.Errorf("cold start did not recover from segment; recovery log: %q", segLine)
	}
	fmt.Printf("recoverysmoke: segment recovery (no CSV on disk): %s\n", segLine)
	ds, err := smoke.Get(base + "/v1/datasets/smoke")
	if err != nil {
		return fmt.Errorf("dataset lost on cold start: %w", err)
	}
	if storage, _ := ds["storage"].(string); storage == "" {
		return fmt.Errorf("dataset info carries no storage mode: %v", ds)
	}
	sess2, err := post(base+"/v1/sessions", map[string]any{"dataset": "smoke", "budget": 1.0}, http.StatusCreated)
	if err != nil {
		return fmt.Errorf("cold-start session: %w", err)
	}
	id2, _ := sess2["id"].(string)
	if _, err := post(base+"/v1/sessions/"+id2+"/query", map[string]any{"query": smoke.QueryText}, http.StatusOK); err != nil {
		return fmt.Errorf("cold-start query (answers must come from the segment): %w", err)
	}
	return smoke.Stop(srv4)
}

// recoveryLine extracts the named dataset's recovery log line (source +
// timing).
func recoveryLine(logs, name string) string {
	for _, line := range strings.Split(logs, "\n") {
		if strings.Contains(line, fmt.Sprintf("dataset %q recovered from", name)) {
			return strings.TrimSpace(line)
		}
	}
	return ""
}

func startServer(bin, addr, dataDir string) (*exec.Cmd, error) {
	cmd, _, err := smoke.Start(bin, addr, "-data-dir", dataDir)
	return cmd, err
}

func post(url string, body map[string]any, wantStatus int) (map[string]any, error) {
	return smoke.Post(url, nil, body, wantStatus)
}
