// Command scrubsmoke is the CI smoke for the continuous verification
// plane: it builds apex-server, starts it durable with a fast background
// scrub cycle, serves real traffic, then corrupts the sealed column-store
// segment on disk underneath the live process and asserts the whole
// detect→quarantine→heal→recover loop end to end:
//
//   - the scrubber detects the bit flip within one cycle, visible as a
//     nonzero apex_invariant_violations_total{kind="segment"} on /metrics
//     and a structured incident line (with an incident ID) in the logs;
//   - the corrupt segment is quarantined aside (table.seg.quarantined)
//     and rebuilt from the source CSV — the rebuilt file passes a full
//     checksum verification;
//   - /v1/readyz reports degraded while the last cycle is dirty and
//     returns to ok once a clean cycle completes;
//   - queries keep answering throughout, and /v1/healthz never wavers;
//   - SIGTERM still exits cleanly.
//
// It exits nonzero (with a reason) on any divergence. Run it from the
// repository root:
//
//	go run ./scripts/scrubsmoke
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/colstore"
	"repro/scripts/internal/smoke"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "scrubsmoke: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("scrubsmoke: OK — live corruption detected, quarantined, healed from CSV, readiness recovered")
}

func run() error {
	work, err := os.MkdirTemp("", "scrubsmoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	bin, err := smoke.BuildServer(work)
	if err != nil {
		return err
	}
	addr, err := smoke.FreeAddr()
	if err != nil {
		return err
	}
	base := "http://" + addr
	dataDir := filepath.Join(work, "data")

	srv, logs, err := smoke.Start(bin, addr,
		"-data-dir", dataDir,
		"-scrub-interval", "200ms",
		"-scrub-rate", "64")
	if err != nil {
		return err
	}
	defer srv.Process.Kill()

	// Register a dataset and serve a real query so the scrubber has a
	// segment, a translation sidecar path and a live session WAL to watch.
	if _, err := smoke.Post(base+"/v1/datasets", nil, map[string]any{
		"name": "smoke", "schema": json.RawMessage(smoke.SchemaJSON), "csv": smoke.PeopleCSV(500),
	}, http.StatusCreated); err != nil {
		return fmt.Errorf("register dataset: %w", err)
	}
	sess, err := smoke.Post(base+"/v1/sessions", nil, map[string]any{"dataset": "smoke", "budget": 2.0}, http.StatusCreated)
	if err != nil {
		return fmt.Errorf("create session: %w", err)
	}
	id, _ := sess["id"].(string)
	if id == "" {
		return fmt.Errorf("session id missing: %v", sess)
	}
	if _, err := smoke.Post(base+"/v1/sessions/"+id+"/query", nil, map[string]any{"query": smoke.QueryText}, http.StatusOK); err != nil {
		return fmt.Errorf("query before corruption: %w", err)
	}

	// Readiness is ok before the fault (recovery done, clean scrubs).
	if err := awaitReadyz(base, "ok", 5*time.Second); err != nil {
		return fmt.Errorf("pre-fault readiness: %w", err)
	}

	// ---- inject the fault: flip one byte deep inside the sealed segment,
	// underneath the live server.
	segPath, err := findFile(dataDir, "table.seg")
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(segPath)
	if err != nil {
		return err
	}
	raw[len(raw)-10] ^= 0xFF
	if err := os.WriteFile(segPath, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("scrubsmoke: flipped a byte in %s under the live server\n", segPath)

	// The scrubber must detect it within a cycle or two: the violation
	// counter goes nonzero and the incident line lands in the logs.
	deadline := time.Now().Add(10 * time.Second)
	for {
		metrics, err := smoke.GetRaw(base + "/metrics")
		if err != nil {
			return err
		}
		if smoke.HasNonzeroSample(string(metrics), `apex_invariant_violations_total{kind="segment"}`) {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("violation counter never went nonzero; /metrics scrub families:\n%s", grepLines(string(metrics), "apex_scrub"))
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !strings.Contains(logs(), `"integrity violation"`) {
		return fmt.Errorf("no structured incident line in server logs:\n%s", logs())
	}
	fmt.Println("scrubsmoke: violation detected and incident logged")

	// Quarantine + CSV-fallback rebuild: the corrupt file is aside and the
	// segment at the canonical path passes a full checksum verification.
	// The violation counter increments before the heal completes, so poll:
	// there is a window where the corrupt file is renamed aside but the
	// rebuilt segment has not landed yet.
	deadline = time.Now().Add(10 * time.Second)
	for {
		_, statErr := os.Stat(segPath + ".quarantined")
		var verifyErr error
		if statErr == nil {
			_, verifyErr = colstore.Verify(segPath)
			if verifyErr == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			if statErr != nil {
				return fmt.Errorf("corrupt segment not quarantined: %v", statErr)
			}
			return fmt.Errorf("rebuilt segment fails verification: %v", verifyErr)
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Println("scrubsmoke: corrupt segment quarantined, rebuilt from CSV, verifies clean")

	// Readiness returns to ok once a clean cycle lands; service never
	// stopped in between.
	if err := awaitReadyz(base, "ok", 10*time.Second); err != nil {
		return fmt.Errorf("post-heal readiness: %w", err)
	}
	if _, err := smoke.Post(base+"/v1/sessions/"+id+"/query", nil, map[string]any{"query": smoke.QueryText}, http.StatusOK); err != nil {
		return fmt.Errorf("query after heal: %w", err)
	}
	hz, err := smoke.Get(base + "/v1/healthz")
	if err != nil {
		return err
	}
	if hz["status"] != "ok" {
		return fmt.Errorf("healthz after heal: %v", hz)
	}
	fmt.Println("scrubsmoke: readiness recovered, queries served throughout")

	return smoke.Stop(srv)
}

// awaitReadyz polls /v1/readyz until it answers 200 with the wanted
// status, dumping the last degraded report on timeout.
func awaitReadyz(base, want string, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	var last []byte
	for {
		resp, err := http.Get(base + "/v1/readyz")
		if err != nil {
			return err
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		last = data
		var body map[string]any
		if json.Unmarshal(data, &body) == nil &&
			resp.StatusCode == http.StatusOK && body["status"] == want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("readyz never reached %q; last report: %s", want, last)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// findFile walks root for the first file with the given base name.
func findFile(root, name string) (string, error) {
	var found string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && d.Name() == name {
			found = path
			return fs.SkipAll
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	if found == "" {
		return "", fmt.Errorf("no %s under %s", name, root)
	}
	return found, nil
}

// grepLines returns the lines of s containing substr (for error context).
func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
