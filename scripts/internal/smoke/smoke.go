// Package smoke is the process harness the CI smoke programs
// (scripts/obssmoke, scripts/recoverysmoke, scripts/scrubsmoke) share:
// build apex-server, start it on a free port with its log captured, talk
// JSON to it, and stop it cleanly. Everything returns errors instead of
// exiting, so each smoke reports its own failure line.
package smoke

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The dataset and query every smoke registers and asks.
const (
	SchemaJSON = `{"attributes":[{"name":"age","kind":"continuous","min":0,"max":100},{"name":"state","kind":"categorical","values":["CA","NY","TX"]}]}`
	QueryText  = "BIN D ON COUNT(*) WHERE W = { age BETWEEN 0 AND 50, age BETWEEN 50 AND 100 } ERROR 50 CONFIDENCE 0.95;"
)

// PeopleCSV renders n deterministic rows over SchemaJSON.
func PeopleCSV(n int) string {
	var csv strings.Builder
	csv.WriteString("age,state\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&csv, "%d,%s\n", (i*37)%100, []string{"CA", "NY", "TX"}[i%3])
	}
	return csv.String()
}

// BuildServer compiles cmd/apex-server into dir (run from the repository
// root) and returns the binary's path.
func BuildServer(dir string) (string, error) {
	bin := filepath.Join(dir, "apex-server")
	build := exec.Command("go", "build", "-o", bin, "./cmd/apex-server")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return "", fmt.Errorf("build apex-server: %w", err)
	}
	return bin, nil
}

// FreeAddr reserves an ephemeral port and releases it for the server.
func FreeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// Start launches the server on addr with the extra flags, waits for
// /healthz, and returns a snapshot function over its combined log output
// (also teed to stdout).
func Start(bin, addr string, extra ...string) (*exec.Cmd, func() string, error) {
	cmd := exec.Command(bin, append([]string{"-listen", addr}, extra...)...)
	logs := &lockedBuffer{}
	tee := io.MultiWriter(os.Stdout, logs)
	cmd.Stdout = tee
	cmd.Stderr = tee
	if err := cmd.Start(); err != nil {
		return nil, nil, err
	}
	for i := 0; i < 100; i++ {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd, logs.String, nil
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	cmd.Process.Kill()
	return nil, nil, fmt.Errorf("server at %s never became healthy", addr)
}

// Stop SIGTERMs the server and waits for a clean exit.
func Stop(cmd *exec.Cmd) error {
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("SIGTERM exit: %w", err)
		}
	case <-time.After(10 * time.Second):
		return fmt.Errorf("server did not exit within 10s of SIGTERM")
	}
	return nil
}

// lockedBuffer is a mutex-guarded byte buffer (the server writes logs
// from its own process pipe goroutine while the smoke reads snapshots).
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// Post sends body as JSON (with optional extra headers) and decodes the
// JSON answer; any status but wantStatus is an error carrying the body.
func Post(url string, hdr http.Header, body map[string]any, wantStatus int) (map[string]any, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != wantStatus {
		return nil, fmt.Errorf("POST %s: HTTP %d: %s", url, resp.StatusCode, data)
	}
	var out map[string]any
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("POST %s: %w", url, err)
	}
	return out, nil
}

// Get fetches url and decodes its JSON object.
func Get(url string) (map[string]any, error) {
	data, err := GetRaw(url)
	if err != nil {
		return nil, err
	}
	var out map[string]any
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	return out, nil
}

// GetRaw fetches url and returns the body of a 200 answer.
func GetRaw(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, data)
	}
	return data, nil
}

// HasNonzeroSample reports whether the /metrics payload has a sample
// line for the exact series prefix with a value other than 0.
func HasNonzeroSample(metrics, series string) bool {
	for _, line := range strings.Split(metrics, "\n") {
		if !strings.HasPrefix(line, series) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[1] != "0" {
			return true
		}
	}
	return false
}
