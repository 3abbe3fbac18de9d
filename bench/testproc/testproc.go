// Package testproc is the process harness behind apex-load: build a
// command from source, pick a free port, start it with its log captured,
// poll it ready, sample its CPU/RSS/IO from /proc, and stop it gently
// (SIGTERM) or like a crash (SIGKILL). It knows nothing about APEx, so the
// three scripts/*smoke programs can fold onto it later.
package testproc

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Build compiles pkg (a package path relative to dir) into the binary out
// and returns how long `go build` took.
func Build(dir, pkg, out string) (time.Duration, error) {
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("testproc: go build %s: %w\n%s", pkg, err, stderr.String())
	}
	return time.Since(start), nil
}

// FreeAddr returns a loopback host:port that was free a moment ago.
func FreeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("testproc: %w", err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// Proc is one started child process with its combined stdout+stderr
// captured in memory.
type Proc struct {
	cmd     *exec.Cmd
	logs    lockedBuffer
	started time.Time
	exited  chan struct{} // closed once Wait has returned
	waitErr error
}

// Start launches bin with args. The caller must end it with Terminate or
// Kill; both wait for the process to exit.
func Start(bin string, args ...string) (*Proc, error) {
	p := &Proc{cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	p.cmd.Stdout = &p.logs
	p.cmd.Stderr = &p.logs
	p.started = time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("testproc: start %s: %w", bin, err)
	}
	go func() {
		p.waitErr = p.cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

// PID returns the child's process ID.
func (p *Proc) PID() int { return p.cmd.Process.Pid }

// Started returns the moment just before the child was exec'd.
func (p *Proc) Started() time.Time { return p.started }

// Logs returns everything the child has written so far.
func (p *Proc) Logs() string { return p.logs.String() }

// readyPoll is the readiness polling interval: short enough that the
// measured time-to-ready is not quantized by the harness.
const readyPoll = 5 * time.Millisecond

// WaitReady polls url until it answers 200 and returns the time since the
// process was started. It fails early if the process exits.
func (p *Proc) WaitReady(url string, timeout time.Duration) (time.Duration, error) {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for {
		if resp, err := hc.Get(url); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(p.started), nil
			}
		}
		select {
		case <-p.exited:
			return 0, fmt.Errorf("testproc: process exited before %s answered: %v\n%s", url, p.waitErr, p.Logs())
		case <-time.After(readyPoll):
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("testproc: %s not ready after %s\n%s", url, timeout, p.Logs())
		}
	}
}

// Usage is one /proc sample of a live process.
type Usage struct {
	CPU        time.Duration // utime+stime
	RSSBytes   int64         // VmRSS
	PeakBytes  int64         // VmHWM, the high-water mark of RSS
	ReadBytes  int64         // io: bytes fetched from storage
	WriteBytes int64         // io: bytes sent to storage
}

// userHz is the kernel's USER_HZ, the unit of /proc/<pid>/stat times. It
// is 100 on every Linux ABI Go supports.
const userHz = 100

// Sample reads the child's resource usage. It fails once the process has
// been reaped, so sample before stopping it.
func (p *Proc) Sample() (Usage, error) {
	var u Usage
	dir := "/proc/" + strconv.Itoa(p.PID())
	stat, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return u, fmt.Errorf("testproc: %w", err)
	}
	// The command name (field 2) is parenthesized and may contain spaces;
	// the numeric fields start after the last ')'. utime and stime are
	// fields 14 and 15, i.e. indexes 11 and 12 after the name.
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	fields := strings.Fields(string(rest))
	if len(fields) < 13 {
		return u, fmt.Errorf("testproc: short %s/stat", dir)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return u, fmt.Errorf("testproc: bad cpu times in %s/stat", dir)
	}
	u.CPU = time.Duration(utime+stime) * time.Second / userHz

	status, err := os.ReadFile(dir + "/status")
	if err != nil {
		return u, fmt.Errorf("testproc: %w", err)
	}
	u.RSSBytes = kvKiB(status, "VmRSS:")
	u.PeakBytes = kvKiB(status, "VmHWM:")
	// io needs ptrace-level access; a sandbox may deny it, and the
	// counters are informational, so absence reads as zero.
	if io, err := os.ReadFile(dir + "/io"); err == nil {
		u.ReadBytes = kvInt(io, "read_bytes:")
		u.WriteBytes = kvInt(io, "write_bytes:")
	}
	return u, nil
}

func kvInt(data []byte, key string) int64 {
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, key) {
			f := strings.Fields(line[len(key):])
			if len(f) > 0 {
				n, _ := strconv.ParseInt(f[0], 10, 64)
				return n
			}
		}
	}
	return 0
}

func kvKiB(data []byte, key string) int64 { return kvInt(data, key) << 10 }

// Terminate sends SIGTERM and waits for the process to exit, returning how
// long the graceful shutdown took. A process still alive after timeout is
// killed and reported as an error.
func (p *Proc) Terminate(timeout time.Duration) (time.Duration, error) {
	start := time.Now()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, fmt.Errorf("testproc: SIGTERM: %w", err)
	}
	select {
	case <-p.exited:
		if p.waitErr != nil {
			return 0, fmt.Errorf("testproc: exit after SIGTERM: %w\n%s", p.waitErr, p.Logs())
		}
		return time.Since(start), nil
	case <-time.After(timeout):
		p.Kill()
		return 0, fmt.Errorf("testproc: still running %s after SIGTERM; killed\n%s", timeout, p.Logs())
	}
}

// Kill sends SIGKILL — the crash the durability check simulates — and
// waits until the process has been reaped. Killing a process that already
// exited is a no-op.
func (p *Proc) Kill() {
	_ = p.cmd.Process.Kill() // fails only when the process is already gone
	<-p.exited
}

// lockedBuffer lets the child's writer and Logs readers share a buffer.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}
