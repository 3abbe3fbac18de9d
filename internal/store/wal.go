package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/durable"
)

// walMagic opens every log file so recovery can tell a WAL from stray
// files; the trailing digit versions the frame format.
const walMagic = "APEXWAL1"

// maxFrameBytes bounds one frame payload (16 MiB). Appends above it are
// rejected, and a read length above it is treated as a corrupt tail —
// without the bound a few flipped bits in a length field could make
// recovery attempt a multi-gigabyte allocation.
const maxFrameBytes = 16 << 20

// ErrWALClosed is returned by appends after Close.
var ErrWALClosed = errors.New("store: WAL is closed")

// WAL is an append-only, CRC-framed log with group-commit durability:
// Append returns only after the frame is fsynced, but concurrent appends
// share fsyncs — whichever appender reaches the sync path first flushes
// everything written so far and the rest observe their frame already
// durable. Under load this batches many commits per disk flush without
// ever acknowledging an unflushed write.
type WAL struct {
	path string

	mu       sync.Mutex // serializes writes and guards all fields below
	f        *os.File
	size     int64
	offsets  []int64 // file offset of every frame written; frame i ends where i+1 starts (or at size)
	writeSeq int64   // frames written to the OS
	synced   int64   // frames known durable
	err      error   // sticky failure; the WAL refuses further work
	closed   bool

	syncMu sync.Mutex // serializes fsyncs; the group-commit queue
}

// OpenWAL opens or creates the log at path and recovers its contents: it
// returns every intact frame payload in order and truncates any corrupt
// or torn tail (short frame, bad CRC, absurd length) so the log ends at
// its last valid frame before new appends go in. truncated reports how
// many trailing bytes were dropped.
func OpenWAL(path string) (w *WAL, frames [][]byte, truncated int64, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("store: open WAL: %w", err)
	}
	fail := func(err error) (*WAL, [][]byte, int64, error) {
		f.Close()
		return nil, nil, 0, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return fail(fmt.Errorf("store: read WAL: %w", err))
	}
	if err := checkWALMagic(path, data); err != nil {
		return fail(err)
	}
	w = &WAL{path: path, f: f}
	if len(data) < len(walMagic) {
		// A new file, or one that died being born (crash before the magic
		// was durable): the same empty log either way. Finish the magic.
		if _, err := f.Write([]byte(walMagic[len(data):])); err != nil {
			return fail(fmt.Errorf("store: init WAL: %w", err))
		}
		if err := f.Sync(); err != nil {
			return fail(fmt.Errorf("store: init WAL: %w", err))
		}
		w.size = int64(len(walMagic))
		return w, nil, 0, nil
	}

	// Open's policy: whatever follows the valid prefix, torn or corrupt,
	// is cut off and the cut made durable before anything is appended.
	frames, valid, _, _ := durable.Scan(data, len(walMagic), maxFrameBytes)
	truncated = int64(len(data) - valid)
	if truncated > 0 {
		if err := f.Truncate(int64(valid)); err != nil {
			return fail(fmt.Errorf("store: truncate corrupt WAL tail: %w", err))
		}
		if err := f.Sync(); err != nil {
			return fail(fmt.Errorf("store: truncate corrupt WAL tail: %w", err))
		}
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		return fail(fmt.Errorf("store: seek WAL end: %w", err))
	}
	w.size = int64(valid)
	w.offsets = make([]int64, len(frames))
	off := int64(len(walMagic))
	for i, frame := range frames {
		w.offsets[i] = off
		off += durable.FrameHeader + int64(len(frame))
	}
	w.writeSeq = int64(len(frames))
	w.synced = int64(len(frames))
	return w, frames, truncated, nil
}

// checkWALMagic is the one magic check: data starts with walMagic or, if
// shorter, is a prefix of it (a log that died being born: empty, torn tail).
func checkWALMagic(path string, data []byte) error {
	n := min(len(data), len(walMagic))
	if string(data[:n]) != walMagic[:n] {
		return fmt.Errorf("store: %s is not a WAL (bad magic)", path)
	}
	return nil
}

// ReadWALFrames verifies the log at path without opening it for writes
// and without repairing anything — the background scrubber's WAL check.
// It returns every intact frame payload in order, plus tornTail: the
// number of trailing bytes that form an incomplete frame (a write that
// was in flight when we read, or was cut off by a crash).
//
// The distinction matters: on a live log a torn tail is the expected
// shape of a concurrent append (writes land as a byte prefix, so the
// reader sees magic + whole frames + possibly a partial last frame) and
// must be tolerated, while on a closed log it means the final commit
// never became durable. A CRC mismatch on a fully-present frame, a bad
// magic, or an absurd length field is corruption either way and comes
// back as err, naming the frame index and file offset.
func ReadWALFrames(path string) (frames [][]byte, tornTail int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("store: read WAL: %w", err)
	}
	if err := checkWALMagic(path, data); err != nil {
		return nil, 0, err
	}
	if len(data) < len(walMagic) {
		return nil, int64(len(data)), nil
	}
	frames, valid, _, err := durable.Scan(data, len(walMagic), maxFrameBytes)
	if err != nil {
		return frames, 0, fmt.Errorf("store: %s: %w", path, err)
	}
	return frames, int64(len(data) - valid), nil
}

// ReadFrames reads the payloads of frames [from, to) back from the log's
// own file with one positional read of exactly their bytes, so it never
// sees an append in flight behind them and never touches a frame before
// from. It holds no lock while it reads: appends proceed. Anything but
// to-from intact frames in that range — the file was truncated or
// damaged under the live log, or an append failed and the frame was never
// written — is an error.
func (w *WAL) ReadFrames(from, to int) ([][]byte, error) {
	w.mu.Lock()
	n, f := len(w.offsets), w.f
	if from < 0 || from > to || to > n {
		w.mu.Unlock()
		return nil, fmt.Errorf("store: %s: frames [%d, %d) requested, %d written", w.path, from, to, n)
	}
	bound := func(i int) int64 {
		if i < n {
			return w.offsets[i]
		}
		return w.size
	}
	start, end := bound(from), bound(to)
	w.mu.Unlock()

	buf := make([]byte, end-start)
	if _, err := f.ReadAt(buf, start); err != nil {
		return nil, fmt.Errorf("store: read WAL: %s: frames [%d, %d) at offset %d: %w", w.path, from, to, start, err)
	}
	frames, _, torn, err := durable.Scan(buf, 0, maxFrameBytes)
	if err == nil && (torn || len(frames) != to-from) {
		err = fmt.Errorf("%d intact frames where %d were written", len(frames), to-from)
	}
	if err != nil {
		return nil, fmt.Errorf("store: %s: frames [%d, %d) at offset %d: %w", w.path, from, to, start, err)
	}
	return frames, nil
}

// Frames returns the number of frames written to the log.
func (w *WAL) Frames() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.offsets)
}

// Append writes one frame and blocks until it is durable (group commit).
// After any write or sync failure the WAL turns sticky-failed: the frame
// boundary on disk is unknown, so all further appends return the error
// and recovery on next open repairs the tail.
func (w *WAL) Append(payload []byte) error {
	if len(payload) > maxFrameBytes {
		return fmt.Errorf("store: frame of %d bytes exceeds limit %d", len(payload), maxFrameBytes)
	}
	buf := durable.AppendFrame(nil, payload)

	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrWALClosed
	}
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	if _, err := w.f.Write(buf); err != nil {
		w.err = fmt.Errorf("store: WAL write: %w", err)
		err = w.err
		w.mu.Unlock()
		return err
	}
	w.offsets = append(w.offsets, w.size)
	w.size += int64(len(buf))
	w.writeSeq++
	seq := w.writeSeq
	w.mu.Unlock()

	return w.syncTo(seq)
}

// syncTo blocks until frame seq is durable. The first caller through
// syncMu fsyncs everything written so far; callers queued behind it find
// their frame already covered and return without touching the disk.
func (w *WAL) syncTo(seq int64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()

	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	if w.synced >= seq {
		w.mu.Unlock()
		return nil
	}
	covers := w.writeSeq
	f := w.f
	w.mu.Unlock()

	err := f.Sync()

	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		if w.err == nil {
			w.err = fmt.Errorf("store: WAL fsync: %w", err)
		}
		return w.err
	}
	if covers > w.synced {
		w.synced = covers
	}
	return nil
}

// Sync flushes all written frames to disk.
func (w *WAL) Sync() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrWALClosed
	}
	seq := w.writeSeq
	w.mu.Unlock()
	return w.syncTo(seq)
}

// Size returns the current file size in bytes.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Path returns the log's file path.
func (w *WAL) Path() string { return w.path }

// Close flushes and closes the log. Closing is idempotent.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.mu.Unlock()
	syncErr := w.Sync()

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	closeErr := w.f.Close()
	if syncErr != nil && !errors.Is(syncErr, ErrWALClosed) {
		return syncErr
	}
	return closeErr
}
