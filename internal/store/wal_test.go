package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func openWAL(t *testing.T, path string) (*WAL, [][]byte, int64) {
	t.Helper()
	w, frames, truncated, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	return w, frames, truncated
}

func TestWALAppendAndRecover(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.wal")
	w, frames, truncated := openWAL(t, path)
	if len(frames) != 0 || truncated != 0 {
		t.Fatalf("fresh WAL: frames=%d truncated=%d", len(frames), truncated)
	}
	var want [][]byte
	for i := 0; i < 20; i++ {
		p := []byte(fmt.Sprintf("payload-%d-%s", i, bytes.Repeat([]byte{byte(i)}, i*7)))
		want = append(want, p)
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	// Zero-length payloads are legal frames.
	want = append(want, []byte{})
	if err := w.Append(nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}

	w2, got, truncated := openWAL(t, path)
	defer w2.Close()
	if truncated != 0 {
		t.Fatalf("clean log reported %d truncated bytes", truncated)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("frame %d changed: %q vs %q", i, got[i], want[i])
		}
	}
	// The reopened log keeps appending after the recovered frames.
	if err := w2.Append([]byte("after-reopen")); err != nil {
		t.Fatal(err)
	}
}

// corruptTailCases mutate a valid log file to simulate crash damage.
var corruptTailCases = []struct {
	name string
	mut  func(data []byte) []byte
}{
	{"torn header", func(d []byte) []byte { return append(d, 0x17, 0x00) }},
	{"torn payload", func(d []byte) []byte {
		frame := make([]byte, 8+2)
		binary.LittleEndian.PutUint32(frame, 100) // claims 100 bytes, has 2
		binary.LittleEndian.PutUint32(frame[4:], 0)
		return append(d, frame...)
	}},
	{"bad crc in last frame", func(d []byte) []byte {
		d[len(d)-1] ^= 0xff
		return d
	}},
	{"absurd length", func(d []byte) []byte {
		frame := make([]byte, 8)
		binary.LittleEndian.PutUint32(frame, 1<<30)
		return append(d, frame...)
	}},
	{"trailing garbage", func(d []byte) []byte {
		return append(d, bytes.Repeat([]byte{0xde, 0xad}, 37)...)
	}},
}

func TestWALCorruptTailRecovery(t *testing.T) {
	for _, tc := range corruptTailCases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "c.wal")
			w, _, _ := openWAL(t, path)
			var want [][]byte
			for i := 0; i < 5; i++ {
				p := []byte(fmt.Sprintf("frame-%d", i))
				want = append(want, p)
				if err := w.Append(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mut(data), 0o644); err != nil {
				t.Fatal(err)
			}

			w2, got, truncated := openWAL(t, path)
			if truncated == 0 {
				t.Fatal("corruption not detected")
			}
			// "bad crc in last frame" damages frame 4 itself; everything
			// else damages bytes after it.
			wantFrames := want
			if tc.name == "bad crc in last frame" {
				wantFrames = want[:4]
			}
			if len(got) != len(wantFrames) {
				t.Fatalf("recovered %d frames, want %d", len(got), len(wantFrames))
			}
			for i := range wantFrames {
				if !bytes.Equal(got[i], wantFrames[i]) {
					t.Fatalf("frame %d corrupted: %q", i, got[i])
				}
			}
			// The file was truncated back to its last valid frame, so new
			// appends and a further reopen see a clean log.
			if err := w2.Append([]byte("post-repair")); err != nil {
				t.Fatal(err)
			}
			if err := w2.Close(); err != nil {
				t.Fatal(err)
			}
			w3, got3, truncated3 := openWAL(t, path)
			defer w3.Close()
			if truncated3 != 0 {
				t.Fatalf("repaired log still reports %d corrupt bytes", truncated3)
			}
			if len(got3) != len(wantFrames)+1 || !bytes.Equal(got3[len(got3)-1], []byte("post-repair")) {
				t.Fatalf("post-repair append lost: %d frames", len(got3))
			}
		})
	}
}

func TestWALRejectsNonWALFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not.wal")
	if err := os.WriteFile(path, []byte("definitely not a wal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := OpenWAL(path); err == nil {
		t.Fatal("opened a non-WAL file")
	}
}

func TestWALRejectsOversizedFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.wal")
	w, _, _ := openWAL(t, path)
	defer w.Close()
	if err := w.Append(make([]byte, maxFrameBytes+1)); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// The rejection must not poison the log.
	if err := w.Append([]byte("fine")); err != nil {
		t.Fatalf("append after oversized rejection: %v", err)
	}
}

func TestWALGroupCommitConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.wal")
	w, _, _ := openWAL(t, path)
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := w.Append([]byte(fmt.Sprintf("w%d-%d", g, i))); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, frames, truncated := openWAL(t, path)
	if truncated != 0 || len(frames) != writers*perWriter {
		t.Fatalf("recovered %d frames (truncated %d), want %d", len(frames), truncated, writers*perWriter)
	}
	// Every frame must be intact and unique.
	seen := make(map[string]bool, len(frames))
	for _, f := range frames {
		if seen[string(f)] {
			t.Fatalf("duplicate frame %q", f)
		}
		seen[string(f)] = true
	}
}

func TestWALAppendAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wal")
	w, _, _ := openWAL(t, path)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("late")); err == nil {
		t.Fatal("append after close succeeded")
	}
}

// sanity-check the frame constants against the writer.
func TestWALFrameLayout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.wal")
	w, _, _ := openWAL(t, path)
	payload := []byte("hello")
	if err := w.Append(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data[:8]) != walMagic {
		t.Fatalf("magic = %q", data[:8])
	}
	if n := binary.LittleEndian.Uint32(data[8:]); n != uint32(len(payload)) {
		t.Fatalf("length field = %d", n)
	}
	if sum := binary.LittleEndian.Uint32(data[12:]); sum != crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)) {
		t.Fatalf("crc field = %x", sum)
	}
	if !bytes.Equal(data[16:], payload) {
		t.Fatalf("payload = %q", data[16:])
	}
}
