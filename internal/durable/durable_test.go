package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFrameGolden pins the bytes of one frame: length first, then the
// checksum, both little-endian, CRC-32C (Castagnoli).
func TestFrameGolden(t *testing.T) {
	want := []byte{0x04, 0x00, 0x00, 0x00, 0x3b, 0x7c, 0xd7, 0x99, 'a', 'p', 'e', 'x'}
	if got := AppendFrame(nil, []byte("apex")); !bytes.Equal(got, want) {
		t.Fatalf("AppendFrame(apex) = % x, want % x", got, want)
	}
	if got := AppendFrame([]byte("hdr"), nil); !bytes.Equal(got, []byte{'h', 'd', 'r', 0, 0, 0, 0, 0, 0, 0, 0}) {
		t.Fatalf("empty frame after a prefix = % x", got)
	}
}

// A valid log body for the tail cases below: a 3-byte file header the
// scan must skip, then five frames.
const tailHeader = "HDR"

func validBody() (data []byte, payloads [][]byte) {
	data = []byte(tailHeader)
	for _, p := range []string{"frame-0", "frame-1", "", "frame-3", "frame-4"} {
		payloads = append(payloads, []byte(p))
		data = AppendFrame(data, []byte(p))
	}
	return data, payloads
}

// corruptTailCases are the crash-damage shapes every framed file (WAL,
// translation sidecar) has to classify the same way, because both read
// through Scan. frames is how many of validBody's five survive.
var corruptTailCases = []struct {
	name    string
	mut     func(d []byte) []byte
	frames  int
	torn    bool
	corrupt string // substring of the error, "" when not corrupt
}{
	{"torn header", func(d []byte) []byte { return append(d, 0x17, 0x00) }, 5, true, ""},
	{"torn payload", func(d []byte) []byte {
		frame := make([]byte, FrameHeader+2)
		binary.LittleEndian.PutUint32(frame, 100) // claims 100 bytes, has 2
		return append(d, frame...)
	}, 5, true, ""},
	{"bad crc in last frame", func(d []byte) []byte {
		d[len(d)-1] ^= 0xff
		return d
	}, 4, false, "frame 4 checksum mismatch at offset 56"},
	{"absurd length", func(d []byte) []byte {
		frame := make([]byte, FrameHeader)
		binary.LittleEndian.PutUint32(frame, 1<<30)
		return append(d, frame...)
	}, 5, false, "frame 5 declares 1073741824 bytes (limit 1024) — corrupt length at offset 71"},
	{"trailing garbage", func(d []byte) []byte {
		return append(d, bytes.Repeat([]byte{0xde, 0xad}, 37)...)
	}, 5, false, "frame 5 declares"},
}

func TestScanCorruptTails(t *testing.T) {
	clean, want := validBody()
	payloads, valid, torn, err := Scan(clean, len(tailHeader), 1024)
	if len(payloads) != 5 || valid != len(clean) || torn || err != nil {
		t.Fatalf("clean body: %d frames, valid=%d of %d, torn=%v, err=%v", len(payloads), valid, len(clean), torn, err)
	}
	for _, tc := range corruptTailCases {
		t.Run(tc.name, func(t *testing.T) {
			body, _ := validBody()
			data := tc.mut(body)
			payloads, valid, torn, err := Scan(data, len(tailHeader), 1024)
			if len(payloads) != tc.frames {
				t.Fatalf("%d frames survive, want %d", len(payloads), tc.frames)
			}
			for i, p := range payloads {
				if !bytes.Equal(p, want[i]) {
					t.Fatalf("frame %d = %q, want %q", i, p, want[i])
				}
			}
			if valid >= len(data) {
				t.Fatalf("valid = %d covers the damage (len %d)", valid, len(data))
			}
			if torn != tc.torn {
				t.Fatalf("torn = %v, want %v", torn, tc.torn)
			}
			if (err != nil) != (tc.corrupt != "") || (err != nil && !strings.Contains(err.Error(), tc.corrupt)) {
				t.Fatalf("err = %v, want one containing %q", err, tc.corrupt)
			}
		})
	}
}

// FuzzScan: for arbitrary bytes and bound Scan never panics, returns only
// subslices of its input, and its valid prefix is exactly the frames it
// returned — so no two readers can disagree about where a file ends.
func FuzzScan(f *testing.F) {
	clean, _ := validBody()
	f.Add(clean, uint32(1024))
	for _, tc := range corruptTailCases {
		body, _ := validBody()
		f.Add(tc.mut(body), uint32(1024))
	}
	f.Add([]byte{}, uint32(0))
	f.Add(AppendFrame(nil, make([]byte, 9)), uint32(8))
	f.Fuzz(func(t *testing.T, data []byte, maxPayload uint32) {
		payloads, valid, torn, err := Scan(data, 0, maxPayload)
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid = %d outside [0, %d]", valid, len(data))
		}
		if torn && err != nil {
			t.Fatalf("remainder both torn and corrupt: %v", err)
		}
		if !torn && err == nil && valid != len(data) {
			t.Fatalf("clean scan stopped at %d of %d", valid, len(data))
		}
		if (torn || err != nil) && valid == len(data) {
			t.Fatal("damage reported with nothing after the valid prefix")
		}
		var re []byte
		for _, p := range payloads {
			if uint32(len(p)) > maxPayload {
				t.Fatalf("payload of %d bytes above the bound %d", len(p), maxPayload)
			}
			re = AppendFrame(re, p)
		}
		if !bytes.Equal(re, data[:valid]) {
			t.Fatalf("re-framed payloads differ from data[:%d]", valid)
		}
	})
}

func TestWriteFileSyncsOrRemoves(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	write := func(s string) func(*os.File) error {
		return func(f *os.File) error { _, err := f.WriteString(s); return err }
	}
	if err := WriteFile(path, write("one")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, write("2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "2" {
		t.Fatalf("file = %q, want the second write alone", got)
	}
	boom := errors.New("boom")
	if err := WriteFile(path, func(*os.File) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("fill error not returned: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("partial file left behind (stat err %v)", err)
	}
}

func TestReplaceFileKeepsPreviousOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact")
	for _, content := range []string{"first", "second"} {
		if err := ReplaceFile(path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(path); string(got) != content {
			t.Fatalf("file = %q, want %q", got, content)
		}
	}
	// A target that cannot be renamed over (a non-empty directory) fails
	// the replace; the target is untouched and no temp file is left.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	err := ReplaceFile(blocked, []byte("x"))
	if !errors.As(err, new(*os.LinkError)) {
		t.Fatalf("replace over a directory: err = %v, want the rename's *os.LinkError", err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 2 {
		t.Fatalf("directory holds %d entries after a failed replace, want artifact + blocked", len(entries))
	}
}

func TestRenameReportsWhichHalfFailed(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Rename(filepath.Join(dir, "a"), filepath.Join(dir, "a"+QuarantineSuffix)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "a.quarantined")); err != nil {
		t.Fatal(err)
	}
	if err := Rename(filepath.Join(dir, "missing"), filepath.Join(dir, "b")); !errors.As(err, new(*os.LinkError)) {
		t.Fatalf("rename of a missing file: err = %v, want *os.LinkError", err)
	}
	if err := SyncDir(filepath.Join(dir, "nope")); err == nil {
		t.Fatal("SyncDir of a missing directory succeeded")
	}
}
