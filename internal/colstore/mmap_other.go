//go:build !linux

package colstore

import (
	"io"
	"os"
)

// Fallback for platforms without the syscall surface this package uses:
// the "mapping" is the whole file read onto the heap. Correct, but the
// resident set equals the file size — the beyond-RAM property needs a
// real mmap platform.

func mapFile(f *os.File, size int64) (data []byte, mapped bool, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, false, err
	}
	b := make([]byte, size)
	if _, err := io.ReadFull(f, b); err != nil {
		return nil, false, err
	}
	return b, false, nil
}

func unmapFile([]byte) error { return nil }

func adviseDontNeed([]byte) {}

func residentBytes(b []byte) (int64, error) { return int64(len(b)), nil }
