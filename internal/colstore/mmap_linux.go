//go:build linux

package colstore

import (
	"os"
	"syscall"
	"unsafe"
)

// mapFile maps the file read-only. mapped=true means the bytes alias the
// file and must be released with unmapFile.
func mapFile(f *os.File, size int64) (data []byte, mapped bool, err error) {
	b, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, false, err
	}
	return b, true, nil
}

func unmapFile(b []byte) error { return syscall.Munmap(b) }

// adviseDontNeed drops the mapping's resident pages; clean file-backed
// pages just re-fault from the page cache or disk.
func adviseDontNeed(b []byte) {
	if len(b) > 0 {
		_ = syscall.Madvise(b, syscall.MADV_DONTNEED)
	}
}

// residentBytes counts the mapping's pages currently in physical memory.
func residentBytes(b []byte) (int64, error) {
	if len(b) == 0 {
		return 0, nil
	}
	page := os.Getpagesize()
	vec := make([]byte, (len(b)+page-1)/page)
	// The stdlib syscall package has no Mincore wrapper; call it raw.
	if _, _, errno := syscall.Syscall(syscall.SYS_MINCORE,
		uintptr(unsafe.Pointer(&b[0])), uintptr(len(b)), uintptr(unsafe.Pointer(&vec[0]))); errno != 0 {
		return 0, errno
	}
	var resident int64
	for _, v := range vec {
		if v&1 != 0 {
			resident += int64(page)
		}
	}
	if resident > int64(len(b)) {
		resident = int64(len(b))
	}
	return resident, nil
}
