// Package durable is the one crash-consistency layer under every durable
// file of the server (session WALs, translation sidecar, catalog entries,
// segments): the checksummed frame, whole-file writes fsynced before
// anyone relies on them, and renames followed by their directory fsync.
// Callers keep their policies (what to do with a torn or corrupt tail,
// what to quarantine); the bytes and the fsync order are decided here
// only. Standard library imports only, so every layer can use it.
package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
)

// QuarantineSuffix is appended to an artifact that failed validation: it
// is renamed aside for the operator, never deleted and never reopened.
const QuarantineSuffix = ".quarantined"

// FrameHeader is the size of the per-frame prefix: u32 payload length,
// then u32 CRC-32C (Castagnoli) of the payload, both little-endian. A
// frame occupies FrameHeader + len(payload) bytes.
const FrameHeader = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends payload to dst as one `len | crc32c | payload` frame.
func AppendFrame(dst, payload []byte) []byte {
	dst = slices.Grow(dst, FrameHeader+len(payload))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// Scan parses the frames in data[start:] (start ≤ len(data) skips the
// caller's file header, so offsets are file offsets). It returns the
// payloads of the valid prefix — subslices of data, nothing is allocated
// from a length field — and valid, the offset just past the last intact
// frame. What follows is nothing (torn false, err nil), a torn frame (a
// header or payload cut short: a write in flight or cut off by a crash),
// or corruption (a length above maxPayload, or a checksum mismatch on a
// fully present frame; err names the frame index and offset).
func Scan(data []byte, start int, maxPayload uint32) (payloads [][]byte, valid int, torn bool, err error) {
	for valid = start; valid < len(data); {
		rest := data[valid:]
		if len(rest) < FrameHeader {
			return payloads, valid, true, nil
		}
		n, want := binary.LittleEndian.Uint32(rest), binary.LittleEndian.Uint32(rest[4:])
		if n > maxPayload {
			return payloads, valid, false, fmt.Errorf("frame %d declares %d bytes (limit %d) — corrupt length at offset %d",
				len(payloads), n, maxPayload, valid)
		}
		if uint64(len(rest)) < FrameHeader+uint64(n) {
			return payloads, valid, true, nil
		}
		payload := rest[FrameHeader : FrameHeader+int(n)]
		if got := crc32.Checksum(payload, castagnoli); got != want {
			return payloads, valid, false, fmt.Errorf("frame %d checksum mismatch at offset %d (got %08x, want %08x)",
				len(payloads), valid, got, want)
		}
		payloads = append(payloads, payload)
		valid += FrameHeader + int(n)
	}
	return payloads, valid, false, nil
}

// WriteFile creates (or truncates) path, lets fill write it, fsyncs and
// closes; on any failure the partial file is removed. The directory entry
// is the caller's to make durable (Rename into place, or SyncDir).
func WriteFile(path string, fill func(*os.File) error) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	return fillSyncClose(f, fill)
}

func fillSyncClose(f *os.File, fill func(*os.File) error) error {
	err := fill(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// ReplaceFile atomically replaces path with data (same-directory temp
// file, fsync, Rename); a crash or failure leaves the previous file intact.
func ReplaceFile(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := fillSyncClose(f, func(f *os.File) error { _, err := f.Write(data); return err }); err != nil {
		return err
	}
	if err = Rename(tmp, path); err != nil {
		os.Remove(tmp)
	}
	return err
}

// Rename renames within one directory and fsyncs it, so the new name
// survives a crash. An *os.LinkError means the rename itself failed and
// nothing moved; any other error is the directory fsync's.
func Rename(oldpath, newpath string) error {
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	return SyncDir(filepath.Dir(newpath))
}

// SyncDir fsyncs a directory: its creates, renames and removes are durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
