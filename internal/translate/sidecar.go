package translate

// The translation sidecar is the durable half of the plane: every
// computed plan — matrix fingerprint, strategy shape, canonical seed and
// the sorted normalized samples — is framed into one file beside the
// dataset's catalog entry, so a restarted server re-reads ~80 KB per
// matrix instead of re-sampling for ~9 ms.
//
// Format (all little-endian):
//
//	header  : magic "APEXTRAN" | u32 version (=2)
//	frame   : u32 payloadLen | u32 crc32c(payload) | payload
//	payload : 32B matrix fingerprint (SHA-256)
//	          u8  stratLen | strat
//	          u32 samples | u64 seed
//	          u32 L (matrix rows) | u32 cols (matrix columns)
//	          u32 rows (strategy-matrix rows)
//	          f64 SensA | f64 FrobR
//	          u32 nzs | nzs × f64 zs (sorted)
//
// Version 1 keyed frames by the rendered predicate text. A v1 file is
// stale, not corrupt: none of its keys can ever be asked for again, so it
// is ignored on load (by its header alone — its frames are not read) and
// replaced by the next persist, without quarantine or alarm.
//
// Floats are raw IEEE-754 bits, so a loaded plan is bit-identical to
// the computed one — the differential tests depend on that. Frames and
// the atomic replace are internal/durable's (shared with the WAL), so a
// crash mid-write leaves the previous sidecar intact; a sidecar that
// fails validation on load keeps its valid frame prefix, is renamed aside
// (durable.QuarantineSuffix) and rewritten from the surviving plans.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"

	"repro/internal/durable"
)

const (
	sidecarMagic   = "APEXTRAN"
	sidecarVersion = 2
	// sidecarStaleVersion is the text-keyed format this one replaced.
	sidecarStaleVersion = 1
	// maxSidecarFrame bounds one frame at decode time so a corrupt
	// length field cannot ask for gigabytes.
	maxSidecarFrame = 64 << 20
)

// encodeStoredPlan appends one framed plan to buf: everything but the
// matrix/strategy handles, which are attached on the plan's first ask.
func encodeStoredPlan(buf []byte, p *Plan) []byte {
	payload := make([]byte, 0, len(p.Matrix)+1+len(p.Strategy)+4+8+4+4+4+8+8+4+8*len(p.Zs))
	payload = append(payload, p.Matrix[:]...)
	payload = append(payload, byte(len(p.Strategy)))
	payload = append(payload, p.Strategy...)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(p.Samples))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(p.Seed))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(p.l))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(p.cols))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(p.rows))
	payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(p.SensA))
	payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(p.FrobR))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(p.Zs)))
	for _, z := range p.Zs {
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(z))
	}
	return durable.AppendFrame(buf, payload)
}

// decodeStoredPlan parses one payload into a plan not yet bound to a
// matrix; it validates internal lengths so a CRC-valid frame from a future
// incompatible version fails cleanly.
func decodeStoredPlan(p []byte) (*Plan, error) {
	u32 := func() (uint32, error) {
		if len(p) < 4 {
			return 0, fmt.Errorf("translate: truncated payload")
		}
		v := binary.LittleEndian.Uint32(p)
		p = p[4:]
		return v, nil
	}
	u64 := func() (uint64, error) {
		if len(p) < 8 {
			return 0, fmt.Errorf("translate: truncated payload")
		}
		v := binary.LittleEndian.Uint64(p)
		p = p[8:]
		return v, nil
	}
	s := &Plan{}
	if len(p) < len(s.Matrix)+1 {
		return nil, fmt.Errorf("translate: truncated payload")
	}
	p = p[copy(s.Matrix[:], p):]
	stratLen := int(p[0])
	p = p[1:]
	if stratLen > len(p) {
		return nil, fmt.Errorf("translate: strategy name overruns payload")
	}
	s.Strategy = string(p[:stratLen])
	p = p[stratLen:]
	samples, err := u32()
	if err != nil {
		return nil, err
	}
	s.Samples = int(samples)
	seed, err := u64()
	if err != nil {
		return nil, err
	}
	s.Seed = int64(seed)
	l, err := u32()
	if err != nil {
		return nil, err
	}
	s.l = int(l)
	cols, err := u32()
	if err != nil {
		return nil, err
	}
	s.cols = int(cols)
	rows, err := u32()
	if err != nil {
		return nil, err
	}
	s.rows = int(rows)
	sa, err := u64()
	if err != nil {
		return nil, err
	}
	s.SensA = math.Float64frombits(sa)
	fr, err := u64()
	if err != nil {
		return nil, err
	}
	s.FrobR = math.Float64frombits(fr)
	nzs, err := u32()
	if err != nil {
		return nil, err
	}
	if int(nzs) != s.Samples {
		return nil, fmt.Errorf("translate: %d samples framed, header says %d", nzs, s.Samples)
	}
	if len(p) != 8*int(nzs) {
		return nil, fmt.Errorf("translate: sample block is %d bytes, want %d", len(p), 8*int(nzs))
	}
	s.Zs = make([]float64, nzs)
	for i := range s.Zs {
		s.Zs[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return s, nil
}

// decodeSidecar parses a whole sidecar. It returns every plan from the
// valid frame prefix plus corrupt=true if anything after that prefix is
// damaged (bad magic, bad CRC, truncation, undecodable payload). A stale
// (v1) sidecar decodes to no plans and is not corrupt.
func decodeSidecar(data []byte) (plans []*Plan, corrupt bool) {
	if len(data) < len(sidecarMagic)+4 || string(data[:len(sidecarMagic)]) != sidecarMagic {
		return nil, true
	}
	switch binary.LittleEndian.Uint32(data[len(sidecarMagic):]) {
	case sidecarVersion:
	case sidecarStaleVersion:
		return nil, false
	default:
		return nil, true
	}
	// The sidecar's policy: nothing is ever in flight on a file that is
	// only replaced whole, so a torn tail is as corrupt as a bad checksum.
	payloads, _, torn, err := durable.Scan(data, len(sidecarMagic)+4, maxSidecarFrame)
	for _, payload := range payloads {
		s, derr := decodeStoredPlan(payload)
		if derr != nil {
			return plans, true
		}
		plans = append(plans, s)
	}
	return plans, torn || err != nil
}

// VerifySidecar checks the framing and every CRC of the sidecar at path
// without touching any cache state — the background scrubber's sidecar
// check. A missing file is healthy (datasets translate lazily); a file
// whose suffix is damaged reports plans as the surviving valid-prefix
// count and corrupt=true; a stale v1 file is healthy with 0 plans.
// Healing is the cache's job: LoadSidecar quarantines and rewrites from
// the valid prefix.
func VerifySidecar(path string) (plans int, corrupt bool, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("translate: read sidecar: %w", err)
	}
	decoded, corrupt := decodeSidecar(data)
	return len(decoded), corrupt, nil
}

// persist rewrites the sidecar from the cache's current content. It is
// best-effort: a failed write costs only restart cheapness (counted in
// PersistFailures), never a translation.
func (c *Cache) persist() {
	if c.path == "" {
		return
	}
	c.persistMu.Lock()
	defer c.persistMu.Unlock()

	// Plans still in flight are skipped: their own completion persists.
	var plans []*Plan
	c.plans.Range(func(_ planKey, p *Plan) bool {
		plans = append(plans, p)
		return true
	})

	// Deterministic order: byte-identical cache content yields a
	// byte-identical sidecar.
	sort.Slice(plans, func(i, j int) bool {
		a, b := plans[i], plans[j]
		if c := bytes.Compare(a.Matrix[:], b.Matrix[:]); c != 0 {
			return c < 0
		}
		if a.Strategy != b.Strategy {
			return a.Strategy < b.Strategy
		}
		return a.Samples < b.Samples
	})

	buf := make([]byte, 0, 1024)
	buf = append(buf, sidecarMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, sidecarVersion)
	for _, s := range plans {
		buf = encodeStoredPlan(buf, s)
	}
	if err := durable.ReplaceFile(c.path, buf); err != nil {
		c.persistFails.Add(1)
	}
}

// LoadSidecar reads the persisted plans back into the cache (the
// recovery path). Plans become entries like computed ones, older than
// any, and are bound to their matrix on first ask, so loading never pays
// a pseudoinverse. A corrupt
// sidecar is quarantined — renamed aside with durable.QuarantineSuffix —
// and immediately rewritten from its valid frame prefix; the quarantined
// path is returned for logging, with a non-nil error when the rename's
// directory fsync failed (the one quarantine contract: aside and durable,
// or the caller hears). A stale v1 sidecar loads nothing and is left for
// the next persist to replace.
func (c *Cache) LoadSidecar() (loaded int, quarantined string, err error) {
	if c.path == "" {
		return 0, "", nil
	}
	data, err := os.ReadFile(c.path)
	if os.IsNotExist(err) {
		return 0, "", nil
	}
	if err != nil {
		return 0, "", fmt.Errorf("translate: read sidecar: %w", err)
	}
	plans, corrupt := decodeSidecar(data)
	c.mu.Lock()
	for _, p := range plans {
		// A key already held is a heal re-reading the file this cache wrote.
		if e, fresh := c.plans.Claim(planKey{matrix: p.Matrix, strat: p.Strategy, samples: p.Samples}); fresh {
			c.plans.Finish(e, p, 1, nil)
		}
	}
	c.mu.Unlock()
	c.loads.Add(int64(len(plans)))
	if !corrupt {
		return len(plans), "", nil
	}
	quarantined = c.path + durable.QuarantineSuffix
	// A leftover quarantine from an earlier life is replaced, matching
	// the segment quarantine policy: newest corrupt artifact wins.
	if rerr := durable.Rename(c.path, quarantined); rerr != nil {
		err = fmt.Errorf("translate: quarantine sidecar: %w", rerr)
		if errors.As(rerr, new(*os.LinkError)) {
			return len(plans), "", err // nothing moved, nothing to rebuild over
		}
		// Aside, but the directory fsync failed: rebuild, and say so.
	}
	c.rebuilds.Add(1)
	c.persist() // rebuild immediately from the valid prefix
	return len(plans), quarantined, err
}
