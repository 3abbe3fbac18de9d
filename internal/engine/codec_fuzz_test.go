package engine_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/durable"
	"repro/internal/engine"
)

// FuzzDecodeEntry: every transcript read of a durable session decodes WAL
// frames, so the decoder (and dataset.UnmarshalPredicate under it) must
// never panic on bytes that merely pass a CRC, and whatever it accepts
// must re-encode to a fixed point — Encode(Decode(b)) decodes and encodes
// to itself — or a recovered transcript would render differently the
// second time it is restarted. Seeded with the frames of the session log
// the parent commit wrote.
func FuzzDecodeEntry(f *testing.F) {
	wal, err := os.ReadFile(filepath.Join("..", "store", "testdata", "session_c6f28c6.wal"))
	if err != nil {
		f.Fatal(err)
	}
	frames, _, torn, err := durable.Scan(wal, len("APEXWAL1"), 1<<20)
	if err != nil || torn || len(frames) != 3 {
		f.Fatalf("fixture: %d frames, torn %v, err %v", len(frames), torn, err)
	}
	for _, frame := range frames {
		f.Add(frame)
	}
	f.Add([]byte(`{"label":"SUM(age)","epsilon":0.15}`))
	f.Add([]byte(`{"query":{"kind":"TCQ","predicates":[{"t":"not","p":{"t":"and","ps":[{"t":"range","attr":"a","lo":0,"hi":1},{"t":"streq","attr":"s","val":"x"}]}}],"threshold":0,"k":1,"alpha":1,"beta":0.1},"denied":true,"epsilon":0,"trace_id":"t","at_ns":1}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		e, err := engine.DecodeEntry(b)
		if err != nil {
			return
		}
		once, err := engine.EncodeEntry(e)
		if err != nil {
			t.Fatalf("decoded entry does not encode: %v", err)
		}
		e2, err := engine.DecodeEntry(once)
		if err != nil {
			t.Fatalf("encoded entry does not decode: %v\n%s", err, once)
		}
		twice, err := engine.EncodeEntry(e2)
		if err != nil || !bytes.Equal(once, twice) {
			t.Fatalf("not a fixed point (err %v):\n%s\n%s", err, once, twice)
		}
	})
}
