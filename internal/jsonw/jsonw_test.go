package jsonw

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"testing"
)

// TestAppendFloatMatchesMarshal compares AppendFloat with encoding/json on
// the edges of its notation switch and on generated bit patterns, every
// float64 class included.
func TestAppendFloatMatchesMarshal(t *testing.T) {
	fs := []float64{0, math.Copysign(0, -1), 1, -1, 1e-7, 1e-6, 9.99999e-7, 1e20, 1e21, -1e21, 5e-324,
		math.MaxFloat64, 123456789e-17, 0.30000000000000004, math.Inf(1), math.Inf(-1), math.NaN()}
	r := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 20000; i++ {
		fs = append(fs, math.Float64frombits(r.Uint64()), r.NormFloat64()*math.Pow(10, float64(r.IntN(60)-30)))
	}
	for _, f := range fs {
		want, wantErr := json.Marshal(f)
		got, err := AppendFloat([]byte("x"), f)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%v: err %v, encoding/json err %v", f, err, wantErr)
		}
		if err == nil && !bytes.Equal(got, append([]byte("x"), want...)) {
			t.Fatalf("%v: %s, encoding/json %s", f, got[1:], want)
		}
	}
}

// TestAppendStringMatchesMarshal compares AppendString with encoding/json
// on generated byte strings: control bytes, HTML characters, invalid and
// truncated UTF-8 and the line separators all turn up.
func TestAppendStringMatchesMarshal(t *testing.T) {
	alphabet := []string{"a", "\"", "\\", "<", ">", "&", "\x00", "\x1f", "\x7f", "\b", "\f", "\n", "\r", "\t",
		"\xff", "\xc3", "\xe2\x80\xa8", "\xe2\x80\xa9", "\xe2\x80", "\xed\xa0\x80", "é", "日", "\xf0\x9f\x98\x80"}
	r := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 20000; i++ {
		var s []byte
		for n := r.IntN(12); n > 0; n-- {
			s = append(s, alphabet[r.IntN(len(alphabet))]...)
		}
		want, err := json.Marshal(string(s))
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, string(s)); !bytes.Equal(got, want) {
			t.Fatalf("%q: %s, encoding/json %s", s, got, want)
		}
	}
}
