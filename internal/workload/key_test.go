package workload

import (
	"strings"
	"testing"

	"repro/internal/dataset"
)

// TestKeyAllocs pins the cache key of a 16-bin prefix workload, rendered
// on every request, at one allocation (the returned string), and a key's
// text at each predicate's String() followed by NUL.
func TestKeyAllocs(t *testing.T) {
	preds, err := Prefix1D("capital gain", 0, 100000, 6250)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 16 {
		t.Fatalf("%d predicates, want 16", len(preds))
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = Key(preds) }); allocs > 1 {
		t.Errorf("Key of a 16-predicate prefix workload: %v allocations, want ≤ 1", allocs)
	}
	mixed := append(preds[:15:15], dataset.Not{P: dataset.And{preds[15], dataset.StrEq{Attr: "sex", Val: "Female"}}})
	var want strings.Builder
	for _, p := range mixed {
		want.WriteString(p.String())
		want.WriteByte(0)
	}
	if got := Key(mixed); got != want.String() {
		t.Fatalf("Key = %q, want %q", got, want.String())
	}
}
