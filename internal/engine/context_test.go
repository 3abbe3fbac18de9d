package engine

import (
	"context"
	"errors"
	"testing"

	"repro/internal/accuracy"
	"repro/internal/dataset"
	"repro/internal/query"
)

func TestAskContextCanceled(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "age", Kind: dataset.Continuous, Min: 0, Max: 100},
	)
	table := dataset.NewTable(schema)
	for i := 0; i < 10; i++ {
		table.MustAppend(dataset.Tuple{dataset.Num(float64(i * 10))})
	}
	e, err := New(table, Config{Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.NewWCQ(
		[]dataset.Predicate{dataset.Range{Attr: "age", Lo: 0, Hi: 50}},
		accuracy.Requirement{Alpha: 100, Beta: 0.05},
	)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.AskContext(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// A canceled ask charges nothing and leaves no transcript entry.
	if e.Spent() != 0 || e.TranscriptLen() != 0 {
		t.Fatalf("canceled ask mutated state: spent=%v entries=%d", e.Spent(), e.TranscriptLen())
	}

	// The same query still answers normally afterwards.
	if _, err := e.AskContext(context.Background(), q); err != nil {
		t.Fatal(err)
	}
}
