package oracle

import (
	"bytes"
	"testing"

	"repro/bench/loadgen"
	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/workload"
)

// smallTable generates w's dataset at a few thousand rows and returns it
// both as the engine's table and as the oracle's parse of its CSV.
func smallTable(t *testing.T, w loadgen.Workload) (*dataset.Table, *Table) {
	t.Helper()
	var csv bytes.Buffer
	if err := w.Data.WriteCSV(&csv, 3000, 5); err != nil {
		t.Fatal(err)
	}
	tbl, err := dataset.ReadCSV(bytes.NewReader(csv.Bytes()), w.Data.Schema())
	if err != nil {
		t.Fatal(err)
	}
	var nums, cats []string
	for _, d := range w.Domains {
		nums = append(nums, d.Attr)
	}
	for _, c := range w.Cats {
		cats = append(cats, c.Attr)
	}
	or, err := Load(&csv, nums, cats)
	if err != nil {
		t.Fatal(err)
	}
	if or.Rows() != tbl.Size() {
		t.Fatalf("oracle parsed %d rows of %d", or.Rows(), tbl.Size())
	}
	return tbl, or
}

// The oracle's binary-search counts must equal both the engine's exact
// answers and a plain row loop, on every workload shape the generators
// emit (categorical conjuncts included).
func TestCountsAgreeWithTrueAnswers(t *testing.T) {
	for _, name := range []string{"mixed", "scan-fresh"} {
		w, err := loadgen.WorkloadByName(name, 20)
		if err != nil {
			t.Fatal(err)
		}
		tbl, or := smallTable(t, w)
		rows := make([]dataset.Tuple, tbl.Size())
		for r := range rows {
			rows[r] = tbl.Row(r)
		}
		g := loadgen.New(w.Spec, 9, 4)
		st := g.Stream(0)
		withCat := 0
		for i := 0; i < 60; i++ {
			q := st.Next().Query
			if q.Preds[0].Cat != "" {
				withCat++
			}
			parsed, err := query.ParseLine(q.Text())
			if err != nil {
				t.Fatal(err)
			}
			tr, err := workload.Transform(tbl.Schema(), parsed.Predicates, workload.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := tr.TrueAnswers(tbl)
			got, err := or.Truth(q)
			if err != nil {
				t.Fatal(err)
			}
			for j := range want {
				var loop float64
				for _, row := range rows {
					if parsed.Predicates[j].Eval(tbl.Schema(), row) {
						loop++
					}
				}
				if got[j] != want[j] || got[j] != loop {
					t.Fatalf("%s predicate %d of %q: oracle %v, TrueAnswers %v, row loop %v",
						name, j, q.Text(), got[j], want[j], loop)
				}
			}
		}
		if withCat == 0 {
			t.Errorf("%s: no generated workload carried a categorical conjunct", name)
		}
	}
}

func TestCheckerFlagsAnOffAnswer(t *testing.T) {
	truth := []float64{100, 500, 900, 300}
	preds := make([]loadgen.Pred, len(truth))
	const alpha = 50

	wcq := &loadgen.Query{Kind: loadgen.WCQ, Preds: preds, Alpha: alpha}
	if e := Error(wcq, truth, Answer{Counts: []float64{110, 460, 905, 300}}); e != 40 {
		t.Errorf("WCQ error %v, want 40", e)
	}
	icq := &loadgen.Query{Kind: loadgen.ICQ, Preds: preds, Threshold: 400, Alpha: alpha}
	tcq := &loadgen.Query{Kind: loadgen.TCQ, Preds: preds, K: 2, Alpha: alpha}

	var tally Tally
	for _, c := range []struct {
		q    *loadgen.Query
		a    Answer
		want float64
	}{
		{wcq, Answer{Counts: []float64{100, 500, 900, 351}}, 51},                 // one count off by > α
		{icq, Answer{Selected: []bool{false, true, true, false}}, 0},             // exact labelling
		{icq, Answer{Selected: []bool{true, true, true, false}}, 300},            // 100 labelled above 400
		{icq, Answer{Selected: []bool{false, true, true, true}}, 100},            // 300 labelled above 400
		{tcq, Answer{Selected: []bool{false, true, true, false}}, 0},             // the true top 2
		{tcq, Answer{Selected: []bool{true, false, true, false}}, 400},           // 100 in, 500 out; cut is 500
		{wcq, Answer{Counts: []float64{100 + alpha, 500, 900 - alpha, 300}}, 50}, // exactly α is within the bound
	} {
		if err := CheckShape(c.q, c.a); err != nil {
			t.Fatalf("well-formed answer rejected: %v", err)
		}
		e := Error(c.q, truth, c.a)
		if e != c.want {
			t.Errorf("%s answer %+v: error %v, want %v", c.q.Kind, c.a, e, c.want)
		}
		tally.Add(e, alpha)
	}
	if tally.Answers != 7 || tally.Misses != 4 {
		t.Errorf("tally %+v, want 4 misses of 7", tally)
	}
	if tally.Holds(0.05) {
		t.Errorf("4 misses of 7 accepted at β = 0.05")
	}

	for _, bad := range []struct {
		q *loadgen.Query
		a Answer
	}{
		{wcq, Answer{Counts: []float64{1, 2, 3}}},
		{wcq, Answer{Selected: []bool{true, false, true, false}}},
		{icq, Answer{Counts: truth}},
		{tcq, Answer{Selected: []bool{true, true, true, false}}},
	} {
		if CheckShape(bad.q, bad.a) == nil {
			t.Errorf("malformed %s answer %+v accepted", bad.q.Kind, bad.a)
		}
	}
}

func TestMissBound(t *testing.T) {
	// 1000 answers at β = 0.05: 50 expected misses, σ ≈ 6.9, so 77 pass
	// and 78 do not.
	if !(Tally{Answers: 1000, Misses: 77}).Holds(0.05) {
		t.Error("77 misses of 1000 rejected")
	}
	if (Tally{Answers: 1000, Misses: 78}).Holds(0.05) {
		t.Error("78 misses of 1000 accepted")
	}
	if !(Tally{}).Holds(0.05) {
		t.Error("an empty tally must hold")
	}
}
