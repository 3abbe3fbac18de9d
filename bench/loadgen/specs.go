package loadgen

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

// Dataset names the synthetic table a workload runs on.
type Dataset string

// The paper's two evaluation datasets, as internal/datagen synthesizes them.
const (
	Adult  Dataset = "adult"
	NYTaxi Dataset = "nytaxi"
)

func (d Dataset) generated() (*dataset.Schema, func(int, int64) *dataset.Table) {
	if d == NYTaxi {
		return datagen.NYTaxiSchema(), datagen.NYTaxi
	}
	return datagen.AdultSchema(), datagen.Adult
}

// Schema returns the dataset's public schema with the spaces in attribute
// names replaced by underscores: the server's text schema format, which
// its -dataset flag reads, splits fields on whitespace.
func (d Dataset) Schema() *dataset.Schema {
	gen, _ := d.generated()
	attrs := make([]dataset.Attribute, gen.Arity())
	for i := range attrs {
		attrs[i] = gen.Attr(i)
		attrs[i].Name = strings.ReplaceAll(attrs[i].Name, " ", "_")
	}
	return dataset.MustSchema(attrs...)
}

// SchemaText renders Schema in the server's text schema format.
func (d Dataset) SchemaText() string {
	var sb strings.Builder
	s := d.Schema()
	for i := 0; i < s.Arity(); i++ {
		a := s.Attr(i)
		if a.Kind == dataset.Categorical {
			fmt.Fprintf(&sb, "%s categorical %s\n", a.Name, strings.Join(a.Values, ","))
		} else {
			fmt.Fprintf(&sb, "%s continuous %s %s\n", a.Name, num(a.Min), num(a.Max))
		}
	}
	return sb.String()
}

// WriteCSV generates rows rows of the dataset and writes them as CSV under
// Schema's header.
func (d Dataset) WriteCSV(w io.Writer, rows int, seed int64) error {
	if _, err := io.WriteString(w, strings.Join(d.Schema().Names(), ",")+"\n"); err != nil {
		return err
	}
	_, table := d.generated()
	return dataset.WriteCSV(&skipLine{w: w}, table(rows, seed))
}

// skipLine drops everything up to and including the first newline — the
// generator's own header, whose names carry spaces.
type skipLine struct {
	w       io.Writer
	skipped bool
}

func (s *skipLine) Write(p []byte) (int, error) {
	if s.skipped {
		return s.w.Write(p)
	}
	i := bytes.IndexByte(p, '\n')
	if i < 0 {
		return len(p), nil
	}
	s.skipped = true
	_, err := s.w.Write(p[i+1:])
	return len(p), err
}

// binned lists, per dataset, the attributes the generators use: wide
// continuous domains to bin, and categorical attributes to filter on.
var binned = map[Dataset]struct{ domains, cats []string }{
	Adult:  {[]string{"age", "hours_per_week", "capital_gain", "capital_loss"}, []string{"sex", "race", "workclass", "label"}},
	NYTaxi: {[]string{"trip_distance", "fare_amount", "tip_amount", "total_amount", "PUID"}, []string{"payment_type", "vendor"}},
}

func (d Dataset) attrs() ([]Domain, []Category) {
	s := d.Schema()
	var doms []Domain
	for _, name := range binned[d].domains {
		a, _ := s.AttrByName(name)
		doms = append(doms, Domain{Attr: a.Name, Min: a.Min, Max: a.Max})
	}
	var cats []Category
	for _, name := range binned[d].cats {
		a, _ := s.AttrByName(name)
		cats = append(cats, Category{Attr: a.Name, Values: a.Values})
	}
	return doms, cats
}

// Workload is a benchmark workload: its traffic and the table under it.
type Workload struct {
	Spec
	Data Dataset
	// Mmap says the table must be large enough that the server's default
	// -mmap-threshold serves it from the mmap'd v2 segment.
	Mmap bool
	// EpsPrefix is how many of each session's first window requests count
	// toward eps_per_query and the mechanism shares. A window is a fixed
	// time, so how far a session gets varies; its first requests do not,
	// and sums over them repeat exactly under one seed. Frozen at 25–45%
	// of what a session completes on the reference 2-core box, in whole
	// traffic mixes and whole decks of the pool, so that it holds the same
	// number of every kind of request under every seed; a slower run
	// keeps its window open until the prefix is asked.
	EpsPrefix int
}

// The hot pool holds 48 workloads: below the 256-entry bound of both
// workload.TransformCache and translate.Cache, so repeats always hit.
const poolSize = 48

var (
	topK = Mix{
		{1, Template{Kind: TCQ, Shape: Hist, L: 12, K: 3}},  // LM wins
		{1, Template{Kind: TCQ, Shape: Slide, L: 12, K: 2}}, // LTM wins
	}
	prefix16 = Template{Kind: WCQ, Shape: Prefix, L: 16} // SM-h2 wins
	poolMix  = Mix{
		{3, Template{Kind: WCQ, Shape: Hist, L: 10}},
		{3, Template{Kind: WCQ, Shape: Prefix, L: 10}},
		{2, Template{Kind: ICQ, Shape: Hist, L: 10}},
		{1, topK[0].T},
		{1, topK[1].T},
	}
)

// Workloads returns the four benchmark workloads; why each exists is in
// BENCHMARK.json and ../README.md. scale divides every row count, the
// warm-up and the prefix (1 for the benchmark proper, 20 for -quick).
func Workloads(scale int) []Workload {
	ws := []Workload{
		{
			Spec: Spec{Name: "repeat-hot", Rows: 200_000, PoolSize: poolSize, PoolMix: poolMix, HotParts: 1},
			Data: Adult, EpsPrefix: 7 * poolSize, // whole decks: every pool workload counts equally
		},
		{
			Spec: Spec{Name: "scan-fresh", Rows: 1_600_000, FreshMix: topK, WarmFresh: 8},
			Data: NYTaxi, Mmap: true, EpsPrefix: 10, // five whole traffic mixes
		},
		{
			Spec: Spec{Name: "translate-fresh", Rows: 50_000, FreshMix: Mix{{1, prefix16}}, WarmFresh: 96},
			Data: Adult, EpsPrefix: 6,
		},
		{
			Spec: Spec{Name: "mixed", Rows: 200_000, PoolSize: poolSize, PoolMix: poolMix, HotParts: 16,
				FreshMix: Mix{topK[0], topK[1], {2, prefix16}}, WarmFresh: 160}, // 80% hot, 10% top-k, 10% prefix
			Data: Adult, EpsPrefix: 60, // three whole traffic mixes, and with them one whole deck
		},
	}
	for i := range ws {
		w := &ws[i]
		w.Rows /= scale
		w.WarmFresh /= scale
		w.EpsPrefix = max(1, w.EpsPrefix/scale)
		w.Domains, w.Cats = w.Data.attrs()
	}
	return ws
}

// WorkloadByName finds one of Workloads(scale).
func WorkloadByName(name string, scale int) (Workload, error) {
	for _, w := range Workloads(scale) {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("loadgen: unknown workload %q", name)
}
