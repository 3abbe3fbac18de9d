// Package loadgen generates apex-load's request streams. Everything is a
// pure function of (workload, seed, session count): each session owns a
// deterministic query sequence, so the noise a seeded session draws — and
// with it every ε — repeats exactly from run to run no matter how the
// clients interleave. The server only ever sees the generated query text.
//
// A workload mixes two classes of request:
//
//   - hot: dealt from a small pool of workloads generated once per seed,
//     each session walking its own reshuffled deck of the pool. The pool
//     fits the server's 256-entry transformation and translation caches
//     and is pre-asked in set-up, so hot requests hit both.
//   - fresh: a workload whose canonical key has never been seen in the
//     run. Fresh keys are minted by shifting the bin origin on a 2⁻³ grid;
//     each session (and the pool, and the warm-up) owns a residue class of
//     origins, so streams generated independently never collide.
package loadgen

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// Kind is the exploration query type.
type Kind string

// The paper's three query kinds.
const (
	WCQ Kind = "WCQ"
	ICQ Kind = "ICQ"
	TCQ Kind = "TCQ"
)

// Pred is one workload predicate: Attr ∈ [Lo, Hi), optionally conjoined
// with the categorical equality Cat = 'Val'.
type Pred struct {
	Attr   string
	Lo, Hi float64
	Cat    string
	Val    string
}

// Query is one generated exploration query.
type Query struct {
	Kind      Kind
	Preds     []Pred
	Threshold float64 // ICQ: HAVING COUNT(*) > Threshold
	K         int     // TCQ: LIMIT K
	Alpha     float64
	Beta      float64
}

// Class says which cache regime a request was built to exercise.
type Class string

// Request classes.
const (
	Hot   Class = "hot"
	Fresh Class = "fresh"
)

// Request is one query addressed to one session.
type Request struct {
	Session int // index into the run's session list
	Seq     int // position in the session's stream, from 0
	Class   Class
	Query   *Query
}

func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

func (p Pred) text() string {
	s := p.Attr + " BETWEEN " + num(p.Lo) + " AND " + num(p.Hi)
	if p.Cat != "" {
		s = p.Cat + " = '" + p.Val + "' AND " + s
	}
	return s
}

// Key identifies the query's workload the way the server's caches do: by
// its predicates alone, not by kind or accuracy.
func (q *Query) Key() string {
	var sb strings.Builder
	for _, p := range q.Preds {
		sb.WriteString(p.text())
		sb.WriteByte(0)
	}
	return sb.String()
}

// Text renders the query in the paper's declarative syntax.
func (q *Query) Text() string {
	var sb strings.Builder
	sb.WriteString("BIN D ON COUNT(*) WHERE W = { ")
	for i, p := range q.Preds {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(p.text())
	}
	sb.WriteString(" }")
	switch q.Kind {
	case ICQ:
		sb.WriteString(" HAVING COUNT(*) > " + num(q.Threshold))
	case TCQ:
		sb.WriteString(" ORDER BY COUNT(*) LIMIT " + strconv.Itoa(q.K))
	}
	sb.WriteString(" ERROR " + num(q.Alpha) + " CONFIDENCE " + num(1-q.Beta) + ";")
	return sb.String()
}

// Domain is a continuous attribute the generators may bin.
type Domain struct {
	Attr     string
	Min, Max float64
}

// Category is a categorical attribute the generators may filter on.
type Category struct {
	Attr   string
	Values []string
}

// Shape is a family of workloads over one continuous attribute.
type Shape int

// Workload shapes.
const (
	// Hist is L disjoint consecutive bins: sensitivity 1, so the Laplace
	// mechanism wins and no Monte-Carlo translation is needed to beat it.
	Hist Shape = iota
	// Prefix is L nested ranges sharing their lower edge: sensitivity L,
	// so the H2 strategy mechanism wins and translation dominates.
	Prefix
	// Slide is L overlapping windows, each slideSpan steps wide:
	// sensitivity slideSpan > K, so the top-k mechanism LTM beats LM.
	Slide
)

const slideSpan = 4

// grid is the 2⁻³ lattice fresh origins and widths live on. Dyadic
// rationals are exact in float64 and render exactly, so a generated
// constant survives the text round trip bit for bit.
const grid = 8

// Template is one kind of query a workload asks.
type Template struct {
	Kind  Kind
	Shape Shape
	L     int
	K     int // TCQ only
}

// Mix is a choice of templates in whole-number parts: {3, a}, {1, b} is
// three of a to one of b.
type Mix []struct {
	Parts int
	T     Template
}

// slots lays the mix out as one template per part.
func (mix Mix) slots() []Template {
	var out []Template
	for _, e := range mix {
		for i := 0; i < e.Parts; i++ {
			out = append(out, e.T)
		}
	}
	return out
}

// Spec describes one benchmark workload's traffic.
type Spec struct {
	Name string
	// Rows is the dataset size; Alpha is 0.02·Rows as in the paper.
	Rows    int
	Domains []Domain
	Cats    []Category
	// PoolSize hot workloads are generated from PoolMix. Traffic is
	// HotParts hot requests to every FreshMix of fresh ones.
	PoolSize int
	PoolMix  Mix
	HotParts int
	FreshMix Mix
	// WarmFresh fresh requests (from FreshMix) are asked during set-up so
	// the window starts with the caches partly filled.
	WarmFresh int
}

// Accuracy of every generated query: the paper's α = 0.02·|D|, β = 0.05.
const (
	AlphaShare = 0.02
	Beta       = 0.05
)

// Gen generates one run's requests.
type Gen struct {
	spec     Spec
	seed     int64
	sessions int
	pool     []*Query
}

// New builds the generator for spec under seed with the given number of
// sessions. The hot pool is drawn here.
func New(spec Spec, seed int64, sessions int) *Gen {
	g := &Gen{spec: spec, seed: seed, sessions: sessions}
	// The pool holds each template in its share, the same number of each
	// whatever the seed: a strategy-mechanism workload costs four times
	// the ε of a Laplace one, so a pool that drew one more of them would
	// cost 4% more per query for that alone.
	m := g.minter("pool", sessions)
	if slots := spec.PoolMix.slots(); len(slots) > 0 {
		for i := 0; i < spec.PoolSize; i++ {
			g.pool = append(g.pool, m.mint(slots[i*len(slots)/spec.PoolSize]))
		}
	}
	return g
}

// quasi is a Kronecker sequence x, x+step, x+2·step, ... modulo 1 with an
// irrational step. Unlike independent draws its terms fall in every
// subinterval of [0, 1) in proportion over any run of consecutive terms,
// so the attributes binned and filtered on keep their shares within each
// window, not just in expectation — which keeps the cost of a run from
// depending on how lucky its seed was.
type quasi struct{ x, step float64 }

func (q *quasi) next() float64 {
	q.x += q.step
	q.x -= math.Floor(q.x)
	return q.x
}

// Steps whose multiples stay apart from one another: the fractional parts
// of √3 and π, for the attribute a workload bins and whether it filters on
// a category.
const (
	attrStep = 0.7320508075688772
	catStep  = 0.14159265358979312
)

// Pool returns the hot workloads, to be pre-asked in set-up.
func (g *Gen) Pool() []*Query { return g.pool }

// Warmup returns the set-up requests: every pool workload once, then
// WarmFresh fresh ones, dealt round-robin over the sessions. Like the
// streams it is a pure function of the seed, so the noise the warm-up
// consumes from each session is the same in every run.
func (g *Gen) Warmup() []Request {
	var qs []*Query
	qs = append(qs, g.pool...)
	m := g.minter("warm", g.sessions+1)
	slots := g.spec.FreshMix.slots()
	for i := 0; i < g.spec.WarmFresh; i++ {
		qs = append(qs, m.mint(slots[i%len(slots)]))
	}
	out := make([]Request, len(qs))
	for i, q := range qs {
		class := Fresh
		if i < len(g.pool) {
			class = Hot
		}
		out[i] = Request{Session: i % g.sessions, Seq: i / g.sessions, Class: class, Query: q}
	}
	return out
}

// Stream is one session's request sequence. It is not safe for concurrent
// use; each session is walked by exactly one client.
type Stream struct {
	g       *Gen
	session int
	seq     int
	rng     *rand.Rand
	traffic []*Template // what is left of the traffic mix before it repeats; nil is a hot request
	deck    []*Query    // hot workloads still to deal before the next shuffle
	m       *minter
}

// Stream returns session s's sequence.
func (g *Gen) Stream(s int) *Stream {
	rng := rand.New(rand.NewSource(subSeed(g.seed, g.spec.Name, "stream", s)))
	return &Stream{g: g, session: s, rng: rng, m: g.minter("fresh", s)}
}

// Next returns the session's next request. The traffic mix is walked in
// a shuffled order and reshuffled each time it has been asked once, so
// any stretch of whole mixes — the prefix eps_per_query is taken over —
// holds exactly its share of every kind of request: on mixed one fresh
// 16-predicate prefix workload charges eight times the mean ε, and one
// more of them in 640 requests shows.
func (st *Stream) Next() Request {
	r := Request{Session: st.session, Seq: st.seq}
	st.seq++
	if len(st.traffic) == 0 {
		fresh := st.g.spec.FreshMix.slots()
		st.traffic = make([]*Template, st.g.spec.HotParts)
		for i := range fresh {
			st.traffic = append(st.traffic, &fresh[i])
		}
		st.rng.Shuffle(len(st.traffic), func(i, j int) { st.traffic[i], st.traffic[j] = st.traffic[j], st.traffic[i] })
	}
	t := st.traffic[len(st.traffic)-1]
	st.traffic = st.traffic[:len(st.traffic)-1]
	if t == nil {
		r.Class = Hot
		r.Query = st.deal()
		return r
	}
	r.Class = Fresh
	r.Query = st.m.mint(*t)
	return r
}

// deal returns the session's next hot workload: the pool in a shuffled
// order, reshuffled each time it runs out. Every pool workload is then
// asked equally often — uniform, as independent draws would be, without
// the luck of which workloads a seed happened to favour.
func (st *Stream) deal() *Query {
	if len(st.deck) == 0 {
		st.deck = append(st.deck, st.g.pool...)
		st.rng.Shuffle(len(st.deck), func(i, j int) { st.deck[i], st.deck[j] = st.deck[j], st.deck[i] })
	}
	q := st.deck[len(st.deck)-1]
	st.deck = st.deck[:len(st.deck)-1]
	return q
}

// minter mints workloads whose keys are unique within the run: it owns
// origin residue class `residue` modulo sessions+2 (one class per session,
// one for the pool, one for the warm-up) and remembers what it minted.
type minter struct {
	g         *Gen
	rng       *rand.Rand
	attr, cat quasi
	residue   int
	seen      map[string]bool
}

func (g *Gen) minter(role string, residue int) *minter {
	rng := rand.New(rand.NewSource(subSeed(g.seed, g.spec.Name, role, residue)))
	return &minter{
		g:       g,
		rng:     rng,
		attr:    quasi{x: rng.Float64(), step: attrStep},
		cat:     quasi{x: rng.Float64(), step: catStep},
		residue: residue,
		seen:    make(map[string]bool),
	}
}

// mint mints a workload of template t that this minter has not minted yet.
func (m *minter) mint(t Template) *Query {
	for {
		q := m.draw(t)
		if k := q.Key(); !m.seen[k] {
			m.seen[k] = true
			return q
		}
	}
}

// draw builds one workload from template t: an attribute, a step width
// and an origin on the grid (the origin in this minter's residue class),
// and for every third workload a categorical filter shared by every bin.
func (m *minter) draw(t Template) *Query {
	spec := &m.g.spec
	steps := t.L // grid steps the workload spans, in units of its width
	if t.Shape == Slide {
		steps = t.L - 1 + slideSpan
	}
	classes := m.g.sessions + 2
	var d Domain
	var w, slack int
	for {
		d = spec.Domains[int(m.attr.next()*float64(len(spec.Domains)))]
		span := int((d.Max - d.Min) * grid)
		// Widest step (in grid units) leaving a step of slack for origins.
		wMax := span / (steps + 1)
		if wMax < 2 {
			continue
		}
		w = wMax/2 + m.rng.Intn(wMax-wMax/2+1)
		// Origin offsets 0..slack keep every bin inside the domain; the
		// minter's residue must be among them.
		if slack = span - steps*w; slack >= m.residue {
			break
		}
	}
	o := m.residue + classes*m.rng.Intn((slack-m.residue)/classes+1)
	origin := d.Min + float64(o)/grid
	width := float64(w) / grid

	q := &Query{
		Kind:  t.Kind,
		K:     t.K,
		Alpha: math.Round(AlphaShare * float64(spec.Rows)),
		Beta:  Beta,
		Preds: make([]Pred, t.L),
	}
	var cat, val string
	if len(spec.Cats) > 0 && m.cat.next() < 1.0/3 {
		c := spec.Cats[m.rng.Intn(len(spec.Cats))]
		cat, val = c.Attr, c.Values[m.rng.Intn(len(c.Values))]
	}
	for i := range q.Preds {
		lo, hi := origin+float64(i)*width, origin+float64(i+1)*width
		switch t.Shape {
		case Prefix:
			lo = origin
		case Slide:
			hi = origin + float64(i+slideSpan)*width
		}
		q.Preds[i] = Pred{Attr: d.Attr, Lo: lo, Hi: hi, Cat: cat, Val: val}
	}
	if t.Kind == ICQ {
		// A threshold a few bins clear and a few do not.
		q.Threshold = math.Round(float64(spec.Rows) * []float64{0.02, 0.05, 0.1}[m.rng.Intn(3)])
	}
	return q
}

func subSeed(seed int64, workload, role string, n int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "apex-load/v1\x00%d\x00%s\x00%s\x00%d", seed, workload, role, n)
	return int64(h.Sum64())
}
