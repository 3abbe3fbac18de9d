package loadgen

import (
	"maps"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/query"
	"repro/internal/workload"
)

const testSessions = 16

// hotShare is the share of w's requests that repeat a pool workload.
func hotShare(w Workload) float64 {
	return float64(w.HotParts) / float64(w.HotParts+len(w.FreshMix.slots()))
}

// render draws the warm-up and the first n requests of every session and
// renders them — session assignment included — as one string.
func render(w Workload, seed int64, n int) string {
	g := New(w.Spec, seed, testSessions)
	var sb strings.Builder
	line := func(r Request) {
		sb.WriteString(string(r.Class))
		sb.WriteByte(' ')
		sb.WriteString(strings.Repeat("s", r.Session+1))
		sb.WriteByte(' ')
		sb.WriteString(r.Query.Text())
		sb.WriteByte('\n')
	}
	for _, r := range g.Warmup() {
		line(r)
	}
	for s := 0; s < testSessions; s++ {
		st := g.Stream(s)
		for i := 0; i < n; i++ {
			line(st.Next())
		}
	}
	return sb.String()
}

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range Workloads(20) {
		a, b := render(w, 7, 40), render(w, 7, 40)
		if a != b {
			t.Errorf("%s: two generators with one seed produced different streams", w.Name)
		}
		if c := render(w, 8, 40); c == a {
			t.Errorf("%s: seeds 7 and 8 produced the same stream", w.Name)
		}
	}
}

// serverKey is the canonical workload key the server's caches would use
// for the request: parse the text as the server does and key the result.
func serverKey(t *testing.T, q *Query) string {
	t.Helper()
	parsed, err := query.ParseLine(q.Text())
	if err != nil || parsed == nil {
		t.Fatalf("generated query does not parse: %v\n%s", err, q.Text())
	}
	if got := string(parsed.Kind.String()); got != string(q.Kind) {
		t.Fatalf("query generated as %s parses as %s", q.Kind, got)
	}
	if len(parsed.Predicates) != len(q.Preds) {
		t.Fatalf("query with %d predicates parses to %d", len(q.Preds), len(parsed.Predicates))
	}
	if math.Abs(parsed.Req.Alpha-q.Alpha) > 0 || math.Abs(parsed.Req.Beta-q.Beta) > 1e-12 {
		t.Fatalf("accuracy (%v, %v) parses as (%v, %v)", q.Alpha, q.Beta, parsed.Req.Alpha, parsed.Req.Beta)
	}
	return workload.Key(parsed.Predicates)
}

func TestFreshNeverRepeatsACanonicalKey(t *testing.T) {
	for _, w := range Workloads(1) {
		g := New(w.Spec, 3, testSessions)
		pool := make(map[string]bool)
		for _, q := range g.Pool() {
			k := serverKey(t, q)
			if pool[k] {
				t.Errorf("%s: hot pool holds one workload twice", w.Name)
			}
			pool[k] = true
		}
		if len(pool) != w.PoolSize {
			t.Errorf("%s: pool has %d workloads, want %d", w.Name, len(pool), w.PoolSize)
		}
		seen := make(map[string]bool)
		var hot, fresh int
		check := func(r Request) {
			k := serverKey(t, r.Query)
			if r.Class == Hot {
				hot++
				if !pool[k] {
					t.Errorf("%s: hot request is not from the pool", w.Name)
				}
				return
			}
			fresh++
			if pool[k] || seen[k] {
				t.Errorf("%s: fresh request repeats a canonical key: %s", w.Name, r.Query.Text())
			}
			seen[k] = true
		}
		for _, r := range g.Warmup() {
			check(r)
		}
		hot = 0 // the warm-up's pool pass is not traffic
		for s := 0; s < testSessions; s++ {
			st := g.Stream(s)
			for i := 0; i < 250; i++ {
				r := st.Next()
				if r.Session != s || r.Seq != i {
					t.Fatalf("%s: session %d request %d labelled (%d, %d)", w.Name, s, i, r.Session, r.Seq)
				}
				check(r)
			}
		}
		if got := float64(hot) / float64(testSessions*250); math.Abs(got-hotShare(w)) > 0.03 {
			t.Errorf("%s: hot share %.3f, want %.2f", w.Name, got, hotShare(w))
		}
		if hotShare(w) < 1 && fresh == 0 {
			t.Errorf("%s: no fresh requests generated", w.Name)
		}
	}
}

func TestPredicatesStayInsideTheirDomain(t *testing.T) {
	for _, w := range Workloads(1) {
		dom := make(map[string]Domain)
		for _, d := range w.Domains {
			dom[d.Attr] = d
		}
		g := New(w.Spec, 11, testSessions)
		st := g.Stream(testSessions - 1) // the largest residue is the tightest fit
		for i := 0; i < 500; i++ {
			for _, p := range st.Next().Query.Preds {
				d := dom[p.Attr]
				if p.Lo < d.Min || p.Hi > d.Max || p.Lo >= p.Hi {
					t.Fatalf("%s: predicate [%v, %v) leaves %s's domain [%v, %v]", w.Name, p.Lo, p.Hi, p.Attr, d.Min, d.Max)
				}
			}
		}
	}
}

// eps_per_query is taken over each session's first EpsPrefix requests, and
// a prefix workload charges many times the ε of a histogram: the prefix
// must hold the same number of every kind of request whatever the seed.
func TestThePrefixHoldsTheSameRequestsUnderEverySeed(t *testing.T) {
	shape := func(q *Query) string { return string(q.Kind) + strconv.Itoa(len(q.Preds)) + strconv.Itoa(q.K) }
	for _, w := range Workloads(1) {
		var want map[string]int
		for seed := int64(1); seed <= 4; seed++ {
			g := New(w.Spec, seed, testSessions)
			for s := 0; s < testSessions; s++ {
				got := make(map[string]int)
				asked := make(map[*Query]int)
				st := g.Stream(s)
				for i := 0; i < w.EpsPrefix; i++ {
					r := st.Next()
					got[string(r.Class)+" "+shape(r.Query)]++
					if r.Class == Hot {
						asked[r.Query]++
					}
				}
				if want == nil {
					want = got
				}
				if !maps.Equal(got, want) {
					t.Fatalf("%s seed %d session %d: prefix holds %v, another holds %v", w.Name, seed, s, got, want)
				}
				for _, n := range asked {
					if decks := float64(w.EpsPrefix) * hotShare(w) / float64(w.PoolSize); float64(n) != decks {
						t.Fatalf("%s: a pool workload asked %d times in %v decks", w.Name, n, decks)
					}
				}
			}
		}
	}
}
