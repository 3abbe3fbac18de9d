package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/bench/loadgen"
	"repro/bench/oracle"
	"repro/bench/testproc"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/store"
)

const (
	datasetName = "d"
	// The tables are the system's state, not its input: they are generated
	// from this fixed seed, and --seed varies the requests alone. A run's
	// cost then differs between seeds only through the queries asked.
	dataSeed = 20190630

	sessionsPerClient = 8
	// No request may be denied: the budget is large enough that the
	// heaviest run charges a vanishing share of it.
	sessionBudget = 1e9

	readyTimeout    = 60 * time.Second
	shutdownTimeout = 30 * time.Second
)

// runner holds what one invocation shares across server lifetimes: the
// built binary, the generated dataset and its oracle.
type runner struct {
	root string // repository checkout
	work string // this invocation's scratch directory
	bin  string // the built apex-server

	wl      loadgen.Workload
	seed    int64
	seconds float64
	clients int
	// mmapThreshold overrides the server's default when > 0 (-quick scales
	// it with the row counts so the same storage path is exercised).
	mmapThreshold int64

	csvPath, schemaPath string
	csvBytes            int64
	truth               *oracle.Table
	buildS, datagenS    float64

	live []*testproc.Proc // every process started, for cleanup
	dirs int
}

func (r *runner) sessions() int { return r.clients * sessionsPerClient }

// cleanup stops whatever is still running and removes the scratch directory.
func (r *runner) cleanup() {
	for _, p := range r.live {
		p.Kill()
	}
	os.RemoveAll(r.work)
}

// prepareData generates the workload's table, writes it as the CSV and
// schema files the server loads, and parses the CSV back into the oracle.
func (r *runner) prepareData() error {
	start := time.Now()
	r.csvPath = filepath.Join(r.work, "data.csv")
	r.schemaPath = filepath.Join(r.work, "data.schema")
	f, err := os.Create(r.csvPath)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := r.wl.Data.WriteCSV(w, r.wl.Rows, dataSeed); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.WriteFile(r.schemaPath, []byte(r.wl.Data.SchemaText()), 0o644); err != nil {
		return err
	}
	r.datagenS = time.Since(start).Seconds()
	st, err := os.Stat(r.csvPath)
	if err != nil {
		return err
	}
	r.csvBytes = st.Size()

	in, err := os.Open(r.csvPath)
	if err != nil {
		return err
	}
	defer in.Close()
	var nums, cats []string
	for _, d := range r.wl.Domains {
		nums = append(nums, d.Attr)
	}
	for _, c := range r.wl.Cats {
		cats = append(cats, c.Attr)
	}
	r.truth, err = oracle.Load(bufio.NewReaderSize(in, 1<<20), nums, cats)
	if err != nil {
		return err
	}
	if r.truth.Rows() != r.wl.Rows {
		return fmt.Errorf("oracle parsed %d rows of %d", r.truth.Rows(), r.wl.Rows)
	}
	return nil
}

// instance is one running apex-server.
type instance struct {
	proc *testproc.Proc
	base string
	dir  string
}

// start launches a durable server on dir — shipped default flags apart
// from the data directory, fixed seeds and extra — and waits until
// /v1/readyz answers 200. It returns the time from exec to ready.
func (r *runner) start(dir string, extra []string) (*instance, time.Duration, error) {
	addr, err := testproc.FreeAddr()
	if err != nil {
		return nil, 0, err
	}
	args := []string{
		"-listen", addr, "-data-dir", dir, "-allow-seeds",
		"-dataset", datasetName + "=" + r.csvPath + "," + r.schemaPath,
	}
	if r.mmapThreshold > 0 {
		args = append(args, "-mmap-threshold", strconv.FormatInt(r.mmapThreshold, 10))
	}
	proc, err := testproc.Start(r.bin, append(args, extra...)...)
	if err != nil {
		return nil, 0, err
	}
	r.live = append(r.live, proc)
	in := &instance{proc: proc, base: "http://" + addr, dir: dir}
	ready, err := proc.WaitReady(in.base+"/v1/readyz", readyTimeout)
	if err != nil {
		return nil, 0, err
	}
	return in, ready, nil
}

// sample is one request as the load client saw it.
type sample struct {
	req    loadgen.Request
	warm   bool // asked during set-up, outside the window
	lat    time.Duration
	resp   *server.QueryResponse // nil when the request failed
	err    error
	encode time.Duration // traced runs: request encoding
	decode time.Duration // traced runs: reply decoding
	reqB   int64
	respB  int64
}

func (s *sample) ok() bool { return s.err == nil && s.resp != nil && !s.resp.Denied }

// loadClient is one closed-loop client: one HTTP connection, one request
// in flight, walking its own sessions round-robin.
type loadClient struct {
	api  *client.Client
	span *spanTransport // nil unless the run is traced
	mine []int          // session indexes this client owns
}

func (r *runner) newClients(base string, traced bool) []*loadClient {
	cs := make([]*loadClient, r.clients)
	for c := range cs {
		var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 1}
		lc := &loadClient{}
		if traced {
			lc.span = &spanTransport{base: rt}
			rt = lc.span
		}
		lc.api = client.New(base)
		lc.api.HTTPClient = &http.Client{Transport: rt, Timeout: time.Minute}
		for s := c * sessionsPerClient; s < (c+1)*sessionsPerClient; s++ {
			lc.mine = append(lc.mine, s)
		}
		cs[c] = lc
	}
	return cs
}

// ask sends one request and records how it went.
func (lc *loadClient) ask(id string, req loadgen.Request) sample {
	text := req.Query.Text()
	start := time.Now()
	resp, err := lc.api.Query(id, text)
	end := time.Now()
	s := sample{req: req, lat: end.Sub(start), err: err}
	if err == nil {
		s.resp = resp
	}
	if lc.span != nil && err == nil {
		s.encode = lc.span.sent.Sub(start)
		s.decode = end.Sub(lc.span.bodyDone)
		s.reqB, s.respB = lc.span.reqBytes, lc.span.respBytes
	}
	return s
}

// life is everything measured over one server lifetime.
type life struct {
	setupS    []float64
	recoverS  []float64 // crash recoveries of the warm state, from the extra set-ups
	samples   []sample  // warm-up first, then the window
	windowS   float64
	cpuS      float64 // server CPU spent inside the window
	peakRSS   int64
	shutdownS float64
	// The crash after the window: how long the restart took, over how
	// many transcript entries.
	recoverAfterS float64
	entries       int

	dir string // traced runs: the stopped server's data directory, kept for the layer replay

	phases                          snapshot // /metrics growth over the window (traced runs)
	segBytes, sidecarBytes, walGrow int64
	dirBytes                        int64

	prefix    prefix   // the window's deterministic part
	attempted int      // window requests sent
	answered  int      // ... and answered
	failed    int      // ... and failed, for any reason
	problems  []string // failed correctness checks
	tallies   map[loadgen.Kind]*oracle.Tally
}

func (l *life) problemf(format string, args ...any) {
	if len(l.problems) < 20 {
		l.problems = append(l.problems, fmt.Sprintf(format, args...))
	}
}

type lifeOpts struct {
	traced bool // record client spans and scrape /metrics around the window
	// extraSetups servers are set up, crashed and recovered before the one
	// that is measured: set-up and recovery are one-shot times, so they
	// are repeated and their medians reported.
	extraSetups int
	durability  bool     // kill -9 after the window and check what comes back
	flags       []string // extra server flags
}

// recoveriesPerSetup is how often each extra set-up is crashed and
// recovered. The state recovered is the warm one — table, translation
// sidecar, sessions and their warm-up transcripts — which is the same in
// every run; the state after the window is not, because a faster server
// leaves a longer log.
const recoveriesPerSetup = 5

// setUp brings a server from exec to warm: CSV ingested into its segment,
// ready, sessions created, warm-up asked. It returns the elapsed time and
// the warm-up's samples.
func (r *runner) setUp(gen *loadgen.Gen, o lifeOpts) (*instance, []string, []sample, float64, error) {
	r.dirs++
	dir := filepath.Join(r.work, "data-"+strconv.Itoa(r.dirs))
	in, _, err := r.start(dir, o.flags)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	api := client.New(in.base)
	info, err := api.Dataset(datasetName)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	if info.Rows != r.wl.Rows {
		return nil, nil, nil, 0, fmt.Errorf("server ingested %d rows of %d", info.Rows, r.wl.Rows)
	}
	want := "heap"
	if r.wl.Mmap {
		want = "mmap"
	}
	if info.Storage != want {
		return nil, nil, nil, 0, fmt.Errorf("%s must be served from %s, server reports %q", r.wl.Name, want, info.Storage)
	}
	ids := make([]string, r.sessions())
	for s := range ids {
		sess, err := api.CreateSession(server.CreateSessionRequest{
			Dataset: datasetName, Budget: sessionBudget, Seed: r.seed*1000 + int64(s) + 1,
		})
		if err != nil {
			return nil, nil, nil, 0, fmt.Errorf("create session %d: %w", s, err)
		}
		ids[s] = sess.ID
	}

	// Each client warms its own sessions, in the warm-up's order.
	perClient := make([][]loadgen.Request, r.clients)
	for _, req := range gen.Warmup() {
		c := req.Session / sessionsPerClient
		perClient[c] = append(perClient[c], req)
	}
	warm := eachClient(r.newClients(in.base, false), func(c int, lc *loadClient) []sample {
		var out []sample
		for _, req := range perClient[c] {
			s := lc.ask(ids[req.Session], req)
			s.warm = true
			out = append(out, s)
		}
		return out
	})
	return in, ids, warm, time.Since(in.proc.Started()).Seconds(), nil
}

// eachClient runs fn for every client at once and returns their samples,
// client by client, once all have finished.
func eachClient(clients []*loadClient, fn func(c int, lc *loadClient) []sample) []sample {
	out := make([][]sample, len(clients))
	var wg sync.WaitGroup
	for c, lc := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[c] = fn(c, lc)
		}()
	}
	wg.Wait()
	var all []sample
	for _, o := range out {
		all = append(all, o...)
	}
	return all
}

// window runs the closed loop for r.seconds — and on until every session
// has asked its EpsPrefix requests, which matters only on a machine less
// than half as fast as the reference box — and returns the samples and the
// measured length: from the common start to the last reply. A client whose
// request failed does not stay past the deadline: the run has failed, and
// the failure may be a server that answers nothing in time.
func (r *runner) window(in *instance, ids []string, gen *loadgen.Gen, o lifeOpts) ([]sample, float64) {
	streams := make([]*loadgen.Stream, len(ids))
	for s := range streams {
		streams[s] = gen.Stream(s)
	}
	start := time.Now()
	deadline := start.Add(time.Duration(r.seconds * float64(time.Second)))
	all := eachClient(r.newClients(in.base, o.traced), func(_ int, lc *loadClient) []sample {
		var out []sample
		prefix, failed := r.wl.EpsPrefix*len(lc.mine), false
		for i := 0; time.Now().Before(deadline) || (i < prefix && !failed); i++ {
			s := lc.mine[i%len(lc.mine)]
			out = append(out, lc.ask(ids[s], streams[s].Next()))
			failed = failed || !out[i].ok()
		}
		return out
	})
	return all, time.Since(start).Seconds()
}

// lifecycle runs one measured server lifetime: set-up (possibly several
// times), the window, the correctness checks, the crash and recovery, and
// a graceful shutdown.
func (r *runner) lifecycle(o lifeOpts) (*life, error) {
	gen := loadgen.New(r.wl.Spec, r.seed, r.sessions())
	l := &life{tallies: make(map[loadgen.Kind]*oracle.Tally)}
	var in *instance
	var ids []string
	for i := 0; i <= o.extraSetups; i++ {
		var elapsed float64
		var err error
		if in, ids, l.samples, elapsed, err = r.setUp(gen, o); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		l.setupS = append(l.setupS, elapsed)
		if i == o.extraSetups {
			break // this one is measured
		}
		scripts, _ := r.checkTranscripts(l, in, ids)
		for j := 0; j < recoveriesPerSetup; j++ {
			took, err := r.crash(l, &in, ids, scripts, o.flags)
			if err != nil {
				return nil, err
			}
			l.recoverS = append(l.recoverS, took)
		}
		in.proc.Kill()
		os.RemoveAll(in.dir)
	}

	catalog := filepath.Join(in.dir, "catalog", datasetName)
	walBefore := dirSize(filepath.Join(in.dir, "sessions"))
	var before snapshot
	var err error
	if o.traced {
		if before, err = scrape(in.base); err != nil {
			return nil, err
		}
	}
	use0, err := in.proc.Sample()
	if err != nil {
		return nil, err
	}
	win, windowS := r.window(in, ids, gen, o)
	use1, err := in.proc.Sample()
	if err != nil {
		return nil, err
	}
	if o.traced {
		after, err := scrape(in.base)
		if err != nil {
			return nil, err
		}
		l.phases = delta(before, after)
	}
	l.samples = append(l.samples, win...)
	l.windowS = windowS
	l.cpuS = (use1.CPU - use0.CPU).Seconds()
	l.peakRSS = use1.PeakBytes
	l.walGrow = dirSize(filepath.Join(in.dir, "sessions")) - walBefore
	l.segBytes = fileSize(filepath.Join(catalog, store.SegmentFile))
	l.sidecarBytes = fileSize(filepath.Join(catalog, store.TranslateSidecarFile))

	r.checkAnswers(l)
	l.prefix = r.prefixOf(l)
	if l.prefix.short > 0 {
		l.problemf("%d of %d sessions have fewer than %d answers: eps_per_query is not taken over the frozen prefix", l.prefix.short, len(ids), r.wl.EpsPrefix)
	}
	scripts, entries := r.checkTranscripts(l, in, ids)
	l.entries = entries
	if len(win) == 0 {
		return nil, fmt.Errorf("no request completed inside the %.0f s window", r.seconds)
	}

	if o.durability {
		if l.recoverAfterS, err = r.crash(l, &in, ids, scripts, o.flags); err != nil {
			return nil, err
		}
	}
	l.dirBytes = dirSize(in.dir)
	took, err := in.proc.Terminate(shutdownTimeout)
	if err != nil {
		return nil, err
	}
	l.shutdownS = took.Seconds()
	if o.traced {
		l.dir = in.dir
	} else {
		os.RemoveAll(in.dir)
	}
	return l, nil
}

// crash kills the server the way a power cut would, restarts it on the
// same data directory and checks that every session's transcript comes
// back byte for byte: each acknowledged answer was fsynced before its
// reply was written, so none may be missing. It returns the time from
// exec to ready and replaces *in with the new instance.
func (r *runner) crash(l *life, in **instance, ids []string, scripts [][]byte, flags []string) (float64, error) {
	(*in).proc.Kill()
	re, ready, err := r.start((*in).dir, flags)
	if err != nil {
		return 0, fmt.Errorf("restart after kill -9: %w", err)
	}
	*in = re
	for s, id := range ids {
		raw, err := getRaw(re.base + "/v1/sessions/" + id + "/transcript")
		if err != nil {
			l.problemf("session %d after kill -9: %v", s, err)
			continue
		}
		if string(raw) != string(scripts[s]) {
			l.problemf("session %d: transcript after kill -9 differs from the one served before it (%d vs %d bytes)", s, len(raw), len(scripts[s]))
		}
	}
	return ready.Seconds(), nil
}

// checkAnswers checks every reply's shape and ε accounting, and tallies
// its realised error against the oracle's exact counts.
func (r *runner) checkAnswers(l *life) {
	truths := make(map[*loadgen.Query][]float64) // hot queries are shared pointers
	for i := range l.samples {
		s := &l.samples[i]
		if !s.warm {
			l.attempted++
			if s.ok() {
				l.answered++
			}
		}
		fail := func(format string, args ...any) {
			if !s.warm {
				l.failed++
			}
			l.problemf("session %d request %d: "+format, append([]any{s.req.Session, s.req.Seq}, args...)...)
		}
		switch {
		case s.err != nil:
			fail("%v", s.err)
			continue
		case s.resp.Denied:
			fail("denied: %s", s.resp.Reason)
			continue
		}
		q := s.req.Query
		ans := oracle.Answer{Counts: s.resp.Counts, Selected: s.resp.Selected}
		if err := oracle.CheckShape(q, ans); err != nil {
			fail("%v", err)
			continue
		}
		if s.resp.Mechanism == "" || len(s.resp.Predicates) != len(q.Preds) ||
			!(s.resp.Epsilon > 0) || s.resp.Epsilon > s.resp.EpsilonUpper*(1+1e-9) {
			fail("malformed reply: mechanism %q, %d predicates, ε %v of at most %v",
				s.resp.Mechanism, len(s.resp.Predicates), s.resp.Epsilon, s.resp.EpsilonUpper)
			continue
		}
		truth, ok := truths[q]
		if !ok {
			var err error
			if truth, err = r.truth.Truth(q); err != nil {
				fail("oracle: %v", err)
				continue
			}
			truths[q] = truth
		}
		t := l.tallies[q.Kind]
		if t == nil {
			t = &oracle.Tally{}
			l.tallies[q.Kind] = t
		}
		t.Add(oracle.Error(q, truth, ans), q.Alpha)
	}
	for kind, t := range l.tallies {
		if !t.Holds(loadgen.Beta) {
			l.problemf("(α, β) contract broken for %s: %d of %d answers missed α, bound %.4f",
				kind, t.Misses, t.Answers, oracle.MissBound(loadgen.Beta, t.Answers))
		}
	}
}

// checkTranscripts fetches every session's transcript and checks it
// against Definition 6.1 and against what the clients were told: valid,
// Σε = spent ≤ B, and one entry per acknowledged answer. It returns the
// raw bodies for the byte comparison after a crash, and the total number
// of entries.
func (r *runner) checkTranscripts(l *life, in *instance, ids []string) (raws [][]byte, entries int) {
	acked := make([]int, len(ids))
	clean := make([]bool, len(ids))
	for s := range clean {
		clean[s] = true
	}
	lastSpent := make([]float64, len(ids))
	for i := range l.samples {
		s := &l.samples[i]
		if s.ok() {
			acked[s.req.Session]++
			lastSpent[s.req.Session] = s.resp.Spent // samples of one session are in order
		} else {
			clean[s.req.Session] = false
		}
	}
	raws = make([][]byte, len(ids))
	for s, id := range ids {
		raw, err := getRaw(in.base + "/v1/sessions/" + id + "/transcript")
		if err != nil {
			l.problemf("session %d transcript: %v", s, err)
			continue
		}
		raws[s] = raw
		var tr server.TranscriptResponse
		if err := json.Unmarshal(raw, &tr); err != nil {
			l.problemf("session %d transcript: %v", s, err)
			continue
		}
		var sum float64
		for _, e := range tr.Entries {
			sum += e.Epsilon
		}
		entries += len(tr.Entries)
		switch {
		case !tr.Valid:
			l.problemf("session %d: transcript invalid: %s", s, tr.Invalid)
		case !near(sum, tr.Spent) || tr.Spent > tr.Budget:
			l.problemf("session %d: Σε = %v, spent = %v, B = %v", s, sum, tr.Spent, tr.Budget)
		case clean[s] && len(tr.Entries) != acked[s]:
			l.problemf("session %d: %d transcript entries for %d acknowledged answers", s, len(tr.Entries), acked[s])
		case clean[s] && acked[s] > 0 && !near(tr.Spent, lastSpent[s]):
			l.problemf("session %d: transcript spent %v, last reply said %v", s, tr.Spent, lastSpent[s])
		}
	}
	return raws, entries
}

// near allows for summing the same ε values in a different order.
func near(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*max(1, a, b)
}

func getRaw(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, body)
	}
	return body, nil
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0 // e.g. no sidecar before the first translation
	}
	return st.Size()
}

func dirSize(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil // a file that vanished mid-walk (a temp file) is not counted
	})
	return n
}
