package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/bench/loadgen"
)

// windowSamples returns the answered requests of the window.
func (l *life) windowSamples() []*sample {
	var out []*sample
	for i := range l.samples {
		if s := &l.samples[i]; !s.warm && s.ok() {
			out = append(out, s)
		}
	}
	return out
}

func latencies(ss []*sample, class loadgen.Class) []time.Duration {
	var out []time.Duration
	for _, s := range ss {
		if class == "" || s.req.Class == class {
			out = append(out, s.lat)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// prefix is the deterministic part of a window: the first EpsPrefix
// answers of every session. How far a session gets in a fixed time varies
// from run to run, its first requests and the noise they draw do not, so
// sums over the prefix repeat exactly under one seed. The window stays
// open until every session has asked that many, so only a failed request
// can leave a prefix short — and a short prefix fails the run, because its
// mean would be taken over different queries.
type prefix struct {
	n          int
	eps        float64
	mechanisms map[string]int
	short      int // sessions with fewer than EpsPrefix answers
}

func (r *runner) prefixOf(l *life) prefix {
	per, sessions := r.wl.EpsPrefix, r.sessions()
	p := prefix{mechanisms: make(map[string]int)}
	// Sum session by session, in request order, so the floating-point sum
	// does not depend on how the clients interleaved.
	bySession := make([][]*sample, sessions)
	for _, s := range l.windowSamples() {
		bySession[s.req.Session] = append(bySession[s.req.Session], s)
	}
	for _, ss := range bySession {
		if len(ss) < per {
			p.short++
		}
		for _, s := range ss[:min(per, len(ss))] {
			p.n++
			p.eps += s.resp.Epsilon
			p.mechanisms[s.resp.Mechanism]++
		}
	}
	return p
}

// digest renders the prefix exactly, for comparing two runs of one seed.
func (p prefix) digest() string {
	names := make([]string, 0, len(p.mechanisms))
	for m := range p.mechanisms {
		names = append(names, m)
	}
	sort.Strings(names)
	var sb strings.Builder
	fmt.Fprintf(&sb, "n=%d eps=%x", p.n, p.eps)
	for _, m := range names {
		fmt.Fprintf(&sb, " %s=%d", m, p.mechanisms[m])
	}
	return sb.String()
}

// endToEndMetrics derives the user-visible metrics of one server lifetime.
func (r *runner) endToEndMetrics(l *life) values {
	ss := l.windowSamples()
	lat := latencies(ss, "")
	p := l.prefix
	return values{
		"throughput_qps":   ratio(float64(len(ss)), l.windowS),
		"latency_p50_ms":   ms(quantile(lat, 0.50)),
		"latency_p95_ms":   ms(quantile(lat, 0.95)),
		"cpu_ms_per_query": ratio(l.cpuS*1e3, float64(len(ss))),
		"rss_peak_mb":      float64(l.peakRSS) / (1 << 20),
		"eps_per_query":    ratio(p.eps, float64(p.n)),
		"setup_s":          median(l.setupS),
		"recover_s":        median(l.recoverS),
	}
}

// layerMetrics derives the per-layer metrics from the traced lifetime tr:
// client-side spans, the server's own phase histograms differenced over
// the window, and file sizes. ref is the untraced lifetime of the same
// seed, planes (repeat-hot only, else nil) the one with tracing and
// analytics switched off in the server.
func (r *runner) layerMetrics(ref, tr, planes *life, rp *replayResult) values {
	v := values{}
	ss := tr.windowSamples()
	n := float64(len(ss))
	var lat, enc, dec time.Duration
	var reqB, respB int64
	for _, s := range ss {
		lat += s.lat
		enc += s.encode
		dec += s.decode
		reqB += s.reqB
		respB += s.respB
	}
	all := latencies(ss, "")
	v["client.encode_us_mean"] = ratio(us(enc), n)
	v["client.decode_us_mean"] = ratio(us(dec), n)
	v["client.latency_p99_ms"] = ms(quantile(all, 0.99))
	v["client.hot_p95_ms"] = ms(quantile(latencies(ss, loadgen.Hot), 0.95))
	v["client.fresh_p95_ms"] = ms(quantile(latencies(ss, loadgen.Fresh), 0.95))
	v["client.failed_share"] = ratio(float64(tr.failed), float64(tr.attempted))
	v["server.request_bytes_mean"] = ratio(float64(reqB), n)
	v["server.response_bytes_mean"] = ratio(float64(respB), n)
	v["server.shutdown_s"] = tr.shutdownS

	// The server's phase histograms, in milliseconds summed over the
	// window. queue spans the wait from admission to dispatch and so
	// contains translate_warm; prepare contains translate; commit
	// contains wal_flush.
	d := tr.phases
	phase := func(name string) float64 { return d.phaseSum(name) * 1e3 }
	total := phase("total")
	clientMs := ms(lat)
	v["server.http_residual_ms_mean"] = ratio(clientMs-ms(enc)-ms(dec)-total, n)
	v["sched.queue_self_ms_mean"] = ratio(phase("queue")-phase("translate_warm"), n)
	v["sched.batch_size_mean"] = ratio(d.get("apex_sched_batch_size_sum"), d.get("apex_sched_batch_size_count"))
	v["sched.rejected_429"] = d.get(`apex_sched_requests_total{dataset="` + datasetName + `",outcome="rejected"}`)
	attributed := phase("queue") + phase("prepare") + phase("scan") + phase("execute") + phase("commit")
	v["sched.residual_share"] = ratio(total-attributed, total)
	v["engine.prepare_ms_mean"] = ratio(phase("prepare"), n)
	v["engine.execute_ms_mean"] = ratio(phase("execute"), n)
	v["engine.commit_self_ms_mean"] = ratio(phase("commit")-phase("wal_flush"), n)

	misses := d.get("apex_translate_cache_misses")
	hits := d.get("apex_translate_cache_hits")
	v["translate.warm_ms_per_miss"] = ratio(phase("translate_warm"), misses)
	v["translate.warm_share"] = ratio(phase("translate_warm"), total)
	v["translate.miss_count"] = misses
	v["translate.hit_ratio"] = ratio(hits, hits+misses)
	v["translate.sidecar_bytes"] = float64(tr.sidecarBytes)

	v["workload.scan_ms_mean"] = ratio(phase("scan"), n)
	v["workload.scan_share"] = ratio(phase("scan"), total)
	v["workload.scan_rows_per_s"] = ratio(d.get("apex_scan_rows_total"), d.phaseSum("scan"))
	v["workload.scan_bytes_per_query"] = ratio(d.get("apex_scan_bytes_total"), n)
	v["colstore.segment_bytes"] = float64(tr.segBytes)
	v["colstore.bytes_per_csv_byte"] = ratio(float64(tr.segBytes), float64(r.csvBytes))

	p := tr.prefix
	for _, m := range []string{"LM", "SM-h2", "MPM", "LTM"} {
		v["mechanism.share."+m] = ratio(float64(p.mechanisms[m]), float64(p.n))
	}
	var answers, missed int
	for _, t := range tr.tallies {
		answers += t.Answers
		missed += t.Misses
	}
	v["mechanism.alpha_miss_share"] = ratio(float64(missed), float64(answers))

	v["store.wal_flush_ms_mean"] = ratio(phase("wal_flush"), n)
	v["store.wal_share"] = ratio(phase("wal_flush"), clientMs)
	v["store.wal_bytes_per_commit"] = ratio(float64(tr.walGrow), n)
	v["store.data_dir_bytes"] = float64(tr.dirBytes)
	v["store.recover_after_window_s"] = tr.recoverAfterS
	v["store.recover_entries"] = float64(tr.entries)

	qps := func(l *life) float64 { return ratio(float64(len(l.windowSamples())), l.windowS) }
	v["bench.tracing_overhead_share"] = 1 - ratio(qps(tr), qps(ref))
	v["obs.planes_overhead_share"] = 0
	if planes != nil {
		v["obs.planes_overhead_share"] = 1 - ratio(qps(ref), qps(planes))
	}
	v["bench.build_s"] = r.buildS
	v["bench.datagen_s"] = r.datagenS
	rp.metrics(v)
	return v
}
