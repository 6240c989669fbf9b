package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"regcluster/internal/obs"
)

// minTail is how many samples must lie beyond a percentile for it to be
// reported.
const minTail = 10

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	failures  []string
}

// percentile returns the nearest-rank q-quantile of xs and whether at least
// minTail samples lie beyond it. A failed op enters as +Inf, so it counts as
// missing every percentile.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n-rank >= minTail
}

// median is the middle value (the mean of the two middle ones for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// outcome tallies the op checks of a pass.
func (p *pass) outcome() result {
	r := result{Attempted: len(p.recs), Metrics: map[string]metric{}}
	for _, rec := range p.recs {
		if rec.err != nil {
			r.Failed++
			if len(r.failures) < 5 {
				r.failures = append(r.failures, fmt.Sprintf("op %d: %v", rec.i, rec.err))
			}
		}
	}
	r.Correct = r.Failed == 0
	return r
}

// latencies returns, over every op of the timed phase, per-op latency and,
// for ops that stream, time to first cluster, in ms; a failed op enters
// both as +Inf.
func (p *pass) latencies() (op, first []float64) {
	for _, rec := range p.recs {
		switch {
		case rec.err != nil:
			op = append(op, math.Inf(1))
			if p.w.mines || rec.i%streamEvery == 0 {
				first = append(first, math.Inf(1))
			}
		default:
			op = append(op, ms(rec.latency))
			if rec.first >= 0 {
				first = append(first, ms(rec.first))
			}
		}
	}
	return op, first
}

// putPercentile reports a percentile when the sample supports it. A
// percentile that lands on a failed op reads as the whole timed phase, an
// upper bound on any op that completed.
func (p *pass) putPercentile(r *result, name string, xs []float64, q float64) {
	v, ok := percentile(xs, q)
	if !ok {
		if !p.opts.tiny {
			r.failures = append(r.failures, fmt.Sprintf("%s: %d samples cannot support it", name, len(xs)))
		}
		return
	}
	if math.IsInf(v, 1) {
		v = ms(p.wall)
	}
	r.Metrics[name] = metric{v, "ms"}
}

// endToEnd is the -trace 0 result: what a user of the service sees.
func (p *pass) endToEnd() result {
	r := p.outcome()
	ops := float64(len(p.recs))
	setup := make([]float64, len(p.setupTimes))
	for i, d := range p.setupTimes {
		setup[i] = d.Seconds()
	}
	op, first := p.latencies()
	r.Metrics["setup_s"] = metric{median(setup), "s"}
	r.Metrics["ops_per_s"] = metric{ops / p.wall.Seconds(), "1/s"}
	p.putPercentile(&r, "op_p50_ms", op, 0.50)
	p.putPercentile(&r, "op_p90_ms", op, 0.90)
	p.putPercentile(&r, "first_cluster_p50_ms", first, 0.50)
	p.putPercentile(&r, "first_cluster_p90_ms", first, 0.90)
	r.Metrics["cpu_ms_per_op"] = metric{ms(p.cpu) / ops, "ms"}
	r.Metrics["peak_rss_mb"] = metric{p.peakRSSMiB, "MiB"}
	r.Metrics["ok_ratio"] = metric{(ops - float64(r.Failed)) / ops, "ratio"}
	return r
}

// hostLine reports the host context of the timed phase. It is not gated: a
// run with high steal is a disturbed run, not a slower program.
func (p *pass) hostLine() string {
	var steal, rate []string
	for _, b := range p.blocks {
		steal = append(steal, fmt.Sprintf("%.1f", b.stealPct))
		rate = append(rate, fmt.Sprintf("%.1f", b.rate()))
	}
	return fmt.Sprintf("host: workload=%s seed=%d ops=%d nproc=%d steal_pct=%.2f wall_s=%.3f block_steal_pct=%s block_ops_per_s=%s",
		p.w.name, p.opts.seed, len(p.recs), p.opts.nproc, p.stealPct, p.wall.Seconds(), strings.Join(steal, ","), strings.Join(rate, ","))
}

// spanStats gathers durations (ms) by span name over span forests.
type spanStats map[string][]float64

func (s spanStats) add(nodes []*obs.Node) {
	walk(nodes, func(n *obs.Node) { s[n.Name] = append(s[n.Name], float64(n.DurUS)/1000) })
}

func walk(nodes []*obs.Node, fn func(*obs.Node)) {
	for _, n := range nodes {
		fn(n)
		walk(n.Children, fn)
	}
}

// covered is the part of n's interval that the children matching keep
// cover, in µs; overlapping children (parallel subtrees) count once.
func covered(n *obs.Node, keep func(string) bool) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range n.Children {
		if !keep(c.Name) {
			continue
		}
		a, b := max(c.StartUS, n.StartUS), min(c.StartUS+c.DurUS, n.StartUS+n.DurUS)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = math.MinInt64
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// jobLayers is what one mining job's span tree says about the layers below
// the HTTP surface, in ms.
type jobLayers struct {
	rwaveBuild, rwaveRepair, coreMine, incremental float64
	genesRepaired                                  float64
	subtrees, leases                               []float64
}

func analyzeJob(trace []*obs.Node) jobLayers {
	var jl jobLayers
	isRWave := func(name string) bool { return strings.HasPrefix(name, "rwave.") }
	walk(trace, func(n *obs.Node) {
		d := float64(n.DurUS) / 1000
		switch n.Name {
		case "attempt":
			jl.coreMine += float64(n.DurUS-covered(n, isRWave)) / 1000
		case "rwave.build":
			jl.rwaveBuild += d
		case "rwave.repair":
			jl.rwaveRepair += d
			var k float64
			fmt.Sscan(n.Attrs["repaired"], &k)
			jl.genesRepaired += k
		case "incremental.mine":
			jl.incremental += d
		case "subtree":
			jl.subtrees = append(jl.subtrees, d)
		case "lease":
			jl.leases = append(jl.leases, d)
		}
	})
	return jl
}

// routes are the HTTP calls an op can make, as "service.<route>" spans.
var routes = []string{"upload", "submit", "stream", "result", "append", "diff", "delete"}

// perLayer is the -trace 1 result: the traced pass's per-layer numbers,
// with the untraced pass (same workload and seed, run first) supplying the
// tracing overhead and the runtime and tail figures tracing would disturb.
func perLayer(u, t *pass) result {
	r := t.outcome()
	if ur := u.outcome(); !ur.Correct {
		r.Correct = false
		r.failures = append(r.failures, ur.failures...)
	}
	put := func(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }
	ops := float64(len(t.recs))

	// The harness's own spans: direct layer calls and HTTP calls.
	direct := spanStats{}
	direct.add(t.tracer.Tree())
	put("matrix.read_tsv_ms", median(direct["matrix.read_tsv"]), "ms")
	put("matrix.hash_ms", median(direct["matrix.hash"]), "ms")
	put("matrix.append_ms", median(direct["matrix.append"]), "ms")
	put("report.render_ms", median(direct["report.render"]), "ms")
	for _, route := range routes {
		var durs []float64
		var non2xx float64
		for _, root := range t.tracer.Tree() {
			for _, c := range root.Children {
				if c.Name != "service."+route {
					continue
				}
				durs = append(durs, float64(c.DurUS)/1000)
				if s := c.Attrs["status"]; len(s) != 3 || s[0] != '2' {
					non2xx++
				}
			}
		}
		put("service."+route+"_ms", median(durs), "ms")
		put("service."+route+"_count", float64(len(durs))/ops, "count")
		put("service."+route+"_non2xx", non2xx, "count")
	}

	// The service's span trees and job views, one per mining op.
	var build, repair, mine, incr, genes, subtreeMax, leaseMax, queue, run []float64
	var subtrees, leases []float64
	var nodes, cands, clusters, reused, mined float64
	var resultBytes, streamBytes, results, streams float64
	for _, rec := range t.recs {
		if rec.resultBytes > 0 {
			resultBytes += float64(rec.resultBytes)
			results++
		}
		if rec.stream.bytes > 0 {
			streamBytes += float64(rec.stream.bytes)
			streams++
		}
		v, ok := t.jobs[rec.job]
		if !ok {
			continue
		}
		jl := analyzeJob(t.traces[rec.job])
		build = append(build, jl.rwaveBuild)
		repair = append(repair, jl.rwaveRepair)
		mine = append(mine, jl.coreMine)
		incr = append(incr, jl.incremental)
		genes = append(genes, jl.genesRepaired)
		subtrees = append(subtrees, jl.subtrees...)
		leases = append(leases, jl.leases...)
		if len(jl.subtrees) > 0 {
			subtreeMax = append(subtreeMax, maxOf(jl.subtrees))
		}
		if len(jl.leases) > 0 {
			leaseMax = append(leaseMax, maxOf(jl.leases))
		}
		if v.StartedAt != nil && v.FinishedAt != nil {
			queue = append(queue, ms(v.StartedAt.Sub(v.CreatedAt)))
			run = append(run, ms(v.FinishedAt.Sub(*v.StartedAt)))
		}
		if v.Stats != nil {
			nodes += float64(v.Stats.Nodes)
			cands += float64(v.Stats.CandidatesExamined)
			clusters += float64(v.Stats.Clusters)
		}
		if v.Incremental != nil {
			reused += float64(v.Incremental.SubtreesReused)
			mined += float64(v.Incremental.SubtreesMined)
		}
	}
	put("rwave.build_ms", median(build), "ms")
	put("rwave.repair_ms", median(repair), "ms")
	put("rwave.genes_repaired", sum(genes)/ops, "count")
	put("core.mine_ms", median(mine), "ms")
	put("core.subtree_p50_ms", median(subtrees), "ms")
	put("core.subtree_max_ms", median(subtreeMax), "ms")
	put("core.nodes", nodes/ops, "count")
	put("core.candidates", cands/ops, "count")
	put("core.clusters", clusters/ops, "count")
	put("core.incremental_ms", median(incr), "ms")
	put("core.subtrees_reused", reused/ops, "count")
	put("core.subtrees_mined", mined/ops, "count")
	put("report.result_bytes", safeDiv(resultBytes, results), "bytes")
	put("report.stream_bytes", safeDiv(streamBytes, streams), "bytes")
	put("service.queue_ms", median(queue), "ms")
	put("service.run_ms", median(run), "ms")
	put("service.result_cache_hit_ratio", hitRatio(t, "regcluster_cache_hits_total", "regcluster_cache_misses_total"), "ratio")
	put("service.model_cache_hit_ratio", hitRatio(t, "regserver_model_cache_hits_total", "regserver_model_cache_misses_total"), "ratio")
	put("service.model_repairs_per_op", t.delta("regserver_model_repairs_total")/ops, "count")
	put("journal.records_per_op", float64(t.journal1.lines-t.journal0.lines)/ops, "count")
	put("journal.bytes_per_op", float64(t.journal1.bytes-t.journal0.bytes)/ops, "bytes")
	put("store.bytes_per_op", float64(t.store1-t.store0)/ops, "bytes")
	put("journal.replay_ms", 1000*t.prom1[`regserver_phase_duration_seconds_sum{phase="replay"}`], "ms")
	put("dist.leases_per_op", t.delta("regserver_leases_issued_total")/ops, "count")
	put("dist.leases_reassigned", t.delta("regserver_leases_reassigned_total"), "count")
	put("dist.lease_p50_ms", median(leases), "ms")
	put("dist.lease_max_ms", median(leaseMax), "ms")

	uop, _ := u.latencies()
	top, _ := t.latencies()
	u50, _ := percentile(uop, 0.5)
	t50, _ := percentile(top, 0.5)
	put("obs.trace_overhead_pct", 100*(t50-u50)/u50, "%")
	p99 := 0.0
	if v, ok := percentile(uop, 0.99); ok && !math.IsInf(v, 1) {
		p99 = v
	}
	put("op_p99_ms", p99, "ms")
	alloc, cycles, pause := u.runtimePerOp()
	put("runtime.alloc_mb_per_op", alloc, "MiB")
	put("runtime.gc_cycles_per_op", cycles, "count")
	put("runtime.gc_pause_ms_per_op", pause, "ms")
	put("host.steal_pct", t.stealPct, "%")
	put("host.nproc", float64(t.opts.nproc), "count")
	return r
}

// runtimePerOp is the Go allocator and collector work of the timed phase
// per op: MiB allocated, GC cycles and GC pause in ms. It counts the
// clients' decoding as well as the server's work.
func (p *pass) runtimePerOp() (allocMiB, gcCycles, gcPauseMS float64) {
	ops := float64(len(p.recs))
	return float64(p.mem1.TotalAlloc-p.mem0.TotalAlloc) / (1 << 20) / ops,
		float64(p.mem1.NumGC-p.mem0.NumGC) / ops,
		float64(p.mem1.PauseTotalNs-p.mem0.PauseTotalNs) / 1e6 / ops
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func hitRatio(p *pass, hits, misses string) float64 {
	h, m := p.delta(hits), p.delta(misses)
	return safeDiv(h, h+m)
}

// layerShares renders the traced pass's blocking-path breakdown: the
// client-side p50 of each route and their sum against the op's p50, then the
// service-side split of a mining job.
func layerShares(u, t *pass, layers result) string {
	var b strings.Builder
	uop, _ := u.latencies()
	top, _ := t.latencies()
	u50, _ := percentile(uop, 0.5)
	t50, _ := percentile(top, 0.5)
	fmt.Fprintf(&b, "layers: %s seed=%d op_p50_ms untraced=%.3f traced=%.3f\n", t.w.name, t.opts.seed, u50, t50)
	perOp := map[string][]float64{}
	for _, root := range t.tracer.Tree() {
		if root.Name != "op" {
			continue
		}
		tot := map[string]float64{}
		for _, c := range root.Children {
			tot[c.Name] += float64(c.DurUS) / 1000
		}
		for _, route := range routes {
			if v, ok := tot["service."+route]; ok {
				perOp[route] = append(perOp[route], v)
			}
		}
	}
	var routeSum float64
	for _, route := range routes {
		xs := perOp[route]
		if len(xs) == 0 {
			continue
		}
		// Routes taken on only some ops count by their share of ops.
		share := float64(len(xs)) / float64(len(t.recs))
		v := median(xs) * share
		routeSum += v
		fmt.Fprintf(&b, "layers:   service.%-7s %8.3f ms  %5.1f%%\n", route, v, 100*v/t50)
	}
	fmt.Fprintf(&b, "layers:   sum of routes  %8.3f ms  %5.1f%% of traced op_p50\n", routeSum, 100*routeSum/t50)
	r := layers.Metrics
	if run := r["service.run_ms"].Value; run > 0 {
		fmt.Fprintf(&b, "layers:   service.run    %8.3f ms = rwave.build %.3f + rwave.repair %.3f + core.mine %.3f (+ service overhead)\n",
			run, r["rwave.build_ms"].Value, r["rwave.repair_ms"].Value, r["core.mine_ms"].Value)
	}
	return b.String()
}

// writeSpans writes the traced pass's span trees: the harness's own spans
// and each mining job's service trace.
func writeSpans(t *pass) error {
	if err := os.MkdirAll(spansRoot, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{
		"workload": t.w.name,
		"seed":     t.opts.seed,
		"harness":  t.tracer.Tree(),
		"jobs":     t.traces,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(spansRoot, fmt.Sprintf("%s-seed%d.json", t.w.name, t.opts.seed)), data, 0o644)
}
