package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"regcluster/internal/experiments"
	"regcluster/internal/obs"
	"regcluster/internal/service"
)

const (
	// workRoot holds each pass's data-dirs; it sits in the ignored build
	// directory of the checkout and every pass removes its own subdirectory.
	workRoot = ".bench_build/work"
	// spansRoot receives the traced pass's span trees at exit.
	spansRoot = ".bench_build/spans"
	// setupRuns is how often a pass repeats its set-up; setup_s is the
	// median, and the last set-up's server serves the timed phase.
	setupRuns = 5
	// phaseBlocks splits the timed phase into consecutive blocks of equal
	// op count for the host: line, which reports each block's CPU steal and
	// throughput so that a run disturbed by a steal episode shows as one.
	// The end-to-end figures are taken over every op.
	phaseBlocks = 5
	// settleWait lets set-up jobs journal their terminal records, which
	// settle appends after the job's stream has already ended, before the
	// pre-phase journal snapshot is taken.
	settleWait = 200 * time.Millisecond
)

// passOptions fixes one pass: the workload's seed and nominal timed length,
// the input scale, and whether the service and the harness record spans.
type passOptions struct {
	seed    int64
	seconds int
	tiny    bool
	traced  bool
	nproc   int
}

// opRecord is the outcome of one timed op.
type opRecord struct {
	i       int
	latency time.Duration
	// first is the time from the submit request to the first NDJSON cluster
	// line; negative when the op did not stream.
	first time.Duration
	// job is the job the op submitted.
	job string
	// What the post-phase checks need of the replies (unset where the
	// workload checks the op inline), and the size of the op's result.
	result, diff []byte
	stream       streamBody
	resultBytes  int
	err          error
}

func (r *opRecord) fail(err error) *opRecord {
	if r.err == nil && err != nil {
		r.err = err
	}
	return r
}

// pass is one run of a workload against one server: inputs, set-up, the
// timed closed loop, and everything measured around it.
type pass struct {
	w     *workload
	opts  passOptions
	ops   int
	state state
	inst  *instance

	// tracer holds the harness's own spans: one "op" root per timed op with
	// a child per HTTP call, plus roots around direct layer calls. It is nil
	// (every span a no-op) on an untraced pass.
	tracer *obs.Tracer

	setupTimes []time.Duration
	recs       []*opRecord
	wall, cpu  time.Duration
	blocks     []block
	mem0, mem1 runtime.MemStats
	stealPct   float64
	peakRSSMiB float64

	prom0, prom1       promSnapshot
	journal0, journal1 fileStats
	store0, store1     int64

	jobs   map[string]service.JobView
	traces map[string][]*obs.Node
}

// runPass runs one pass of w and returns it with every check applied. It
// logs how long each stage took to standard error.
func runPass(w *workload, opts passOptions) (*pass, error) {
	p := &pass{w: w, opts: opts, ops: w.opCount(opts)}
	if opts.traced {
		p.tracer = obs.New()
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(workRoot, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	stages := newStageLog()
	p.state = w.newState()
	if err := p.state.prepare(p); err != nil {
		return nil, fmt.Errorf("prepare inputs: %w", err)
	}
	stages.done("prepare")
	template := filepath.Join(work, "template")
	if err := p.buildTemplate(template); err != nil {
		return nil, fmt.Errorf("build data-dir template: %w", err)
	}
	stages.done("template")
	for k := 0; k < setupRuns; k++ {
		dir := filepath.Join(work, fmt.Sprintf("data-%d", k))
		if err := copyDir(template, dir); err != nil {
			return nil, err
		}
		runtime.GC()
		inst, err := p.setupOnce(dir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if k < setupRuns-1 {
			if err := inst.stop(); err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
			continue
		}
		p.inst = inst
	}
	stages.done("setup")
	if err := p.timedPhase(); err != nil {
		p.inst.stop()
		return nil, err
	}
	if err := p.inst.close(); err != nil {
		return nil, err
	}
	p.journal1 = journalStats(p.inst.dir)
	p.store1 = storeBytes(p.inst.dir)
	stages.done("phase+drain")
	p.verifyAll()
	stages.done("verify")
	if p.opts.traced {
		for _, rec := range p.recs[:min(len(p.recs), layerSample)] {
			if rec.err == nil {
				p.state.layers(p, rec)
			}
		}
		stages.done("layers")
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s traced=%v stages %s setups=%v\n", w.name, opts.traced, stages, p.setupTimes)
	return p, nil
}

// verifyAll applies the output checks to every op, on nproc goroutines.
func (p *pass) verifyAll() {
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < p.opts.nproc; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(p.recs); i = int(next.Add(1) - 1) {
				if rec := p.recs[i]; rec.err == nil {
					rec.err = p.state.verify(p, rec)
				}
			}
		}()
	}
	wg.Wait()
}

// stageLog records how long each stage of a pass took.
type stageLog struct {
	last  time.Time
	parts []string
}

func newStageLog() *stageLog { return &stageLog{last: time.Now()} }

func (s *stageLog) done(stage string) {
	now := time.Now()
	s.parts = append(s.parts, fmt.Sprintf("%s=%.2fs", stage, now.Sub(s.last).Seconds()))
	s.last = now
}

func (s *stageLog) String() string { return strings.Join(s.parts, " ") }

// setupOnce times one set-up: service.Open on a copy of the template
// data-dir (boot recovery included), the loopback listener, and the
// workload's uploads and priming mines.
func (p *pass) setupOnce(dir string) (*instance, error) {
	t0 := time.Now()
	inst, err := openInstance(dir, p.config())
	if err != nil {
		return nil, err
	}
	if err := p.state.setup(p, inst.c); err != nil {
		inst.stop()
		return nil, err
	}
	p.setupTimes = append(p.setupTimes, time.Since(t0))
	return inst, nil
}

// timedPhase runs the closed loop between two quiescent snapshots of the
// process and the server, then drains the server and reads the per-job
// views and traces.
func (p *pass) timedPhase() error {
	time.Sleep(settleWait)
	var err error
	if p.prom0, err = p.inst.c.metrics(); err != nil {
		return err
	}
	p.journal0 = journalStats(p.inst.dir)
	p.store0 = storeBytes(p.inst.dir)
	p.measure()

	// Counters are read only after Shutdown returns: settle journals a
	// job's terminal records after its stream has already ended.
	if err := p.inst.quiesce(); err != nil {
		return err
	}
	if p.prom1, err = p.inst.c.metrics(); err != nil {
		return err
	}
	return p.collectJobs()
}

// measure runs the closed loop and records the process-side measurements
// around it: the per-block clock, CPU and steal, the Go allocator and GC
// counters, and the peak resident set.
func (p *pass) measure() {
	runtime.GC()
	runtime.ReadMemStats(&p.mem0)

	var marks []mark
	p.recs, marks = p.closedLoop()

	p.wall = marks[len(marks)-1].t.Sub(marks[0].t)
	p.cpu = marks[len(marks)-1].cpu - marks[0].cpu
	p.stealPct = marks[len(marks)-1].stat.stealPctSince(marks[0].stat)
	for k := 0; k+1 < len(marks); k++ {
		p.blocks = append(p.blocks, block{
			ops:      marks[k+1].op - marks[k].op,
			wall:     marks[k+1].t.Sub(marks[k].t),
			stealPct: marks[k+1].stat.stealPctSince(marks[k].stat),
		})
	}
	runtime.ReadMemStats(&p.mem1)
	p.peakRSSMiB = peakRSSMiB()
}

// mark samples the clock, the process CPU time and the host CPU counters
// as op number op starts (or, for the last mark, after every op ended).
type mark struct {
	op   int
	t    time.Time
	cpu  time.Duration
	stat cpuStat
}

func takeMark(op int) mark {
	return mark{op: op, t: time.Now(), cpu: processCPU(), stat: readCPUStat()}
}

// block is one of the phaseBlocks consecutive slices of the timed phase.
type block struct {
	ops      int
	wall     time.Duration
	stealPct float64
}

func (b block) rate() float64 { return float64(b.ops) / b.wall.Seconds() }

// closedLoop runs the workload's clients; each takes the next op index and
// sends the op's first request only after the previous op has completed.
// It returns the ops and one mark per block boundary.
func (p *pass) closedLoop() ([]*opRecord, []mark) {
	recs := make([]*opRecord, p.ops)
	size := (p.ops + phaseBlocks - 1) / phaseBlocks
	marks := make([]mark, (p.ops+size-1)/size, (p.ops+size-1)/size+1)
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < p.w.clients(p.opts); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= p.ops {
					return
				}
				if i%size == 0 {
					marks[i/size] = takeMark(i)
				}
				sp := p.tracer.Start("op")
				sp.SetInt("op", int64(i))
				t0 := time.Now()
				rec := p.state.op(p, p.inst.c, sp, i)
				rec.latency = time.Since(t0)
				sp.End()
				rec.i = i
				recs[i] = rec
			}
		}()
	}
	wg.Wait()
	return recs, append(marks, takeMark(p.ops))
}

// collectJobs reads, after the drain, the view (and on a traced pass the
// span tree) of every job a timed op submitted to mine.
func (p *pass) collectJobs() error {
	p.jobs = make(map[string]service.JobView)
	p.traces = make(map[string][]*obs.Node)
	if !p.w.mines {
		return nil
	}
	for _, rec := range p.recs {
		if rec.job == "" {
			continue
		}
		var v service.JobView
		if err := p.inst.c.getJSON("/jobs/"+rec.job, &v); err != nil {
			rec.fail(err)
			continue
		}
		p.jobs[rec.job] = v
		if p.opts.traced {
			var tr struct {
				Trace []*obs.Node `json:"trace"`
			}
			if err := p.inst.c.getJSON("/jobs/"+rec.job+"/trace", &tr); err != nil {
				rec.fail(err)
				continue
			}
			p.traces[rec.job] = tr.Trace
		}
		if err := p.state.collect(p, rec); err != nil {
			rec.fail(err)
		}
	}
	return nil
}

// config is the server configuration of every instance of the pass.
func (p *pass) config() service.Config {
	cfg := service.Config{
		// Request lines are still rendered, as regserver renders them, but
		// only warnings and errors reach standard error.
		Logger:        obs.NewLogger(warnFilter{os.Stderr}, obs.FormatText),
		EnableTracing: p.opts.traced,
		Mode:          p.w.mode,
	}
	if p.w.mode == "coordinator" {
		cfg.DistLocalWorkers = p.opts.nproc
	}
	return cfg
}

// buildTemplate fills the data-dir every set-up boots from: a previous
// session's three datasets, their results and the journal, so that setup_s
// includes boot recovery.
func (p *pass) buildTemplate(dir string) error {
	inst, err := openInstance(dir, p.config())
	if err != nil {
		return err
	}
	genes := 400
	if p.opts.tiny {
		genes = 60
	}
	for k := 0; k < 3; k++ {
		in, err := figure7Input(genes, subSeed(p.opts.seed, "history", k))
		if err == nil {
			_, err = mineOnce(inst.c, nil, in, fmt.Sprintf("history-%d", k), experiments.MiningDefaults(genes), p.opts.nproc)
		}
		if err != nil {
			inst.stop()
			return err
		}
	}
	return inst.stop()
}

// warnFilter passes on only the log lines above level info.
type warnFilter struct{ w io.Writer }

func (f warnFilter) Write(b []byte) (int, error) {
	if !bytes.Contains(b, []byte(" INFO ")) {
		f.w.Write(b)
	}
	return len(b), nil
}

// instance is one booted server behind a loopback listener.
type instance struct {
	srv    *service.Server
	hs     *http.Server
	served chan struct{}
	dir    string
	c      *client
}

func openInstance(dir string, cfg service.Config) (*instance, error) {
	cfg.DataDir = dir
	srv, err := service.Open(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	in := &instance{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan struct{}), dir: dir}
	go func() {
		defer close(in.served)
		in.hs.Serve(ln)
	}()
	in.c = newClient("http://" + ln.Addr().String())
	return in, nil
}

// quiesce drains the service: once it returns, every job has settled and
// journaled its terminal records.
func (in *instance) quiesce() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := in.srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain service: %w", err)
	}
	return nil
}

// close stops the listener, waits for its serve loop and closes the server.
func (in *instance) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := in.hs.Shutdown(ctx)
	<-in.served
	in.c.hc.CloseIdleConnections()
	if cerr := in.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// stop drains and closes the instance.
func (in *instance) stop() error {
	err := in.quiesce()
	if cerr := in.close(); err == nil {
		err = cerr
	}
	return err
}

// client issues the HTTP calls of the ops, one span per call.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxIdleConns:        16,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}}}
}

// call sends one request under a "service.<route>" span, reads the whole
// reply, and fails unless the status is want.
func (c *client) call(sp *obs.Span, route, method, path string, body []byte, want int) ([]byte, error) {
	csp := sp.Start("service." + route)
	defer csp.End()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		csp.SetAttr("status", "error")
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	csp.SetInt("status", int64(resp.StatusCode))
	if err != nil {
		return nil, fmt.Errorf("%s %s: read reply: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return data, fmt.Errorf("%s %s: status %d, want %d: %.200s", method, path, resp.StatusCode, want, data)
	}
	return data, nil
}

// streamBody is what the checks need of an NDJSON stream without keeping
// it: the CRC-32C and count of the lines before the last, and the last line
// (the summary) itself.
type streamBody struct {
	crc   uint32
	lines int
	bytes int
	last  []byte
}

func (b streamBody) equal(o streamBody) bool {
	return b.crc == o.crc && b.lines == o.lines && b.bytes == o.bytes && bytes.Equal(b.last, o.last)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// stream reads a job's NDJSON stream to its end and returns its digest and
// the time from submitted to the first cluster line (negative if none
// arrived).
func (c *client) stream(sp *obs.Span, job string, submitted time.Time) (streamBody, time.Duration, error) {
	csp := sp.Start("service.stream")
	defer csp.End()
	var sb streamBody
	first := time.Duration(-1)
	path := "/jobs/" + job + "/stream"
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		csp.SetAttr("status", "error")
		return sb, first, fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	csp.SetInt("status", int64(resp.StatusCode))
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return sb, first, fmt.Errorf("GET %s: status %d: %.200s", path, resp.StatusCode, data)
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	var line []byte // the current line; hashed once the next one starts
	for {
		chunk, err := br.ReadSlice('\n')
		if len(chunk) > 0 && len(line) > 0 && line[len(line)-1] == '\n' {
			sb.crc = crc32.Update(sb.crc, castagnoli, line)
			sb.lines++
			line = line[:0]
		}
		if first < 0 && len(line) == 0 && len(chunk) > 0 && !bytes.HasPrefix(chunk, []byte(`{"done"`)) {
			first = time.Since(submitted)
		}
		line = append(line, chunk...)
		sb.bytes += len(chunk)
		if err == bufio.ErrBufferFull {
			continue
		}
		if err == io.EOF {
			sb.last = line
			return sb, first, nil
		}
		if err != nil {
			return sb, first, fmt.Errorf("GET %s: read: %w", path, err)
		}
	}
}

// getJSON decodes the reply of an untimed GET.
func (c *client) getJSON(path string, v any) error {
	data, err := c.call(nil, "", http.MethodGet, path, nil, http.StatusOK)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("GET %s: decode: %w", path, err)
	}
	return nil
}

// metrics reads the server's /metrics counters.
func (c *client) metrics() (promSnapshot, error) {
	data, err := c.call(nil, "", http.MethodGet, "/metrics", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	return parseProm(data), nil
}

// promSnapshot maps each unlabelled (or phase-labelled) series of the
// Prometheus text exposition to its value.
type promSnapshot map[string]float64

func parseProm(data []byte) promSnapshot {
	out := promSnapshot{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(line[sp+1:], &v); err == nil {
			out[line[:sp]] = v
		}
	}
	return out
}

// delta is the change of a counter over the timed phase.
func (p *pass) delta(name string) float64 { return p.prom1[name] - p.prom0[name] }

// fileStats sizes the journal: records (lines) and bytes.
type fileStats struct {
	lines int
	bytes int64
}

func journalStats(dir string) fileStats {
	data, err := os.ReadFile(filepath.Join(dir, "journal.wal"))
	if err != nil {
		return fileStats{}
	}
	return fileStats{lines: bytes.Count(data, []byte{'\n'}), bytes: int64(len(data))}
}

// storeBytes sizes the data-dir's dataset and result files, the journal
// excluded.
func storeBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Base(path) == "journal.wal" {
			return nil
		}
		if info, err := d.Info(); err == nil {
			n += info.Size()
		}
		return nil
	})
	return n
}

// copyDir copies the regular files of a data-dir tree.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
