package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"time"

	"regcluster/internal/core"
	"regcluster/internal/experiments"
	"regcluster/internal/matrix"
	"regcluster/internal/obs"
	"regcluster/internal/report"
	"regcluster/internal/service"
	"regcluster/internal/synthetic"
)

// workload is one traffic mix. Its op count is fixed per run: the job table
// keeps every job's dataset and clusters and GET /diff walks the whole
// table, so a timed-length run would make peak_rss_mb and diff time depend
// on throughput.
type workload struct {
	name string
	// nClients is the number of closed-loop clients (at most nproc).
	nClients int
	// ops is the op count of a run of nominalSeconds. It keeps such a run
	// near ten seconds on two vCPUs and leaves ten samples beyond every
	// reported percentile; append-remine's is held down by the memory its
	// job table keeps per op.
	ops int
	// mode is the service.Config.Mode of the server.
	mode string
	// mines reports that every timed op submits a job that mines.
	mines    bool
	newState func() state
}

// state is a workload's inputs and per-op behaviour within one pass.
type state interface {
	// prepare generates the inputs and the reference outputs: benchmark
	// work, outside both setup_s and the timed phase.
	prepare(p *pass) error
	// setup is the timed set-up work on a freshly booted server.
	setup(p *pass, c *client) error
	// op runs timed op i, recording each HTTP call under sp.
	op(p *pass, c *client, sp *obs.Span, i int) *opRecord
	// collect does the untimed reads of op rec after the server drained.
	collect(p *pass, rec *opRecord) error
	// verify applies the output checks to op rec.
	verify(p *pass, rec *opRecord) error
	// layers times direct calls into the matrix and report layers on op
	// rec's input (traced pass only, after the timed phase).
	layers(p *pass, rec *opRecord)
}

const (
	// nominalSeconds is the -seconds value the workloads' op counts are
	// set for; a run of other length scales its op count in proportion.
	nominalSeconds = 10
	// figure7Genes is the cold-mine matrix height: Figure 7's 30 conditions
	// and 30 embedded clusters, sized so that a run of 170 ops lasts about
	// fourteen seconds on two vCPUs.
	figure7Genes = 600
	// hotDatasets × len(hotEpsilons) (dataset, params) pairs form the
	// hot-reads set, well inside the 256-entry result cache. Each dataset
	// is a ladder of hotGenes genes whose result is about 115 KB.
	hotDatasets = 16
	hotGenes    = 48
	// streamEvery: every fourth hot-reads op also replays /stream.
	streamEvery = 4
	// ladderGenes and ladderMinC shape the append-remine ladder (E13's
	// shape). At E13's MinC=4 a job emits over a thousand clusters and the
	// op mostly times NDJSON and diff encoding; at MinC=7 a child yields
	// about 26 clusters and mining is a visible share of the op.
	ladderGenes = 100
	ladderMinC  = 7
	// primeOps and appendPrimeOps are the priming ops of a set-up, enough
	// for a few hundred ms of set-up work: a set-up of a few ms drifts by
	// several percent from run to run.
	primeOps       = 3
	appendPrimeOps = 24
	// refSample is the number of ops per run byte-compared against a direct
	// mine of the same input.
	refSample = 4
	// layerSample bounds the ops whose inputs the traced pass feeds to the
	// direct layer calls.
	layerSample = 100
	// tinyOps is the op count of a tiny pass (the self-tests).
	tinyOps = 6
)

var hotEpsilons = []float64{0.05, 0.06}

// workloads are the traffic mixes; README.md gives the reason for each.
var workloads = []*workload{
	{
		name:     "cold-mine",
		nClients: 1, ops: 170, mines: true,
		newState: func() state { return &coldState{} },
	},
	{
		name:     "hot-reads",
		nClients: 2, ops: 8000,
		newState: func() state { return &hotState{} },
	},
	{
		name:     "append-remine",
		nClients: 1, ops: 800, mines: true,
		newState: func() state { return &appendState{} },
	},
	{
		name:     "dist-mine",
		nClients: 1, ops: 170, mode: "coordinator", mines: true,
		newState: func() state { return &coldState{} },
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func (w *workload) clients(o passOptions) int {
	if w.nClients < o.nproc {
		return w.nClients
	}
	return o.nproc
}

func (w *workload) opCount(o passOptions) int {
	if o.tiny {
		return tinyOps
	}
	return (w.ops*o.seconds + nominalSeconds - 1) / nominalSeconds
}

// subSeed derives the seed of one generated input from the run seed.
func subSeed(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, i)
	return int64(h.Sum64() >> 1)
}

// sampleOps picks the seed-chosen ops that are byte-compared against a
// direct mine.
func sampleOps(seed int64, ops, n int) map[int]bool {
	rng := rand.New(rand.NewSource(subSeed(seed, "sample", 0)))
	out := make(map[int]bool, n)
	for _, i := range rng.Perm(ops) {
		if len(out) == n {
			break
		}
		out[i] = true
	}
	return out
}

// input is one matrix as generated, as uploaded, and as content-addressed.
type input struct {
	m   *matrix.Matrix
	tsv []byte
	id  string
}

func newInput(m *matrix.Matrix) (input, error) {
	var buf bytes.Buffer
	if err := m.WriteTSV(&buf); err != nil {
		return input{}, err
	}
	return input{m: m, tsv: buf.Bytes(), id: m.Hash()}, nil
}

// figure7Input is a Figure 7 matrix: 30 conditions, 30 embedded clusters.
func figure7Input(genes int, seed int64) (input, error) {
	cfg := synthetic.DefaultConfig()
	cfg.Genes, cfg.Seed = genes, seed
	m, _, err := synthetic.Generate(cfg)
	if err != nil {
		return input{}, err
	}
	return newInput(m)
}

// referenceResult is the result document of a direct sequential core.Mine,
// encoded as GET /jobs/{id}/result encodes it.
func referenceResult(m *matrix.Matrix, p core.Params) ([]byte, error) {
	res, err := core.Mine(m, p)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := report.FromResult(m, p, res).Write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// upload posts a matrix and checks that the registry addressed it by its
// content hash.
func upload(c *client, sp *obs.Span, in input, name string) error {
	data, err := c.call(sp, "upload", http.MethodPost, "/datasets?name="+name, in.tsv, http.StatusCreated)
	if err != nil {
		return err
	}
	return checkDatasetID(data, in.id)
}

func checkDatasetID(data []byte, want string) error {
	var ds service.Dataset
	if err := json.Unmarshal(data, &ds); err != nil {
		return fmt.Errorf("decode dataset: %w", err)
	}
	if ds.ID != want {
		return fmt.Errorf("dataset id %s, want content hash %s", ds.ID, want)
	}
	return nil
}

// submit posts a job and returns its id and the time the request started.
func submit(c *client, sp *obs.Span, body []byte) (string, time.Time, error) {
	t := time.Now()
	data, err := c.call(sp, "submit", http.MethodPost, "/jobs", body, http.StatusAccepted)
	if err != nil {
		return "", t, err
	}
	var v struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &v); err != nil || v.ID == "" {
		return "", t, fmt.Errorf("decode job: %v", err)
	}
	return v.ID, t, nil
}

func submitBody(dataset string, p core.Params, workers int) []byte {
	body, err := json.Marshal(map[string]any{"dataset": dataset, "params": p, "workers": workers})
	if err != nil {
		panic(err) // core.Params always encodes
	}
	return body
}

// mined is the outcome of one upload-free mine: submit, stream, result.
type mined struct {
	job    string
	result []byte
	stream streamBody
	first  time.Duration
}

// mine submits a job on an uploaded dataset, streams it to its summary line
// and reads its result.
func mine(c *client, sp *obs.Span, dataset string, p core.Params, workers int) (mined, error) {
	var mn mined
	job, t, err := submit(c, sp, submitBody(dataset, p, workers))
	mn.job = job
	if err != nil {
		return mn, err
	}
	if mn.stream, mn.first, err = c.stream(sp, job, t); err != nil {
		return mn, err
	}
	mn.result, err = c.call(sp, "result", http.MethodGet, "/jobs/"+job+"/result", nil, http.StatusOK)
	return mn, err
}

// mineOnce uploads a matrix and mines it.
func mineOnce(c *client, sp *obs.Span, in input, name string, p core.Params, workers int) (mined, error) {
	if err := upload(c, sp, in, name); err != nil {
		return mined{}, err
	}
	return mine(c, sp, in.id, p, workers)
}

// checkMined applies the output checks to one mined job: the result is a
// complete regcluster.result/v1 document of the submitted params, the
// streamed clusters equal the result's, every cluster satisfies Definition
// 3.2 on the op's matrix, and, when ref is given, the result is
// byte-identical to a direct mine of the same input.
func checkMined(m *matrix.Matrix, p core.Params, result []byte, stream streamBody, ref []byte) (*report.Document, error) {
	doc, err := report.Read(bytes.NewReader(result))
	if err != nil {
		return nil, fmt.Errorf("result: %w", err)
	}
	switch {
	case doc.Schema != report.SchemaID:
		return nil, fmt.Errorf("result schema %q", doc.Schema)
	case !reflect.DeepEqual(doc.Params, p):
		return nil, fmt.Errorf("result params %+v, submitted %+v", doc.Params, p)
	case doc.Stats.Truncated || doc.Stats.Clusters != len(doc.Clusters):
		return nil, fmt.Errorf("result stats %+v for %d clusters", doc.Stats, len(doc.Clusters))
	case len(doc.Clusters) == 0:
		return nil, fmt.Errorf("result has no clusters")
	}
	if err := checkStream(stream, doc); err != nil {
		return nil, err
	}
	bs, err := doc.Resolve(m)
	if err != nil {
		return nil, fmt.Errorf("resolve result: %w", err)
	}
	for k, b := range bs {
		if err := core.CheckBicluster(m, p, b); err != nil {
			return nil, fmt.Errorf("cluster %d: %w", k, err)
		}
	}
	if ref != nil && !bytes.Equal(result, ref) {
		return nil, fmt.Errorf("result differs from a direct core.Mine of the same input")
	}
	return doc, nil
}

// checkStream checks that a stream was the result's clusters, one compact
// JSON line each in result order, then a done summary line.
func checkStream(stream streamBody, doc *report.Document) error {
	if stream.lines != len(doc.Clusters) {
		return fmt.Errorf("stream has %d cluster lines for %d clusters", stream.lines, len(doc.Clusters))
	}
	var crc uint32
	for _, nc := range doc.Clusters {
		line, err := json.Marshal(nc)
		if err != nil {
			return err
		}
		crc = crc32.Update(crc, castagnoli, append(line, '\n'))
	}
	if crc != stream.crc {
		return fmt.Errorf("streamed clusters differ from the result's")
	}
	var sum struct {
		Done     bool   `json:"done"`
		Status   string `json:"status"`
		Clusters int    `json:"clusters"`
	}
	if err := json.Unmarshal(stream.last, &sum); err != nil {
		return fmt.Errorf("stream summary: %w", err)
	}
	if !sum.Done || sum.Status != string(service.StatusDone) || sum.Clusters != len(doc.Clusters) {
		return fmt.Errorf("stream summary %+v for %d clusters", sum, len(doc.Clusters))
	}
	return nil
}

// checkJob checks a mining op's job view after the drain.
func checkJob(p *pass, rec *opRecord) (service.JobView, error) {
	v, ok := p.jobs[rec.job]
	switch {
	case !ok:
		return v, fmt.Errorf("job %s: no view", rec.job)
	case v.Status != service.StatusDone || v.Cached:
		return v, fmt.Errorf("job %s: status %s, cached %v; want a fresh mine that finished", rec.job, v.Status, v.Cached)
	}
	return v, nil
}

// renderLayer times report.FromResult plus Document.Write on a result body,
// the work GET /result repeats on every read.
func renderLayer(p *pass, i int, m *matrix.Matrix, params core.Params, result []byte) {
	doc, err := report.Read(bytes.NewReader(result))
	if err != nil {
		return
	}
	bs, err := doc.Resolve(m)
	if err != nil {
		return
	}
	res := &core.Result{Clusters: bs, Stats: doc.Stats}
	var buf bytes.Buffer
	sp := p.tracer.Start("report.render")
	sp.SetInt("op", int64(i))
	report.FromResult(m, params, res).Write(&buf)
	sp.End()
}

// timeLayer runs f under a root span named layer.
func timeLayer(p *pass, layer string, i int, f func()) {
	sp := p.tracer.Start(layer)
	sp.SetInt("op", int64(i))
	f()
	sp.End()
}

// coldState drives cold-mine and dist-mine: per op a distinct Figure 7
// matrix is uploaded, mined at MiningDefaults, streamed, read and deleted.
type coldState struct {
	p      core.Params
	primes []input
	inputs []input
	refs   map[int][]byte
}

func (s *coldState) prepare(p *pass) error {
	genes := figure7Genes
	if p.opts.tiny {
		genes = 120
	}
	s.p = experiments.MiningDefaults(genes)
	s.primes = make([]input, primeOps)
	var err error
	for k := range s.primes {
		if s.primes[k], err = figure7Input(genes, subSeed(p.opts.seed, "prime", k)); err != nil {
			return err
		}
	}
	s.inputs = make([]input, p.ops)
	for i := range s.inputs {
		if s.inputs[i], err = figure7Input(genes, subSeed(p.opts.seed, "cold", i)); err != nil {
			return err
		}
	}
	s.refs = make(map[int][]byte)
	for i := range sampleOps(p.opts.seed, p.ops, refCount(p)) {
		if s.refs[i], err = referenceResult(s.inputs[i].m, s.p); err != nil {
			return err
		}
	}
	return nil
}

func refCount(p *pass) int {
	if p.opts.tiny {
		return 1
	}
	return refSample
}

func (s *coldState) setup(p *pass, c *client) error {
	for k, in := range s.primes {
		mn, err := mineOnce(c, nil, in, fmt.Sprintf("prime-%d", k), s.p, p.opts.nproc)
		if err != nil {
			return err
		}
		if _, err := checkMined(in.m, s.p, mn.result, mn.stream, nil); err != nil {
			return fmt.Errorf("priming op %d: %w", k, err)
		}
		if _, err := c.call(nil, "delete", http.MethodDelete, "/datasets/"+in.id, nil, http.StatusNoContent); err != nil {
			return err
		}
	}
	return nil
}

func (s *coldState) op(p *pass, c *client, sp *obs.Span, i int) *opRecord {
	in := s.inputs[i]
	rec := &opRecord{first: -1}
	mn, err := mineOnce(c, sp, in, fmt.Sprintf("cold-%d", i), s.p, p.opts.nproc)
	rec.job, rec.first = mn.job, mn.first
	rec.result, rec.stream = mn.result, mn.stream
	rec.resultBytes = len(mn.result)
	if err != nil {
		return rec.fail(err)
	}
	_, err = c.call(sp, "delete", http.MethodDelete, "/datasets/"+in.id, nil, http.StatusNoContent)
	return rec.fail(err)
}

func (s *coldState) collect(*pass, *opRecord) error { return nil }

func (s *coldState) verify(p *pass, rec *opRecord) error {
	if _, err := checkJob(p, rec); err != nil {
		return err
	}
	_, err := checkMined(s.inputs[rec.i].m, s.p, rec.result, rec.stream, s.refs[rec.i])
	return err
}

func (s *coldState) layers(p *pass, rec *opRecord) {
	in := s.inputs[rec.i]
	timeLayer(p, "matrix.read_tsv", rec.i, func() { matrix.ReadTSV(bytes.NewReader(in.tsv)) })
	timeLayer(p, "matrix.hash", rec.i, func() { in.m.Hash() })
	renderLayer(p, rec.i, in.m, s.p, rec.result)
}

// hotState drives hot-reads: set-up mines a hot set of (dataset, params)
// pairs; every op re-submits one pair (a cache hit), reads its result and,
// on every streamEvery-th op, first replays its stream. The datasets are
// ladders, whose cluster structure does not depend on the seed: with
// Figure 7 matrices the hot set's result sizes, and with them the op cost,
// moved by a third from one seed to the next.
type hotState struct {
	inputs  []input
	pairs   []hotPair
	seq     []int
	refs    [][]byte
	expJob  []string
	expRes  [][]byte
	expStr  []streamBody
	expOnce sync.Once
	expErr  error
}

type hotPair struct {
	ds   int
	p    core.Params
	body []byte
}

func (s *hotState) prepare(p *pass) error {
	datasets := hotDatasets
	if p.opts.tiny {
		datasets = 2
	}
	for k := 0; k < datasets; k++ {
		rng := rand.New(rand.NewSource(subSeed(p.opts.seed, "hot", k)))
		in, err := newInput(ladder(hotGenes, rng))
		if err != nil {
			return err
		}
		s.inputs = append(s.inputs, in)
		for _, eps := range hotEpsilons {
			params := ladderParams(hotGenes)
			params.Epsilon = eps
			s.pairs = append(s.pairs, hotPair{ds: k, p: params, body: submitBody(in.id, params, p.opts.nproc)})
		}
	}
	rng := rand.New(rand.NewSource(subSeed(p.opts.seed, "hot-seq", 0)))
	s.seq = make([]int, p.ops)
	for i := range s.seq {
		s.seq[i] = rng.Intn(len(s.pairs))
	}
	for _, hp := range s.pairs {
		ref, err := referenceResult(s.inputs[hp.ds].m, hp.p)
		if err != nil {
			return err
		}
		s.refs = append(s.refs, ref)
	}
	return nil
}

func (s *hotState) setup(p *pass, c *client) error {
	for k, in := range s.inputs {
		if err := upload(c, nil, in, fmt.Sprintf("hot-%d", k)); err != nil {
			return err
		}
	}
	s.expJob = s.expJob[:0]
	s.expRes, s.expStr = s.expRes[:0], s.expStr[:0]
	for _, hp := range s.pairs {
		mn, err := mine(c, nil, s.inputs[hp.ds].id, hp.p, p.opts.nproc)
		if err != nil {
			return err
		}
		s.expJob = append(s.expJob, mn.job)
		s.expRes = append(s.expRes, mn.result)
		s.expStr = append(s.expStr, mn.stream)
	}
	return nil
}

func (s *hotState) op(p *pass, c *client, sp *obs.Span, i int) *opRecord {
	k := s.seq[i]
	rec := &opRecord{first: -1}
	t := time.Now()
	data, err := c.call(sp, "submit", http.MethodPost, "/jobs", s.pairs[k].body, http.StatusAccepted)
	if err != nil {
		return rec.fail(err)
	}
	var v struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Cached bool   `json:"cached"`
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return rec.fail(err)
	}
	if !v.Cached || v.Status != string(service.StatusDone) {
		return rec.fail(fmt.Errorf("job %s: status %s, cached %v; want a settled cache hit", v.ID, v.Status, v.Cached))
	}
	if i%streamEvery == 0 {
		sb, first, err := c.stream(sp, v.ID, t)
		rec.first, rec.stream = first, sb
		if err != nil {
			return rec.fail(err)
		}
		if !sb.equal(s.expStr[k]) {
			return rec.fail(fmt.Errorf("op %d: stream replay differs from the pair's first stream", i))
		}
	}
	body, err := c.call(sp, "result", http.MethodGet, "/jobs/"+v.ID+"/result", nil, http.StatusOK)
	rec.resultBytes = len(body)
	if err != nil {
		return rec.fail(err)
	}
	if !bytes.Equal(body, s.expRes[k]) {
		return rec.fail(fmt.Errorf("op %d: result differs from the pair's first result", i))
	}
	return rec
}

func (s *hotState) collect(*pass, *opRecord) error { return nil }

// verify: each op already compared its bodies with the pair's set-up
// bodies; those are checked once here, including against a direct mine.
func (s *hotState) verify(p *pass, rec *opRecord) error {
	s.expOnce.Do(func() {
		for k, hp := range s.pairs {
			if _, err := checkMined(s.inputs[hp.ds].m, hp.p, s.expRes[k], s.expStr[k], s.refs[k]); err != nil {
				s.expErr = fmt.Errorf("hot pair %d (job %s): %w", k, s.expJob[k], err)
				return
			}
		}
	})
	return s.expErr
}

func (s *hotState) layers(p *pass, rec *opRecord) {
	hp := s.pairs[s.seq[rec.i]]
	renderLayer(p, rec.i, s.inputs[hp.ds].m, hp.p, s.expRes[s.seq[rec.i]])
}

// appendState drives append-remine: set-up uploads and mines an E13 ladder
// parent; every op appends a distinct near-replicate delta, mines the child
// incrementally (submit, stream), reads the diff and deletes the child.
type appendState struct {
	parent input
	p      core.Params
	primes []appendInput
	deltas []appendInput
	refs   map[int][]byte
}

type appendInput struct {
	name  string
	tsv   []byte
	delta *matrix.Matrix
	grown input
}

// ladder is E13's parent shape: every gene follows one shifted profile of
// 24 baseline arrays inside a single γ band plus six expression rungs at
// spacing 3, mined under absolute γ = 2 (ladderParams). With rng nil and
// 400 genes it is E13's matrix; otherwise the labels carry a random tag,
// every value a random offset and the per-gene shifts a random order, which
// changes the content but not the clusters' shape.
func ladder(genes int, rng *rand.Rand) *matrix.Matrix {
	const base, rungs = 24, 6
	tag, offset, order := "", 0.0, make([]int, genes)
	for g := range order {
		order[g] = g
	}
	if rng != nil {
		tag = fmt.Sprintf("-%04x", rng.Intn(1<<16))
		offset = 10 * rng.Float64()
		order = rng.Perm(genes)
	}
	m := matrix.New(genes, base+rungs)
	for j := 0; j < base+rungs; j++ {
		m.SetColName(j, fmt.Sprintf("c%02d%s", j, tag))
	}
	for g := 0; g < genes; g++ {
		m.SetRowName(g, fmt.Sprintf("g%03d%s", g, tag))
		shift := offset + 0.001*float64(order[g])
		for j := 0; j < base; j++ {
			m.Set(g, j, 0.02*float64(j)+shift)
		}
		for k := 0; k < rungs; k++ {
			m.Set(g, base+k, 3*float64(k+1)+shift)
		}
	}
	return m
}

func ladderParams(genes int) core.Params {
	return core.Params{MinG: genes / 10, MinC: ladderMinC, Gamma: 2, AbsoluteGamma: true, Epsilon: 0.05}
}

// ladderDelta is a near-replicate delta of the given number of arrays: each
// appended array sits inside the baseline band in every gene, at a random
// level, so it regulates only against the rungs and the baseline subtrees
// stay reusable. Ops alternate one and two arrays, so every seed's run does
// the same mix.
func ladderDelta(parent *matrix.Matrix, name string, arrays int, rng *rand.Rand) (appendInput, error) {
	d := matrix.New(parent.Rows(), arrays)
	for a := 0; a < arrays; a++ {
		d.SetColName(a, fmt.Sprintf("%s-%c", name, 'a'+a))
		level := 0.05 + 0.35*rng.Float64()
		for g := 0; g < parent.Rows(); g++ {
			d.SetRowName(g, parent.RowName(g))
			d.Set(g, a, level+0.001*float64(g))
		}
	}
	var buf bytes.Buffer
	if err := d.WriteTSV(&buf); err != nil {
		return appendInput{}, err
	}
	grown, err := matrix.AppendConditions(parent, d)
	if err != nil {
		return appendInput{}, err
	}
	return appendInput{name: name, tsv: buf.Bytes(), delta: d, grown: input{m: grown, id: grown.Hash()}}, nil
}

func (s *appendState) prepare(p *pass) error {
	genes := ladderGenes
	if p.opts.tiny {
		genes = 40
	}
	var err error
	if s.parent, err = newInput(ladder(genes, nil)); err != nil {
		return err
	}
	s.p = ladderParams(genes)
	rng := rand.New(rand.NewSource(subSeed(p.opts.seed, "append", 0)))
	s.primes = make([]appendInput, appendPrimeOps)
	for k := range s.primes {
		if s.primes[k], err = ladderDelta(s.parent.m, fmt.Sprintf("prime%d", k), 1+k%2, rng); err != nil {
			return err
		}
	}
	s.deltas = make([]appendInput, p.ops)
	for i := range s.deltas {
		if s.deltas[i], err = ladderDelta(s.parent.m, fmt.Sprintf("op%04d", i), 1+i%2, rng); err != nil {
			return err
		}
	}
	s.refs = make(map[int][]byte)
	for i := range sampleOps(p.opts.seed, p.ops, refCount(p)) {
		if s.refs[i], err = referenceResult(s.deltas[i].grown.m, s.p); err != nil {
			return err
		}
	}
	return nil
}

func (s *appendState) setup(p *pass, c *client) error {
	mn, err := mineOnce(c, nil, s.parent, "ladder", s.p, p.opts.nproc)
	if err != nil {
		return err
	}
	if _, err := checkMined(s.parent.m, s.p, mn.result, mn.stream, nil); err != nil {
		return fmt.Errorf("ladder parent: %w", err)
	}
	for k, in := range s.primes {
		if rec := s.appendOp(p, c, nil, in); rec.err != nil {
			return fmt.Errorf("priming op %d: %w", k, rec.err)
		}
	}
	return nil
}

func (s *appendState) op(p *pass, c *client, sp *obs.Span, i int) *opRecord {
	return s.appendOp(p, c, sp, s.deltas[i])
}

func (s *appendState) appendOp(p *pass, c *client, sp *obs.Span, in appendInput) *opRecord {
	child := in.grown.id
	rec := &opRecord{first: -1}
	data, err := c.call(sp, "append", http.MethodPost,
		"/datasets/"+s.parent.id+"/append?axis=conditions&name="+in.name, in.tsv, http.StatusCreated)
	if err != nil {
		return rec.fail(err)
	}
	if err := checkDatasetID(data, child); err != nil {
		return rec.fail(err)
	}
	job, t, err := submit(c, sp, submitBody(child, s.p, p.opts.nproc))
	rec.job = job
	if err != nil {
		return rec.fail(err)
	}
	rec.stream, rec.first, err = c.stream(sp, job, t)
	if err != nil {
		return rec.fail(err)
	}
	rec.diff, err = c.call(sp, "diff", http.MethodGet, "/datasets/"+child+"/diff/"+s.parent.id, nil, http.StatusOK)
	if err != nil {
		return rec.fail(err)
	}
	_, err = c.call(sp, "delete", http.MethodDelete, "/datasets/"+child, nil, http.StatusNoContent)
	return rec.fail(err)
}

// collect reads the child's result after the drain; the checks compare the
// op's stream and diff with it.
func (s *appendState) collect(p *pass, rec *opRecord) error {
	var err error
	rec.result, err = p.inst.c.call(nil, "", http.MethodGet, "/jobs/"+rec.job+"/result", nil, http.StatusOK)
	rec.resultBytes = len(rec.result)
	return err
}

func (s *appendState) verify(p *pass, rec *opRecord) error {
	v, err := checkJob(p, rec)
	if err != nil {
		return err
	}
	if v.Incremental == nil || !v.Incremental.Incremental {
		return fmt.Errorf("job %s: not mined incrementally (%+v)", rec.job, v.Incremental)
	}
	in := s.deltas[rec.i]
	doc, err := checkMined(in.grown.m, s.p, rec.result, rec.stream, s.refs[rec.i])
	if err != nil {
		return err
	}
	var diff service.DiffDocument
	if err := json.Unmarshal(rec.diff, &diff); err != nil {
		return fmt.Errorf("diff: %w", err)
	}
	switch {
	case diff.Schema != service.DiffSchemaID || diff.Dataset != in.grown.id || diff.Parent != s.parent.id || diff.Job != rec.job:
		return fmt.Errorf("diff header %s %s→%s job %s", diff.Schema, diff.Parent, diff.Dataset, diff.Job)
	case len(diff.Added)+len(diff.Grown)+diff.Unchanged != len(doc.Clusters):
		return fmt.Errorf("diff covers %d+%d+%d clusters, child has %d",
			len(diff.Added), len(diff.Grown), diff.Unchanged, len(doc.Clusters))
	}
	return nil
}

func (s *appendState) layers(p *pass, rec *opRecord) {
	in := s.deltas[rec.i]
	timeLayer(p, "matrix.read_tsv", rec.i, func() { matrix.ReadTSV(bytes.NewReader(in.tsv)) })
	timeLayer(p, "matrix.append", rec.i, func() { matrix.AppendConditions(s.parent.m, in.delta) })
	timeLayer(p, "matrix.hash", rec.i, func() { in.grown.m.Hash() })
	renderLayer(p, rec.i, in.grown.m, s.p, rec.result)
}
