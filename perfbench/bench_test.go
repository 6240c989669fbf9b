package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"regcluster/internal/obs"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{100, 0.9, 90, true},
		{99, 0.9, 90, false},
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
}

func TestFailedOpsMissEveryPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 1
	}
	for i := 0; i < 10; i++ {
		xs[i] = math.Inf(1)
	}
	if v, ok := percentile(xs, 0.9); !ok || v != 1 {
		t.Errorf("p90 with 10%% failed = %v, %v; want 1, true", v, ok)
	}
	xs[10] = math.Inf(1)
	if v, _ := percentile(xs, 0.9); !math.IsInf(v, 1) {
		t.Errorf("p90 with 11%% failed = %v; want +Inf", v)
	}
}

// burnState is an op that costs a known amount of CPU and allocation.
type burnState struct {
	cpu   time.Duration
	alloc int
	sink  [][]byte
}

func (s *burnState) prepare(*pass) error            { return nil }
func (s *burnState) setup(*pass, *client) error     { return nil }
func (s *burnState) collect(*pass, *opRecord) error { return nil }
func (s *burnState) verify(*pass, *opRecord) error  { return nil }
func (s *burnState) layers(*pass, *opRecord)        {}

func (s *burnState) op(p *pass, c *client, sp *obs.Span, i int) *opRecord {
	s.sink = append(s.sink, make([]byte, s.alloc))
	for c0 := processCPU(); processCPU()-c0 < s.cpu; {
	}
	return &opRecord{first: -1}
}

func TestPerOpCPUAndAllocationAccounting(t *testing.T) {
	st := &burnState{cpu: 3 * time.Millisecond, alloc: 1 << 20}
	p := &pass{
		w:     &workload{name: "burn", nClients: 1},
		opts:  passOptions{nproc: runtime.NumCPU()},
		ops:   50,
		state: st,
		inst:  &instance{},
	}
	p.measure()
	if len(p.blocks) != phaseBlocks {
		t.Fatalf("%d blocks, want %d", len(p.blocks), phaseBlocks)
	}
	r := p.endToEnd()
	if cpu := r.Metrics["cpu_ms_per_op"].Value; cpu < 3 || cpu > 3.5 {
		t.Errorf("cpu_ms_per_op = %v, want 3 ms plus little harness overhead", cpu)
	}
	alloc, cycles, _ := p.runtimePerOp()
	if alloc < 1 || alloc > 1.05 {
		t.Errorf("alloc per op = %v MiB, want 1 MiB plus little harness overhead", alloc)
	}
	if cycles < 0 {
		t.Errorf("gc cycles per op = %v", cycles)
	}
	if ok := r.Metrics["ok_ratio"].Value; ok != 1 || r.Attempted != 50 || !r.Correct {
		t.Errorf("ok_ratio %v attempted %d correct %v", ok, r.Attempted, r.Correct)
	}
}

func TestParseCPUStat(t *testing.T) {
	before := parseCPUStat([]byte("cpu  100 0 50 800 10 0 0 40 7 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n"))
	after := parseCPUStat([]byte("cpu  150 0 70 910 10 0 0 60 9 0\n"))
	if got := after.stealPctSince(before); math.Abs(got-10) > 1e-9 {
		t.Errorf("steal = %v%%, want 10%% (20 of 200 ticks)", got)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the harness must agree with.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestFullRunsSupportEveryPercentile checks that at BENCHMARK.json's
// run_seconds every workload keeps enough ops for each reported percentile.
func TestFullRunsSupportEveryPercentile(t *testing.T) {
	spec := readSpec(t)
	for _, w := range workloads {
		ops := w.opCount(passOptions{seconds: spec.RunSeconds, nproc: 2})
		firsts := ops
		if !w.mines {
			firsts = ops / streamEvery
		}
		if ops < 10*minTail || firsts < 10*minTail {
			t.Errorf("%s: %d ops, %d with a first cluster; p90 needs %d", w.name, ops, firsts, 10*minTail)
		}
		if w.name == "hot-reads" && ops < 100*minTail {
			t.Errorf("hot-reads: %d ops; op_p99_ms needs %d", ops, 100*minTail)
		}
	}
}

// TestTinyPassEveryWorkload runs a tiny untraced and traced pass of every
// workload and checks that each passes its output checks and emits metrics
// named and unitted as in BENCHMARK.json.
func TestTinyPassEveryWorkload(t *testing.T) {
	spec := readSpec(t)
	e2eUnits, layerUnits := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2eUnits[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layerUnits[m.Name] = m.Unit
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	for _, sw := range spec.Workloads {
		w, ok := workloadByName(sw.Name)
		if !ok {
			t.Errorf("BENCHMARK.json workload %s is unknown to the harness", sw.Name)
			continue
		}
		opts := passOptions{seed: 7, seconds: 1, tiny: true, nproc: runtime.NumCPU()}
		u, err := runPass(w, opts)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		opts.traced = true
		tr, err := runPass(w, opts)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		e2e, layers := u.endToEnd(), perLayer(u, tr)
		for _, r := range []result{e2e, layers} {
			if !r.Correct || r.Failed != 0 || r.Attempted != tinyOps {
				t.Errorf("%s: correct %v, %d of %d failed: %v", w.name, r.Correct, r.Failed, r.Attempted, r.failures)
			}
		}
		for name, m := range e2e.Metrics {
			if unit, ok := e2eUnits[name]; !ok || unit != m.Unit {
				t.Errorf("%s: end-to-end metric %s [%s] not in BENCHMARK.json as [%s]", w.name, name, m.Unit, unit)
			}
		}
		for name, m := range layers.Metrics {
			if unit, ok := layerUnits[name]; !ok || unit != m.Unit {
				t.Errorf("%s: per-layer metric %s [%s] not in BENCHMARK.json as [%s]", w.name, name, m.Unit, unit)
			}
		}
		for name := range layerUnits {
			if _, ok := layers.Metrics[name]; !ok {
				t.Errorf("%s: per-layer metric %s not emitted", w.name, name)
			}
		}
	}
}
