package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"regcluster/internal/core"
	"regcluster/internal/paperdata"
)

// lineBuffer is a concurrency-safe writer the server goroutine logs into.
type lineBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lineBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lineBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServerLifecycle boots regserver on a random port, runs one mining job
// end to end over HTTP, verifies the cache hit on resubmission, and shuts the
// process down cleanly via context cancellation (the signal path).
func TestServerLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr lineBuffer
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx, []string{"-addr", "127.0.0.1:0", "-jobs", "1", "-grace", "5s"}, &stdout, &stderr)
	}()

	// The first stdout line announces the bound address.
	base := ""
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		out := stdout.String()
		if i := strings.Index(out, "http://"); i >= 0 {
			if j := strings.IndexByte(out[i:], '\n'); j > 0 {
				base = strings.TrimSpace(out[i : i+j])
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if base == "" {
		t.Fatalf("no listening line printed; stdout %q stderr %q", stdout.String(), stderr.String())
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d", resp.StatusCode)
	}

	// Upload the Table 1 matrix.
	m := paperdata.RunningExample()
	var tsv bytes.Buffer
	if err := m.WriteTSV(&tsv); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base+"/datasets?name=table1", "text/tab-separated-values", &tsv)
	if err != nil {
		t.Fatal(err)
	}
	var ds struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ds); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	submit := func() (id string, cached bool) {
		body, _ := json.Marshal(map[string]any{
			"dataset": ds.ID,
			"params":  core.Params{MinG: 3, MinC: 5, Gamma: 0.15, Epsilon: 0.1},
		})
		resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("submit %d: %s", resp.StatusCode, msg)
		}
		var v struct {
			ID     string `json:"id"`
			Cached bool   `json:"cached"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v.ID, v.Cached
	}

	jobID, cached := submit()
	if cached {
		t.Fatal("first submission cached")
	}
	var status string
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); {
		resp, err := http.Get(base + "/jobs/" + jobID)
		if err != nil {
			t.Fatal(err)
		}
		var v struct {
			Status   string `json:"status"`
			Clusters int    `json:"clusters"`
		}
		json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		status = v.Status
		if status == "done" {
			if v.Clusters != 1 {
				t.Fatalf("table 1 mined %d clusters, want 1", v.Clusters)
			}
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if status != "done" {
		t.Fatalf("job stuck in %q", status)
	}
	if _, cached := submit(); !cached {
		t.Fatal("resubmission not served from cache")
	}

	// Context cancellation must drain and exit cleanly, like SIGTERM.
	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run returned %v; stderr %q", err, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down")
	}
	if out := stdout.String(); !strings.Contains(out, "bye") {
		t.Fatalf("no clean-shutdown line in %q", out)
	}
}

// startProc launches run() with the given args and returns the base URL it
// announced on stdout plus the error channel; the server dies with ctx.
func startProc(t *testing.T, ctx context.Context, args ...string) (string, *lineBuffer, chan error) {
	t.Helper()
	var stdout, stderr lineBuffer
	runErr := make(chan error, 1)
	go func() { runErr <- run(ctx, args, &stdout, &stderr) }()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		out := stdout.String()
		if i := strings.Index(out, "http://"); i >= 0 {
			if j := strings.IndexByte(out[i:], '\n'); j > 0 {
				// The line may carry trailing detail ("... (coordinator ...)");
				// the URL is its first token.
				return strings.Fields(out[i : i+j])[0], &stdout, runErr
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("no listening line printed; stdout %q stderr %q", stdout.String(), stderr.String())
	return "", nil, nil
}

// TestDistributedLifecycle boots a coordinator with no local workers and
// two worker processes (all via run(), the real CLI entry point), mines the
// Table 1 job through them, checks the worker-side probe, and shuts everything
// down cleanly.
func TestDistributedLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, _, coordErr := startProc(t, ctx,
		"-addr", "127.0.0.1:0", "-mode", "coordinator", "-local-workers", "0",
		"-lease-ttl", "2s", "-grace", "5s")
	wbase1, _, werr1 := startProc(t, ctx, "-addr", "127.0.0.1:0", "-mode", "worker", "-join", base, "-advertise", "w1")
	_, _, werr2 := startProc(t, ctx, "-addr", "127.0.0.1:0", "-mode", "worker", "-join", base, "-advertise", "w2")

	m := paperdata.RunningExample()
	var tsv bytes.Buffer
	if err := m.WriteTSV(&tsv); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/datasets?name=table1", "text/tab-separated-values", &tsv)
	if err != nil {
		t.Fatal(err)
	}
	var ds struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ds); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	body, _ := json.Marshal(map[string]any{
		"dataset": ds.ID,
		"params":  core.Params{MinG: 3, MinC: 5, Gamma: 0.15, Epsilon: 0.1},
	})
	resp, err = http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var v struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	status := ""
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline) && status != "done"; {
		resp, err := http.Get(base + "/jobs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		var jv struct {
			Status   string `json:"status"`
			Clusters int    `json:"clusters"`
			Error    string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&jv)
		resp.Body.Close()
		status = jv.Status
		if status == "done" && jv.Clusters != 1 {
			t.Fatalf("distributed table 1 mined %d clusters, want 1", jv.Clusters)
		}
		if status == "failed" {
			t.Fatalf("distributed job failed: %s", jv.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if status != "done" {
		t.Fatalf("distributed job stuck in %q", status)
	}

	// The worker probe reports its lease work.
	resp, err = http.Get(wbase1 + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var wh struct {
		Mode string `json:"mode"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&wh); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if wh.Mode != "worker" {
		t.Fatalf("worker probe mode %q", wh.Mode)
	}

	cancel()
	for _, ch := range []chan error{coordErr, werr1, werr2} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("process exited with %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("process did not shut down")
		}
	}
}

// TestModeFlagValidation covers the distributed flag-error paths.
func TestModeFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-mode", "worker"}, // worker without -join
		{"-mode", "single", "-join", "http://localhost"}, // -join outside worker mode
		{"-mode", "shard", "-addr", "127.0.0.1:0"},       // unknown mode
	}
	for _, args := range cases {
		var stdout, stderr lineBuffer
		if err := run(context.Background(), args, &stdout, &stderr); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestWorkerSlotsDefaultToCores: -slots 0 holds one lease per core, as its
// help says, and an explicit count passes through.
func TestWorkerSlotsDefaultToCores(t *testing.T) {
	for _, tc := range []struct{ flag, want int }{{0, runtime.GOMAXPROCS(0)}, {3, 3}} {
		cfg := workerOptions{join: "http://coordinator", advertise: "w", slots: tc.flag}.workerConfig(nil)
		if cfg.Slots != tc.want || cfg.Name != "w" || cfg.Coordinator != "http://coordinator" {
			t.Errorf("-slots %d: worker config %+v, want %d slots", tc.flag, cfg, tc.want)
		}
	}
}

// TestBadFlags covers the flag-error path.
func TestBadFlags(t *testing.T) {
	var stdout, stderr lineBuffer
	err := run(context.Background(), []string{"-no-such-flag"}, &stdout, &stderr)
	if err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestListenError covers an unbindable address.
func TestListenError(t *testing.T) {
	var stdout, stderr lineBuffer
	err := run(context.Background(), []string{"-addr", "256.0.0.1:1"}, &stdout, &stderr)
	if err == nil {
		t.Fatal("bogus address accepted")
	}
	_ = fmt.Sprint(err)
}
