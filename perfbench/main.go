// Command perfbench is the service benchmark of the regcluster repository.
//
// It opens service.Open in-process, serves Server.Handler() on loopback and
// drives it with closed-loop clients that each wait for their reply, the way
// the CLI and notebook callers do. One invocation runs one workload on inputs
// generated from one seed and prints, as its last line of standard output,
// one JSON object:
//
//	{"correct": true, "attempted": 100, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones listed in BENCHMARK.json;
// with -trace 1 the run first repeats the untraced pass and then a traced
// pass of the same workload and seed, and the metrics are the per-layer ones.
// Run it through perfbench/run.sh from the repository root; README.md next to
// this file documents the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the arguments, runs the requested workload and prints the
// result line. It returns the process exit code: 0 whenever a result line was
// printed (a failed check shows as "correct": false), 1 on a harness error
// that left no result, 2 on bad arguments.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 10, "nominal length of the timed phase; sets the fixed op count")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an added traced pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	opts := passOptions{seed: *seed, seconds: *seconds, nproc: runtime.NumCPU()}

	untraced, err := runPass(w, opts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res := untraced.endToEnd()
	if *trace == 1 {
		opts.traced = true
		traced, err := runPass(w, opts)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s traced pass: %v\n", w.name, err)
			return 1
		}
		res = perLayer(untraced, traced)
		fmt.Fprint(stdout, layerShares(untraced, traced, res))
		if err := writeSpans(traced); err != nil {
			fmt.Fprintf(stderr, "perfbench: write spans: %v\n", err)
		}
	}
	fmt.Fprintln(stdout, untraced.hostLine())
	for _, f := range res.failures {
		fmt.Fprintln(stderr, "perfbench: check failed:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
