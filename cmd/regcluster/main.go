// Command regcluster mines reg-clusters from a tab-separated gene expression
// matrix and prints them in the paper's chain notation.
//
// Usage:
//
//	regcluster -in expression.tsv -ming 20 -minc 6 -gamma 0.05 -epsilon 1.0
//
// The input format is one header line (gene column label plus condition
// names) followed by one line per gene; "NA"/empty cells are treated as
// missing and imputed with the row mean. With -json the clusters are emitted
// as a report document instead of text.
//
// -cpuprofile and -memprofile write pprof profiles of the run (the heap
// profile is taken right after mining, before report rendering), so perf
// work never needs a code edit to capture one:
//
//	regcluster -in expression.tsv -cpuprofile cpu.pprof -memprofile mem.pprof
//	go tool pprof cpu.pprof
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"regcluster/internal/core"
	"regcluster/internal/dataset"
	"regcluster/internal/eval"
	"regcluster/internal/matrix"
	"regcluster/internal/obs"
	"regcluster/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "regcluster:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("regcluster", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in        = fs.String("in", "", "input TSV file (required)")
		minG      = fs.Int("ming", 20, "minimum number of genes per cluster (MinG)")
		minC      = fs.Int("minc", 6, "minimum number of conditions per cluster (MinC)")
		gamma     = fs.Float64("gamma", 0.05, "regulation threshold γ (fraction of each gene's range)")
		epsilon   = fs.Float64("epsilon", 1.0, "coherence threshold ε")
		absGamma  = fs.Bool("absgamma", false, "treat -gamma as an absolute per-gene threshold")
		gammaMode = fs.String("gammamode", "range", `per-gene threshold scheme: "range" (Equation 4), "mean" (γ × mean|expr|), "nearestpair" (average adjacent gap; ignores -gamma)`)
		maxOut    = fs.Int("max", 0, "stop after this many clusters, enforced globally across workers (0 = unlimited)")
		maxNodes  = fs.Int("maxnodes", 0, "bound the search-tree nodes visited, enforced globally across workers (0 = unlimited)")
		timeout   = fs.Duration("timeout", 0, "abort mining after this duration (0 = no limit)")
		maximal   = fs.Bool("maximal", false, "post-filter: drop clusters contained in another cluster")
		asJSON    = fs.Bool("json", false, "emit JSON instead of text")
		showStats = fs.Bool("stats", false, "print search statistics to stderr")
		parallel  = fs.Int("parallel", 1, "worker count (0 = all cores, 1 = sequential)")
		validate  = fs.Bool("validate", false, "re-check every cluster against Definition 3.2 before output")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProf   = fs.String("memprofile", "", "write a heap profile taken after mining to this file")
		traceRun  = fs.Bool("trace", false, "record a span trace of the run (index build, per-subtree mining) and print it to stderr after mining")
		logFormat = fs.String("log-format", "text", `-trace output format: "text" (indented tree) or "json"`)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	traceFmt, err := obs.ParseFormat(*logFormat)
	if err != nil {
		return err
	}
	if *in == "" {
		fs.Usage()
		return fmt.Errorf("-in is required")
	}
	m, err := dataset.LoadTSV(*in)
	if err != nil {
		return err
	}
	p := core.Params{
		MinG: *minG, MinC: *minC,
		Gamma: *gamma, Epsilon: *epsilon,
		AbsoluteGamma: *absGamma,
		MaxClusters:   *maxOut,
		MaxNodes:      *maxNodes,
	}
	switch *gammaMode {
	case "range":
		// Equation 4 default; Gamma/AbsoluteGamma apply as-is.
	case "mean":
		p.CustomGammas = core.ThresholdsMeanFraction(m, *gamma)
	case "nearestpair":
		p.CustomGammas = core.ThresholdsNearestPair(m)
	default:
		return fmt.Errorf("unknown -gammamode %q", *gammaMode)
	}
	if err := p.Validate(); err != nil {
		return err
	}
	// A worker count beyond any plausible machine is a typo, not a request.
	if err := core.ValidateWorkers(*parallel, 4096); err != nil {
		return err
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	start := time.Now()
	var tracer *obs.Tracer
	var root *obs.Span
	var ob *core.Observer
	if *traceRun {
		// The observer threads a span through the run; mining output is
		// deterministic for any worker count, so tracing changes nothing
		// but the stderr report.
		tracer = obs.New()
		root = tracer.Start("mine")
		ob = &core.Observer{}
		ob.SetSpan(root)
	}
	res, err := core.MineWith(ctx, m, p, core.Options{Workers: *parallel, Observer: ob})
	root.End()
	if err != nil {
		return err
	}
	if tracer != nil {
		if traceFmt == obs.FormatJSON {
			enc := json.NewEncoder(stderr)
			enc.SetIndent("", "  ")
			enc.Encode(tracer.Tree())
		} else {
			fmt.Fprint(stderr, obs.RenderTree(tracer.Tree()))
		}
	}
	if *memProf != "" {
		f, ferr := os.Create(*memProf)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile shows retained memory
		if werr := pprof.WriteHeapProfile(f); werr != nil {
			return fmt.Errorf("memprofile: %v", werr)
		}
	}
	clusters := res.Clusters
	if *maximal {
		clusters = eval.MaximalOnly(clusters)
	}
	if *validate {
		if err := eval.ValidateAll(m, p, clusters); err != nil {
			return err
		}
		fmt.Fprintln(stderr, "regcluster: all clusters validate against Definition 3.2")
	}
	if *showStats {
		fmt.Fprintf(stderr, "mined %d clusters (%d after filters) in %s; stats %+v\n",
			len(res.Clusters), len(clusters), time.Since(start).Round(time.Millisecond), res.Stats)
	}
	if *asJSON {
		doc := report.FromResult(m, p, &core.Result{Clusters: clusters, Stats: res.Stats})
		return doc.Write(stdout)
	}
	writeText(stdout, m, clusters)
	return nil
}

func writeText(w io.Writer, m *matrix.Matrix, clusters []*core.Bicluster) {
	for i, b := range clusters {
		g, c := b.Dims()
		fmt.Fprintf(w, "cluster %d: %d genes x %d conditions\n", i+1, g, c)
		fmt.Fprintf(w, "  chain:")
		for _, cc := range b.Chain {
			fmt.Fprintf(w, " %s", m.ColName(cc))
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "  p-members:")
		for _, gg := range b.PMembers {
			fmt.Fprintf(w, " %s", m.RowName(gg))
		}
		fmt.Fprintln(w)
		if len(b.NMembers) > 0 {
			fmt.Fprintf(w, "  n-members:")
			for _, gg := range b.NMembers {
				fmt.Fprintf(w, " %s", m.RowName(gg))
			}
			fmt.Fprintln(w)
		}
	}
}
