// Package experiments regenerates every table and figure of the reg-cluster
// paper's evaluation (Section 5), plus the running-example walk-through and
// the pruning ablation of DESIGN.md. Each experiment returns structured
// results and can render a textual report; cmd/experiments is the CLI front
// end and bench_test.go wraps the same entry points in testing.B benchmarks.
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"regcluster/internal/core"
	"regcluster/internal/plot"
	"regcluster/internal/synthetic"
)

// MiningDefaults are the parameters of the Figure 7 efficiency experiments:
// MinG = 0.01 × #g, MinC = 6, γ = 0.1, ε = 0.01.
func MiningDefaults(genes int) core.Params {
	minG := genes / 100
	if minG < 2 {
		minG = 2
	}
	return core.Params{MinG: minG, MinC: 6, Gamma: 0.1, Epsilon: 0.01}
}

// SweepPoint is one measurement of a Figure 7 series.
type SweepPoint struct {
	// Param is the swept value (#genes, #conditions or #clusters).
	Param int
	// Runtime is the wall-clock mining time (excluding data generation).
	Runtime time.Duration
	// Clusters is the number of reg-clusters output.
	Clusters int
	// Nodes is the number of search-tree nodes visited.
	Nodes int
}

// Figure7Axis selects one of the three Figure 7 panels.
type Figure7Axis int

const (
	// AxisGenes varies #g (left panel).
	AxisGenes Figure7Axis = iota
	// AxisConds varies #cond (middle panel).
	AxisConds
	// AxisClusters varies #clus (right panel).
	AxisClusters
)

func (a Figure7Axis) String() string {
	switch a {
	case AxisGenes:
		return "#genes"
	case AxisConds:
		return "#conditions"
	case AxisClusters:
		return "#clusters"
	}
	return "?"
}

// DefaultSweep returns the points used for each panel.
func DefaultSweep(axis Figure7Axis) []int {
	switch axis {
	case AxisGenes:
		return []int{1000, 2000, 3000, 4000, 5000}
	case AxisConds:
		return []int{10, 15, 20, 25, 30}
	case AxisClusters:
		return []int{10, 20, 30, 40, 50}
	}
	return nil
}

// Figure7 runs one panel of the efficiency experiment: it varies one
// generator input over the given points while keeping the paper defaults
// (#g = 3000, #cond = 30, #clus = 30) for the other two, mines each dataset
// with MiningDefaults, and reports the runtime per point. workers > 1 (or
// <= 0 for GOMAXPROCS) mines with the parallel worker pool, whose output is
// identical to the sequential miner's.
func Figure7(axis Figure7Axis, points []int, seed int64, workers int) ([]SweepPoint, error) {
	if points == nil {
		points = DefaultSweep(axis)
	}
	out := make([]SweepPoint, 0, len(points))
	for _, v := range points {
		cfg := synthetic.DefaultConfig()
		cfg.Seed = seed
		switch axis {
		case AxisGenes:
			cfg.Genes = v
		case AxisConds:
			cfg.Conds = v
		case AxisClusters:
			cfg.Clusters = v
		}
		m, _, err := synthetic.Generate(cfg)
		if err != nil {
			return nil, err
		}
		p := MiningDefaults(cfg.Genes)
		start := time.Now()
		res, err := core.MineWith(context.Background(), m, p, core.Options{Workers: workers})
		if err != nil {
			return nil, err
		}
		out = append(out, SweepPoint{
			Param:    v,
			Runtime:  time.Since(start),
			Clusters: len(res.Clusters),
			Nodes:    res.Stats.Nodes,
		})
	}
	return out, nil
}

// WriteFigure7 renders one panel as the paper's series (runtime versus the
// swept parameter), with an ASCII curve.
func WriteFigure7(w io.Writer, axis Figure7Axis, points []SweepPoint) {
	fmt.Fprintf(w, "Figure 7 — runtime vs %s (defaults: #g=3000 #cond=30 #clus=30; MinG=0.01*#g MinC=6 γ=0.1 ε=0.01)\n", axis)
	fmt.Fprintf(w, "%12s %12s %10s %10s\n", axis, "runtime", "clusters", "nodes")
	ys := make([]float64, len(points))
	xs := make([]string, len(points))
	for i, p := range points {
		fmt.Fprintf(w, "%12d %12s %10d %10d\n", p.Param, p.Runtime.Round(time.Millisecond), p.Clusters, p.Nodes)
		ys[i] = p.Runtime.Seconds()
		xs[i] = fmt.Sprintf("%d", p.Param)
	}
	fmt.Fprint(w, plot.New(48, 10).
		Title(fmt.Sprintf("runtime (s) vs %s", axis)).
		Add(plot.Series{Name: "runtime", Ys: ys}).
		XLabels(xs).
		Render())
}
