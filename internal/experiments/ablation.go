package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"regcluster/internal/core"
	"regcluster/internal/synthetic"
)

// AblationVariant is one pruning configuration of experiment E8.
type AblationVariant struct {
	Name   string
	Modify func(*core.Params)
}

// AblationVariants lists the paper configuration and each pruning disabled
// in turn. The paper configuration is the reference semantics. Disabling
// (3a), (3b) or the RWave candidate scan changes only the work; disabling
// pruning (2) can also add valid clusters that the paper configuration
// drops (core.Params.DisableChainLengthPruning), though not on E8's planted
// workload. AblationPoint.SameOutput reports which case each run is.
func AblationVariants() []AblationVariant {
	return []AblationVariant{
		{"full (paper)", func(p *core.Params) {}},
		{"no pruning (2) MinC length", func(p *core.Params) { p.DisableChainLengthPruning = true }},
		{"no pruning (3a) majority", func(p *core.Params) { p.DisableMajorityPruning = true }},
		{"no pruning (3b) dedup cut", func(p *core.Params) { p.DisableDedupPruning = true }},
		{"naive candidates (no RWave scan)", func(p *core.Params) { p.NaiveCandidates = true }},
		{"all disabled", func(p *core.Params) {
			p.DisableChainLengthPruning = true
			p.DisableMajorityPruning = true
			p.DisableDedupPruning = true
			p.NaiveCandidates = true
		}},
	}
}

// AblationPoint is the measurement of one variant.
type AblationPoint struct {
	Name     string
	Runtime  time.Duration
	Clusters int
	Stats    core.Stats
	// SameOutput reports whether the variant's cluster set matches the
	// paper configuration's.
	SameOutput bool
}

// Ablation runs E8 on a synthetic dataset of the given size.
func Ablation(genes, conds, clusters int, seed int64) ([]AblationPoint, error) {
	cfg := synthetic.Config{Genes: genes, Conds: conds, Clusters: clusters, Seed: seed}
	m, _, err := synthetic.Generate(cfg)
	if err != nil {
		return nil, err
	}
	base := MiningDefaults(genes)
	var reference []string
	var out []AblationPoint
	for i, v := range AblationVariants() {
		p := base
		v.Modify(&p)
		start := time.Now()
		res, err := core.Mine(m, p)
		if err != nil {
			return nil, err
		}
		keys := make([]string, len(res.Clusters))
		for k, b := range res.Clusters {
			keys[k] = b.Key()
		}
		sort.Strings(keys)
		if i == 0 {
			reference = keys
		}
		out = append(out, AblationPoint{
			Name:       v.Name,
			Runtime:    time.Since(start),
			Clusters:   len(res.Clusters),
			Stats:      res.Stats,
			SameOutput: equalStrings(keys, reference),
		})
	}
	return out, nil
}

// WriteAblation renders the E8 report.
func WriteAblation(w io.Writer, points []AblationPoint) {
	fmt.Fprintln(w, "E8 — pruning-strategy ablation (output-preserving; work should rise as prunings drop)")
	fmt.Fprintf(w, "%-35s %12s %10s %10s %12s %6s\n", "variant", "runtime", "clusters", "nodes", "candidates", "same?")
	for _, p := range points {
		fmt.Fprintf(w, "%-35s %12s %10d %10d %12d %6v\n",
			p.Name, p.Runtime.Round(time.Millisecond), p.Clusters, p.Stats.Nodes,
			p.Stats.CandidatesExamined, p.SameOutput)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
