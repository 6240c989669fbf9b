// Package regcluster is a Go implementation of the reg-cluster model and
// mining algorithm from "Mining Shifting-and-Scaling Co-Regulation Patterns
// on Gene Expression Profiles" (Xu, Lu, Tung, Wang — ICDE 2006).
//
// A reg-cluster is a bicluster X × Y of genes and experimental conditions in
// which every gene's expression either strictly rises (p-members) or strictly
// falls (n-members) along the condition chain Y, every step is a significant
// regulation with respect to the per-gene threshold γ_i, and all genes agree
// (within the coherence threshold ε) on the relative step sizes. This
// captures arbitrary shifting-and-scaling patterns d_i = s1·d_j + s2 with
// positive or negative scaling — strictly more general than the pure shifting
// (pCluster/δ-cluster) and pure scaling (triCluster) pattern models.
//
// Basic use:
//
//	m, err := regcluster.ReadTSVFile("expression.tsv")
//	...
//	res, err := regcluster.Mine(m, regcluster.Params{
//		MinG: 20, MinC: 6, Gamma: 0.05, Epsilon: 1.0,
//	})
//	for _, b := range res.Clusters {
//		fmt.Println(b)
//	}
//
// The subpackages under internal/ implement the machinery (the RWave^γ
// index, the depth-first chain miner, baseline biclustering algorithms, the
// synthetic workload generator and the evaluation toolkit); this package is
// the stable public surface over them.
package regcluster

import (
	"context"
	"io"

	"regcluster/internal/core"
	"regcluster/internal/eval"
	"regcluster/internal/matrix"
	"regcluster/internal/report"
	"regcluster/internal/rwave"
	"regcluster/internal/service"
	"regcluster/internal/significance"
	"regcluster/internal/synthetic"
)

// Matrix is a dense, labelled gene × condition expression matrix.
type Matrix = matrix.Matrix

// NewMatrix returns a rows×cols zero matrix with generated gene/condition
// names.
func NewMatrix(rows, cols int) *Matrix { return matrix.New(rows, cols) }

// MatrixFromRows builds a matrix from a slice of equal-length rows.
func MatrixFromRows(rows [][]float64) *Matrix { return matrix.FromRows(rows) }

// ReadTSV parses a tab-separated expression matrix (optional header line;
// "NA"/empty cells become NaN).
func ReadTSV(r io.Reader) (*Matrix, error) { return matrix.ReadTSV(r) }

// ReadTSVFile reads a matrix from the named TSV file.
func ReadTSVFile(path string) (*Matrix, error) { return matrix.ReadTSVFile(path) }

// Params are the mining parameters: MinG, MinC, the regulation threshold
// Gamma (Equation 4) and the coherence threshold Epsilon (Definition 3.2),
// plus safety caps and ablation switches.
type Params = core.Params

// Bicluster is one mined reg-cluster: the representative regulation chain
// plus its p-members and n-members.
type Bicluster = core.Bicluster

// Result bundles the mined clusters with work statistics.
type Result = core.Result

// Stats counts the work performed by one Mine call.
type Stats = core.Stats

// Mine discovers all reg-clusters of m under p, on the calling goroutine.
func Mine(m *Matrix, p Params) (*Result, error) { return core.Mine(m, p) }

// Visitor receives mined clusters as the search discovers them; returning
// false stops the search, leaving exactly the prefix of Mine's output.
type Visitor = core.Visitor

// Observer exposes live, monotone node/cluster counters while a mining call
// runs — progress reporting for long jobs. The counters are approximate
// during truncated runs (they may overshoot the settled Stats); the returned
// Stats remain authoritative.
type Observer = core.Observer

// MineOptions are the optional parts of a MineWith run: the worker count
// (<= 0 selects GOMAXPROCS; 1 runs on the calling goroutine), a streaming
// Visit, a live Observer, a Resume checkpoint with Checkpoint emission, and
// a prebuilt model set from BuildModels.
type MineOptions = core.Options

// MineWith mines m under p with the given options. Results — clusters, order
// and Stats — are identical to Mine's for any worker count, including runs
// truncated by the global MaxClusters/MaxNodes caps or a visitor stop. ctx is
// observed by every worker; once it expires the call returns the context's
// error. With Visit set, clusters stream to it and the Result carries only
// Stats.
func MineWith(ctx context.Context, m *Matrix, p Params, o MineOptions) (*Result, error) {
	return core.MineWith(ctx, m, p, o)
}

// ValidateWorkers rejects worker counts above max (when max > 0). Zero and
// negative counts are always valid: they select GOMAXPROCS.
func ValidateWorkers(workers, max int) error { return core.ValidateWorkers(workers, max) }

// ModelSet is a matrix's prebuilt RWave^γ index (Section 3): the model of
// every gene and the condition-pair tables, from BuildModels. It is
// immutable and safe to share across concurrent mining runs.
type ModelSet = rwave.Set

// BuildModels constructs the RWave model set Mine would build internally. The
// index depends only on the matrix and the γ-scheme (Gamma/AbsoluteGamma or
// CustomGammas) — not on Epsilon, MinG, MinC or the caps — so a parameter
// sweep over those knobs can build once and mine each point with
// MineOptions.Models. A
// non-nil Observer with an attached span records the construction; pass nil
// otherwise.
func BuildModels(m *Matrix, p Params, o *Observer) (*ModelSet, error) {
	return core.BuildModels(m, p, o)
}

// ModelKey names the model set BuildModels(m, p) produces, for a matrix
// identified by datasetHash: two (dataset, Params) pairs share a key exactly
// when they share a model set. Use it to index caches of prebuilt models.
func ModelKey(datasetHash string, p Params) string { return core.ModelKey(datasetHash, p) }

// AppendConditions grows base with the delta's columns: the delta must carry
// exactly base's genes (same names, same order) and only new condition names.
// Base indices stay valid in the result; the delta's conditions land after
// them. Neither input is modified.
func AppendConditions(base, delta *Matrix) (*Matrix, error) {
	return matrix.AppendConditions(base, delta)
}

// AppendGenes grows base with the delta's rows, symmetric to
// AppendConditions along the gene axis.
func AppendGenes(base, delta *Matrix) (*Matrix, error) {
	return matrix.AppendGenes(base, delta)
}

// RepairModels updates a parent matrix's model set for a child matrix grown
// by AppendConditions, splicing the appended columns into each gene's sorted
// order instead of rebuilding from scratch. The returned set is byte-identical
// to BuildModels(child, p, o); the int reports how many genes took the
// splice fast path (the rest rebuilt — e.g. on a per-gene threshold that
// drifted with the grown value range).
func RepairModels(child *Matrix, p Params, parent *ModelSet, o *Observer) (*ModelSet, int, error) {
	return core.RepairModels(child, p, parent, o)
}

// MineParent is a settled run MineWith may reuse through
// MineOptions.Parent: the matrix it mined and its Result under the same
// Params. On a matrix grown from it by AppendConditions, MineWith mines only
// the subtrees the appended conditions can reach and splices the rest from
// the parent's Result; the output is byte-identical to a cold mine for any
// worker count.
type MineParent = core.Parent

// IncrementalInfo is Result.Incremental of a run with MineOptions.Parent:
// the subtrees spliced from the parent result versus mined, or the reason
// the run mined cold instead.
type IncrementalInfo = core.IncrementalInfo

// ThresholdsRangeFraction, ThresholdsMeanFraction and ThresholdsNearestPair
// compute alternative per-gene regulation thresholds (Section 3.1) for
// Params.CustomGammas.
func ThresholdsRangeFraction(m *Matrix, gamma float64) []float64 {
	return core.ThresholdsRangeFraction(m, gamma)
}

// ThresholdsMeanFraction returns gamma × mean(|row|) per gene.
func ThresholdsMeanFraction(m *Matrix, gamma float64) []float64 {
	return core.ThresholdsMeanFraction(m, gamma)
}

// ThresholdsNearestPair returns the average adjacent gap of each gene's
// sorted profile (the OP-Cluster style threshold).
func ThresholdsNearestPair(m *Matrix) []float64 { return core.ThresholdsNearestPair(m) }

// CheckBicluster verifies a cluster against Definition 3.2 directly from the
// expression values, independent of the mining index.
func CheckBicluster(m *Matrix, p Params, b *Bicluster) error {
	return core.CheckBicluster(m, p, b)
}

// CoherenceH computes the Equation 7 coherence score
// H(gene, c1, c2, ck, ck1).
func CoherenceH(m *Matrix, gene, c1, c2, ck, ck1 int) float64 {
	return core.CoherenceH(m, gene, c1, c2, ck, ck1)
}

// SyntheticConfig parameterizes the Section 5 synthetic data generator.
type SyntheticConfig = synthetic.Config

// Embedded is the ground truth of one planted cluster.
type Embedded = synthetic.Embedded

// GenerateSynthetic builds a synthetic dataset with planted perfect
// shifting-and-scaling clusters and returns the ground truth alongside.
func GenerateSynthetic(cfg SyntheticConfig) (*Matrix, []Embedded, error) {
	return synthetic.Generate(cfg)
}

// DefaultSyntheticConfig returns the paper's default generator setting
// (#g = 3000, #cond = 30, #clus = 30).
func DefaultSyntheticConfig() SyntheticConfig { return synthetic.DefaultConfig() }

// RelevanceRecovery scores mined clusters against planted ground truth using
// gene-set match scores.
func RelevanceRecovery(mined []*Bicluster, truth []Embedded) (relevance, recovery float64) {
	return eval.RelevanceRecovery(mined, truth)
}

// OverlapStats summarizes pairwise cell-overlap fractions of a result set.
type OverlapStats = eval.OverlapStats

// Overlaps computes overlap statistics over all cluster pairs (the
// Section 5.2 statistic).
func Overlaps(clusters []*Bicluster) OverlapStats { return eval.Overlaps(clusters) }

// NonOverlapping greedily selects up to k pairwise non-overlapping clusters,
// largest first.
func NonOverlapping(clusters []*Bicluster, k int) []*Bicluster {
	return eval.NonOverlapping(clusters, k)
}

// MaximalOnly drops clusters fully contained in another cluster.
func MaximalOnly(clusters []*Bicluster) []*Bicluster { return eval.MaximalOnly(clusters) }

// SignificanceOptions configures the permutation significance test.
type SignificanceOptions = significance.Options

// SignificanceResult pairs a cluster with its empirical p-value.
type SignificanceResult = significance.Result

// SignificanceTest estimates an empirical p-value for every mined cluster by
// per-gene permutation testing (an extension beyond the paper's GO-based
// assessment). It reruns the miner opt.Rounds times on shuffled copies of m.
func SignificanceTest(m *Matrix, p Params, clusters []*Bicluster, opt SignificanceOptions) ([]SignificanceResult, error) {
	return significance.Test(m, p, clusters, opt)
}

// ResultSchemaID identifies the stable JSON result schema emitted by Report,
// `regcluster -json` and the service's result endpoints.
const ResultSchemaID = report.SchemaID

// Document is the stable JSON form of a mining result: parameters, stats and
// name-resolved clusters under the ResultSchemaID schema.
type Document = report.Document

// NamedCluster is one cluster with gene/condition names resolved, the chain
// direction, and signed members (p-members "+", n-members "-").
type NamedCluster = report.NamedCluster

// Member is one gene of a NamedCluster with its regulation sign.
type Member = report.Member

// Report converts a mining result into its stable JSON document form.
func Report(m *Matrix, p Params, res *Result) *Document { return report.FromResult(m, p, res) }

// NamedFromBicluster resolves one cluster's indices to names.
func NamedFromBicluster(m *Matrix, b *Bicluster) NamedCluster { return report.Named(m, b) }

// ReadReport parses a document previously written by Report (or the CLI's
// -json mode), rejecting documents with a foreign schema identifier.
func ReadReport(r io.Reader) (*Document, error) { return report.Read(r) }

// ServiceConfig parameterizes the mining HTTP service.
type ServiceConfig = service.Config

// DeltaInfo is the lineage the service records for a dataset produced by an
// append delta (POST /datasets/{id}/append): the parent's content hash, the
// grown axis, and the parent's dimensions.
type DeltaInfo = service.DeltaInfo

// Service is the embeddable mining service: dataset registry, async job
// manager, result cache and metrics behind an http.Handler. Run it
// standalone with `regserver`.
type Service = service.Server

// NewService builds a mining service; mount NewService(cfg).Handler() on any
// mux, and call Shutdown to drain jobs on exit. With ServiceConfig.DataDir
// set, prefer OpenService: New panics where Open reports the boot error.
func NewService(cfg ServiceConfig) *Service { return service.New(cfg) }

// OpenService builds a mining service, running crash recovery against
// cfg.DataDir (replay the job journal, re-register datasets, restore the
// result cache, resume interrupted jobs) before returning. Call Close after
// Shutdown to release the journal.
func OpenService(cfg ServiceConfig) (*Service, error) { return service.Open(cfg) }
