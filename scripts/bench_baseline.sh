#!/usr/bin/env bash
# Record a machine-readable benchmark baseline (BENCH_<n>.json).
#
# Usage:
#   scripts/bench_baseline.sh OUT.json [SPEC ...]
#
# Each SPEC is "<-bench regex>@<-benchtime>[@<package>]"; the package
# defaults to the root one (".", bench_test.go). The default set covers the
# E1-E8 evaluation benchmarks and E13's incremental re-mine at iteration
# counts that keep the whole recording under a few minutes, plus the index
# build every run pays (core.BuildModels), the kernel microbenchmarks of
# internal/core, the condition-pair table build of internal/rwave and the
# TSV parse of internal/matrix. One `go test` run per spec, all outputs
# concatenated and parsed by cmd/benchdiff into ns/op, B/op and allocs/op per
# benchmark (benchmark names are unique across the packages).
#
# BEST_OF=N (default 1) repeats every benchmark N times (go test -count N)
# and records the fastest sample of each — min-of-N is far less noisy on a
# shared machine than a single run.
#
#   scripts/bench_baseline.sh BENCH_0.json                      # default set
#   BEST_OF=3 scripts/bench_baseline.sh BENCH_0.json            # min-of-3
#   scripts/bench_baseline.sh /tmp/b.json 'BenchmarkYeast$@5x'  # custom set
#   scripts/bench_baseline.sh /tmp/k.json 'BenchmarkKernel@100x@./internal/core'
set -euo pipefail
cd "$(dirname "$0")/.."

GO=${GO:-go}
BEST_OF=${BEST_OF:-1}
OUT=${1:?usage: bench_baseline.sh OUT.json [bench-regex@benchtime ...]}
shift || true

SPECS=("$@")
if [ ${#SPECS[@]} -eq 0 ]; then
    SPECS=(
        'BenchmarkFig7Genes$@3x'        # E1: runtime vs #genes
        'BenchmarkFig7Conds$@3x'        # E2: runtime vs #conditions
        'BenchmarkFig7Clusters$@3x'     # E3: runtime vs #embedded clusters
        'BenchmarkYeast$@3x'            # E4: yeast-substitute effectiveness run
        'BenchmarkTable2TermFinder$@20x' # E5: GO term finder
        'BenchmarkRunningExample$@100x' # E6: Table 1 walk-through
        'BenchmarkPruningAblation$@1x'  # E8: pruning ablation
        'BenchmarkBuildModels$@20x'     # the index every run builds: models and tables, 600 and 5000 genes
        'BenchmarkSweepSharedModel$@3x' # ε-sweep with/without the shared model set
        'BenchmarkOverlapStats$@5x'     # Section 5.2 overlap statistic
        'BenchmarkIncrementalRemine$@3x' # E13: incremental vs cold re-mine
        'BenchmarkKernel@100x@./internal/core'    # inner-loop kernels of the miner
        'BenchmarkTablesBuild@10x@./internal/rwave' # condition-pair table build
        'BenchmarkReadTSV$@50x@./internal/matrix'  # parse of a 600x30 upload
    )
fi

LABEL=$(basename "$OUT" .json)
RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

for spec in "${SPECS[@]}"; do
    IFS=@ read -r regex benchtime pkg <<<"$spec"
    pkg=${pkg:-.}
    echo ">> go test -bench '$regex' -benchtime $benchtime -count $BEST_OF $pkg" >&2
    $GO test -run 'XXX_none' -bench "$regex" -benchtime "$benchtime" -count "$BEST_OF" -benchmem -timeout 30m "$pkg" \
        | tee -a "$RAW" >&2
done

$GO run ./cmd/benchdiff -parse -label "$LABEL" -best-of "$BEST_OF" <"$RAW" >"$OUT"
echo "wrote $OUT" >&2
