#!/usr/bin/env bash
# Incremental-mining smoke test: upload a small handcrafted matrix, mine it,
# append a one-condition delta, and re-mine the grown dataset. The second mine
# must take the incremental path (repairing the cached RWave models and
# re-mining only the dirty subtrees), its result must be byte-identical to a
# cold mine of the same grown matrix on a fresh server, and the diff endpoint
# must describe the change under the regcluster.diff/v1 schema. The first
# phase runs twice: on a single-mode server, and on a coordinator with one
# local worker, which must take the same incremental path.
set -euo pipefail

script_dir=$(cd "$(dirname "$0")" && pwd)
cd "$script_dir/.."
SMOKE_NAME=incr-smoke
# shellcheck source=scripts/lib.sh
. "$script_dir/lib.sh"
smoke_init

build_tools regserver

# A 3x4 parent with per-gene profile shape (0, 2, 3, 0) and a one-condition
# delta at 0.9/0.9/1.4. Under gamma=2 with strict regulation (diff > gamma,
# never >=), the appended condition reaches exactly c2 (|0.9-3| = 2.1 > 2),
# so the dirty set is {c2, c4}: 3 parent subtrees splice, 2 mine fresh.
{
    printf 'gene\tc0\tc1\tc2\tc3\n'
    printf 'g0\t0\t2\t3\t0\n'
    printf 'g1\t0\t2\t3\t0\n'
    printf 'g2\t0.5\t2.5\t3.5\t0.5\n'
} >"$workdir/parent.tsv"
{
    printf 'gene\tc4\n'
    printf 'g0\t0.9\n'
    printf 'g1\t0.9\n'
    printf 'g2\t1.4\n'
} >"$workdir/delta.tsv"
params='{"MinG":2,"MinC":2,"Gamma":2,"AbsoluteGamma":true,"Epsilon":1}'

# --- Phase 1: mine the parent, append the delta, re-mine incrementally ------
phase1() { # phase1 <label> <server flags...>: writes incremental-<label>.json
    local label=$1
    shift
    start_server "$workdir/server-$label.log" "$@"
    parent=$(upload "$workdir/parent.tsv" incr)
    [[ -n "$parent" ]] || fail "upload returned no dataset ID"
    pjob=$(submit "$parent" "$params")
    [[ -n "$pjob" ]] || fail "parent submission returned no job ID"
    wait_done "$pjob" 300
    note "$label: parent $pjob done"

    reply=$(curl -sf -X POST --data-binary @"$workdir/delta.tsv" \
        "$base/datasets/$parent/append")
    child=$(printf '%s' "$reply" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -1)
    [[ -n "$child" && "$child" != "$parent" ]] || fail "append returned no child ID: $reply"
    printf '%s' "$reply" | grep -q '"parent": *"'"$parent"'"' \
        || fail "append reply lacks parent lineage: $reply"
    [[ "$(metric regserver_dataset_appends_total)" == 1 ]] \
        || fail "dataset_appends metric after append"
    note "$label: appended delta: child $child"

    cjob=$(submit "$child" "$params")
    [[ -n "$cjob" ]] || fail "child submission returned no job ID"
    wait_done "$cjob" 300
    cview=$(curl -sf "$base/jobs/$cjob")
    echo "$cview" | grep -q '"incremental": *true' \
        || fail "child job did not take the incremental path: $cview"
    echo "$cview" | grep -q '"subtrees_reused": *3' || fail "subtrees_reused: $cview"
    echo "$cview" | grep -q '"subtrees_mined": *2' || fail "subtrees_mined: $cview"
    note "$label: incremental re-mine done (reused 3, mined 2)"

    metrics=$(curl -sf "$base/metrics")
    for want in \
        'regserver_incremental_mines_total 1' \
        'regserver_incremental_fallbacks_total 0' \
        'regserver_incremental_subtrees_reused_total 3' \
        'regserver_incremental_subtrees_mined_total 2' \
        'regserver_model_repairs_total 3'; do
        echo "$metrics" | grep -q "^$want$" \
            || fail "metric '$want': $(echo "$metrics" | grep -E 'incremental|repairs')"
    done

    diff_doc=$(curl -sf "$base/datasets/$child/diff/$parent")
    echo "$diff_doc" | grep -q '"schema": *"regcluster.diff/v1"' \
        || fail "diff schema: $diff_doc"
    echo "$diff_doc" | grep -q '"parent": *"'"$parent"'"' || fail "diff parent: $diff_doc"
    note "$label: diff served under regcluster.diff/v1"

    curl -sf "$base/jobs/$cjob/result" >"$workdir/incremental-$label.json"
    curl -sf "$base/datasets/$child/tsv" >"$workdir/grown.tsv"
    stop_server
}
phase1 single -jobs 1
phase1 coordinator -jobs 1 -mode coordinator -local-workers 1

# --- Phase 2: cold-mine the grown matrix on a fresh server and compare ------
start_server "$workdir/cold.log" -jobs 1
grown=$(upload "$workdir/grown.tsv" incr-cold)
[[ "$grown" == "$child" ]] \
    || fail "grown matrix hashed to $grown, want the appended child $child"
gjob=$(submit "$grown" "$params")
[[ -n "$gjob" ]] || fail "cold submission returned no job ID"
wait_done "$gjob" 300
curl -sf "$base/jobs/$gjob/result" >"$workdir/cold.json"
[[ "$(metric regserver_incremental_mines_total)" == 0 ]] \
    || fail "cold server took the incremental path"
stop_server

for label in single coordinator; do
    cmp -s "$workdir/incremental-$label.json" "$workdir/cold.json" \
        || fail "$label: incremental result differs from the cold mine"
done
note "incremental results byte-identical to the cold mine"
note "OK"
