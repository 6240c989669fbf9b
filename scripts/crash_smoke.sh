#!/usr/bin/env bash
# Crash-recovery smoke test of the durable mining service: boot regserver on
# a data-dir, SIGKILL it mid-job, restart it on the same data-dir, and assert
# that the job resumes from its journaled checkpoint and finishes with a
# result byte-identical to an uninterrupted run's — both as served and as
# persisted under results/, per-subtree Stats included.
set -euo pipefail

script_dir=$(cd "$(dirname "$0")" && pwd)
cd "$script_dir/.."
SMOKE_NAME=crash-smoke
# shellcheck source=scripts/lib.sh
. "$script_dir/lib.sh"
smoke_init

build_tools regserver datagen
# A workload slow enough that SIGKILL reliably lands mid-run (tens of
# thousands of clusters, a few seconds of mining plus journal fsyncs).
"$workdir/datagen" -kind synthetic -genes 260 -conds 13 -clusters 10 -seed 7 \
    -out "$workdir/matrix.tsv"
params='{"MinG":3,"MinC":3,"Gamma":0.05,"Epsilon":1.5}'

# --- Phase 1: the uninterrupted reference run -------------------------------
start_server "$workdir/ref.log" -jobs 1 -workers 1 -data-dir "$workdir/refdir"
dataset=$(upload "$workdir/matrix.tsv" crash)
[[ -n "$dataset" ]] || fail "upload returned no dataset ID"
job=$(submit "$dataset" "$params")
[[ -n "$job" ]] || fail "reference submission returned no job ID"
wait_done "$job" 600
curl -sf "$base/jobs/$job/result" >"$workdir/reference.json"
stop_server
note "reference run done ($(wc -c <"$workdir/reference.json") bytes)"

# --- Phase 2: the crashed run -----------------------------------------------
start_server "$workdir/crash.log" -jobs 1 -workers 1 -data-dir "$workdir/datadir"
dataset=$(upload "$workdir/matrix.tsv" crash)
job=$(submit "$dataset" "$params")
[[ -n "$job" ]] || fail "crash-run submission returned no job ID"
clusters=0
for _ in $(seq 1 600); do
    clusters=$(job_field "$job" clusters)
    status=$(job_field "$job" status)
    [[ "$status" == done ]] && fail "workload finished before the kill; make it slower"
    [[ "${clusters:-0}" -ge 500 ]] && break
    sleep 0.05
done
[[ "${clusters:-0}" -ge 500 ]] || fail "job never reached 500 clusters (at '$clusters')"
kill_server
next_cond=$(grep '"type":"checkpoint"' "$workdir/datadir/journal.wal" | tail -n 1 \
    | sed -n 's/.*"next_cond":\([0-9]*\).*/\1/p')
note "SIGKILL at $clusters clusters; last journaled checkpoint at next_cond ${next_cond:-none}"

# --- Phase 3: restart, resume, compare --------------------------------------
start_server "$workdir/recover.log" -jobs 1 -workers 1 -data-dir "$workdir/datadir"
recovered=$(job_field "$job" recovered)
[[ "$recovered" == true ]] || fail "job not marked recovered after restart"
[[ "$(metric regserver_recoveries_total)" == 1 ]] \
    || fail "recoveries_total metric missing"
wait_done "$job" 600
curl -sf "$base/jobs/$job/result" >"$workdir/recovered.json"
cmp -s "$workdir/reference.json" "$workdir/recovered.json" \
    || fail "recovered result differs from the uninterrupted run"
# Both runs persist their result under the same cache key.
ref_file=$(ls "$workdir/refdir/results/"*.json)
[[ $(wc -w <<<"$ref_file") == 1 ]] || fail "reference data-dir holds results '$ref_file'"
cmp -s "$ref_file" "$workdir/datadir/results/$(basename "$ref_file")" \
    || fail "recovered result file differs from the uninterrupted run's"
stop_server
note "recovered result byte-identical to the reference run"
note "OK"
