#!/usr/bin/env bash
# Distributed-mining smoke test: mine one job on a coordinator with no local
# worker, first on worker w1 alone, SIGKILL w1 while it holds a lease, start
# worker w2, and assert that the coordinator re-leases the orphaned subtrees
# and the final result is byte-identical to a single-node run's.
set -euo pipefail

script_dir=$(cd "$(dirname "$0")" && pwd)
cd "$script_dir/.."
SMOKE_NAME=dist-smoke
# shellcheck source=scripts/lib.sh
. "$script_dir/lib.sh"
smoke_init

build_tools regserver datagen
# A workload with enough subtrees (= conditions) and enough mining per
# subtree that the kill reliably lands while leases are outstanding.
"$workdir/datagen" -kind synthetic -genes 260 -conds 13 -clusters 10 -seed 7 \
    -out "$workdir/matrix.tsv"
params='{"MinG":3,"MinC":3,"Gamma":0.05,"Epsilon":1.5}'

start_worker() { # start_worker <name> <log>: sets $worker_pid
    "$workdir/regserver" -addr 127.0.0.1:0 -mode worker -join "$base" \
        -advertise "$1" >"$2" 2>&1 &
    worker_pid=$!
    extra_pids+=("$worker_pid")
}

# --- Phase 1: the single-node reference run ---------------------------------
start_server "$workdir/ref.log" -jobs 1 -workers 1
dataset=$(upload "$workdir/matrix.tsv" dist)
[[ -n "$dataset" ]] || fail "upload returned no dataset ID"
job=$(submit "$dataset" "$params")
[[ -n "$job" ]] || fail "reference submission returned no job ID"
wait_done "$job" 600
curl -sf "$base/jobs/$job/result" >"$workdir/reference.json"
stop_server
note "single-node reference done ($(wc -c <"$workdir/reference.json") bytes)"

# --- Phase 2: coordinator + worker w1, killed mid-lease, then worker w2 -----
start_server "$workdir/coord.log" -jobs 1 -mode coordinator -local-workers 0 -lease-ttl 2s
start_worker w1 "$workdir/w1.log"
worker1_pid=$worker_pid
dataset=$(upload "$workdir/matrix.tsv" dist)
job=$(submit "$dataset" "$params")
[[ -n "$job" ]] || fail "distributed submission returned no job ID"

# Let w1 complete a few subtrees so the run is demonstrably distributed, then
# SIGKILL it while it holds a lease: with no other worker connected, every
# active lease is w1's. A lease also reads active while its final heartbeat
# is already on the wire, so w1 is frozen first and the reading is taken once
# whatever it sent has landed; a lease still active then is one w1 cannot
# finish, and the kill orphans it. Otherwise w1 resumes and the loop retries.
completed=0
active=0
for _ in $(seq 1 600); do
    [[ "$(job_field "$job" status)" == done ]] \
        && fail "workload finished before the kill; make it slower"
    completed=$(metric regserver_leases_completed_total)
    active=$(metric regserver_leases_active)
    if [[ "${completed:-0}" -ge 3 && "${active:-0}" -ge 1 ]]; then
        kill -STOP "$worker1_pid"
        sleep 0.3
        active=$(metric regserver_leases_active)
        [[ "${active:-0}" -ge 1 ]] && break
        kill -CONT "$worker1_pid"
    fi
    sleep 0.05
done
[[ "${completed:-0}" -ge 3 && "${active:-0}" -ge 1 ]] \
    || fail "w1 never held a lease after 3 completions (completed '$completed', active '$active')"
kill -9 "$worker1_pid"
wait "$worker1_pid" 2>/dev/null || true
worker1_pid=""
note "SIGKILL worker w1 holding $active lease(s) at $completed completed leases"
start_worker w2 "$workdir/w2.log"
worker2_pid=$worker_pid

wait_done "$job" 600
reassigned=$(metric regserver_leases_reassigned_total)
[[ "${reassigned:-0}" -ge 1 ]] \
    || fail "no lease reassignment after killing a worker (got '$reassigned')"
curl -sf "$base/jobs/$job/result" >"$workdir/distributed.json"
cmp -s "$workdir/reference.json" "$workdir/distributed.json" \
    || fail "distributed result differs from the single-node run"
note "result byte-identical after $reassigned lease reassignment(s)"

kill -TERM "$worker2_pid" && wait "$worker2_pid" \
    || fail "surviving worker exited non-zero after SIGTERM"
worker2_pid=""
stop_server
note "OK"
