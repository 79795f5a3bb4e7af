#!/usr/bin/env bash
# Coordinator-kill chaos drill for the durable campaign queue, two phases:
#
#   1. Submit two campaigns, SIGKILL the `divsim queue run` coordinator at an
#      arbitrary point mid-campaign, and assert: queue.journal still replays
#      (status works, torn tail or not), the interrupted campaign is re-leased
#      by a second coordinator once the dead lease expires, the resumed
#      campaign finishes from its own checkpoint, and every replica of the
#      interrupted campaign is bit-identical to an undisturbed baseline.
#   2. Submit a process-isolated campaign with a hair-trigger breaker, SIGKILL
#      two busy fleet workers to trip it Open, and assert via
#      `queue status --json --deep` that the pool demonstrably shrank (a
#      worker-dismiss event is journaled) and recovery closed the breaker
#      again -- the journaled evidence of shrink and regrow.
#
# Exits 77 (CTest SKIP_RETURN_CODE) where the drill cannot run.
set -u

DIVSIM="${1:-}"
if [[ -z "${DIVSIM}" || ! -x "${DIVSIM}" ]]; then
  echo "SKIP: divsim binary not provided or not executable" >&2
  exit 77
fi
if ! kill -0 $$ 2>/dev/null; then
  echo "SKIP: cannot deliver signals in this environment" >&2
  exit 77
fi
if [[ "$(uname -s)" != "Linux" ]]; then
  echo "SKIP: drill requires Linux /proc for worker discovery" >&2
  exit 77
fi
if ! command -v python3 >/dev/null 2>&1; then
  echo "SKIP: drill needs python3 to interrogate queue status --json" >&2
  exit 77
fi

WORK="$(mktemp -d)" || exit 77
trap 'rm -rf "${WORK}"' EXIT
QDIR="${WORK}/queue"

# Slow-mixing graph so each replica takes real work and the coordinator can
# be killed mid-campaign; per-replica results are deterministic in
# (seed, replica, attempt), so an undisturbed run is the bit-identity oracle.
# Every replica hits the 2e7-step cap (~0.1-0.4s).  One thread runs them in
# turn, so after the third journaled replica at least eight remain -- far
# longer than the kill's jitter below on any host, so the kill always lands
# mid-campaign (with one thread per core a fast host could finish first).
CONFIG=(--graph=path:1024 --k=9 --stop=consensus --max-steps=20000000
        --replicas=12 --seed=7 --threads=1)

# Unsupervised baseline of the SAME config: the queue's runner forces
# --supervise, which never changes healthy replica bits.
"${DIVSIM}" run "${CONFIG[@]}" --checkpoint-dir "${WORK}/baseline" \
    > "${WORK}/baseline.out" 2>&1
baseline_rc=$?
if [[ ${baseline_rc} -ne 0 ]]; then
  echo "FAIL: unsupervised baseline exited ${baseline_rc}" >&2
  cat "${WORK}/baseline.out" >&2
  exit 1
fi
"${DIVSIM}" journal --dir "${WORK}/baseline" \
    | grep '^replica ' > "${WORK}/baseline.records"

# ---------------------------------------------------------------------------
# Phase 1: SIGKILL the coordinator mid-campaign; a second coordinator must
# requeue the expired lease, resume from the checkpoint, and reproduce the
# baseline bit for bit.

"${DIVSIM}" queue submit --dir "${QDIR}" "${CONFIG[@]}" \
    > "${WORK}/submit1.out" 2>&1 || { cat "${WORK}/submit1.out" >&2; exit 1; }
"${DIVSIM}" queue submit --dir "${QDIR}" "${CONFIG[@]}" --seed=8 \
    > "${WORK}/submit2.out" 2>&1 || { cat "${WORK}/submit2.out" >&2; exit 1; }
# Dedup guard: resubmitting campaign 1's exact config must not queue twice.
"${DIVSIM}" queue submit --dir "${QDIR}" "${CONFIG[@]}" \
    > "${WORK}/submit3.out" 2>&1
if ! grep -q 'duplicate of campaign 1' "${WORK}/submit3.out"; then
  echo "FAIL: duplicate submit was not deduplicated" >&2
  cat "${WORK}/submit3.out" >&2
  exit 1
fi

"${DIVSIM}" queue run --dir "${QDIR}" --lease-ms 2000 \
    > "${WORK}/coord1.out" 2>&1 &
coord_pid=$!

# Wait for campaign 1 to make real progress, then kill at an arbitrary
# instant (the extra jittered sleep, up to about one replica, lands the
# SIGKILL anywhere in an append, a renewal, or a replica boundary).
progress=0
for _ in $(seq 1 1200); do
  if ! kill -0 "${coord_pid}" 2>/dev/null; then
    break
  fi
  if [[ -r "${QDIR}/campaigns/1/results.journal" ]]; then
    progress=$("${DIVSIM}" journal --dir "${QDIR}/campaigns/1" 2>/dev/null \
        | grep -c '^replica ' || true)
    [[ "${progress}" -ge 3 ]] && break
  fi
  sleep 0.1
done
if ! kill -0 "${coord_pid}" 2>/dev/null; then
  echo "SKIP: coordinator finished before it could be killed" >&2
  wait "${coord_pid}"
  cat "${WORK}/coord1.out" >&2
  exit 77
fi
sleep "0.$((RANDOM % 5))"
kill -KILL "${coord_pid}" 2>/dev/null
wait "${coord_pid}" 2>/dev/null
echo "SIGKILLed coordinator after ${progress} journaled replicas" >&2

# The queue journal must replay no matter where the kill landed.  A torn
# tail (exit 4) is a legal crash artifact; anything else is not.
"${DIVSIM}" queue status --dir "${QDIR}" --json > "${WORK}/status1.json"
status_rc=$?
if [[ ${status_rc} -ne 0 && ${status_rc} -ne 4 ]]; then
  echo "FAIL: queue status exited ${status_rc} after the kill" >&2
  exit 1
fi
python3 - "${WORK}/status1.json" <<'EOF' || exit 1
import json, sys
doc = json.load(open(sys.argv[1]))
phases = {c["id"]: c["phase"] for c in doc["campaigns"]}
assert phases.get(1) in ("leased", "running"), \
    f"campaign 1 should be mid-flight under the dead lease: {phases}"
assert phases.get(2) == "queued", f"campaign 2 should still be queued: {phases}"
EOF

# A second coordinator must wait out the dead lease, requeue, resume from
# the checkpoint, and drive both campaigns to completion.
"${DIVSIM}" queue run --dir "${QDIR}" --lease-ms 2000 \
    > "${WORK}/coord2.out" 2>&1
coord2_rc=$?
if [[ ${coord2_rc} -ne 0 ]]; then
  echo "FAIL: second coordinator exited ${coord2_rc} (want 0)" >&2
  cat "${WORK}/coord2.out" >&2
  exit 1
fi

"${DIVSIM}" queue status --dir "${QDIR}" --json --deep > "${WORK}/status2.json"
if [[ $? -ne 0 ]]; then
  echo "FAIL: queue status failed after the second coordinator" >&2
  exit 1
fi
python3 - "${WORK}/status2.json" <<'EOF' || exit 1
import json, sys
doc = json.load(open(sys.argv[1]))
assert not doc["torn"], "second coordinator left a torn queue journal"
by_id = {c["id"]: c for c in doc["campaigns"]}
assert by_id[1]["phase"] == "complete", f"campaign 1: {by_id[1]}"
assert by_id[2]["phase"] == "complete", f"campaign 2: {by_id[2]}"
assert by_id[1]["requeues"] >= 1, \
    f"the killed coordinator's lease was never requeued: {by_id[1]}"
assert by_id[1]["checkpoint"]["finished_replicas"] == 12, f"{by_id[1]}"
EOF

# Bit-identity: the interrupted-and-resumed campaign must reproduce the
# undisturbed baseline exactly.
"${DIVSIM}" journal --dir "${QDIR}/campaigns/1" \
    | grep '^replica ' > "${WORK}/resumed.records"
if ! diff -u "${WORK}/baseline.records" "${WORK}/resumed.records"; then
  echo "FAIL: resumed campaign diverged from the baseline" >&2
  exit 1
fi
echo "phase 1 OK: lease requeued, campaign resumed, 12/12 replicas" \
     "bit-identical to the baseline" >&2

# ---------------------------------------------------------------------------
# Phase 2: trip the breaker with SIGKILLed workers and demand journaled
# evidence of the pool shrinking (worker-dismiss) and recovering (close).

workers_of() {
  local parent="$1" pid
  for pid in /proc/[0-9]*; do
    pid="${pid#/proc/}"
    [[ -r "/proc/${pid}/stat" ]] || continue
    local stat ppid
    stat="$(cat "/proc/${pid}/stat" 2>/dev/null)" || continue
    ppid="$(awk '{print $2}' <<< "${stat##*) }")"
    if [[ "${ppid}" == "${parent}" ]]; then
      echo "${pid}"
    fi
  done
}

# Workers of `parent` in the middle of an attempt: state R (running or
# runnable) with at least 50ms of CPU time (utime + stime >= 5 ticks).  An
# idle worker sleeps on its next assignment, and a fresh one is still
# starting up; killing either fails no attempt, so the breaker would never
# see it.
busy_workers_of() {
  local pid stat fields
  for pid in $(workers_of "$1"); do
    stat="$(cat "/proc/${pid}/stat" 2>/dev/null)" || continue
    read -r -a fields <<< "${stat##*) }"
    if [[ "${fields[0]}" == R && $((fields[11] + fields[12])) -ge 5 ]]; then
      echo "${pid}"
    fi
  done
}

# The close needs a success after the 1s cooldown, so the campaign must
# outlast it by a wide margin on any host: each replica is a capped 2e7-step
# run (~0.1-0.4s), and 96 of them at the Open breaker's width of 3 take
# several seconds past the kills.
BQDIR="${WORK}/breaker-queue"
"${DIVSIM}" queue submit --dir "${BQDIR}" "${CONFIG[@]}" --replicas=96 \
    --isolation=process --workers=6 --retries=6 --min-success=0.3 \
    --breaker-failures=2 --breaker-window-ms=20000 \
    --breaker-cooldown-ms=1000 \
    --suspect-after-ms=30000 --dead-after-ms=60000 \
    > "${WORK}/bsubmit.out" 2>&1 || { cat "${WORK}/bsubmit.out" >&2; exit 1; }

"${DIVSIM}" queue run --dir "${BQDIR}" --no-wait \
    > "${WORK}/bcoord.out" 2>&1 &
bcoord_pid=$!

# The coordinator runs the campaign in-process, so the fleet workers are its
# direct children.  Kill two busy ones in quick succession: past
# --breaker-failures=2 the breaker opens and the pool must shrink below the
# 6-worker target.
killed=0
for _ in $(seq 1 600); do
  if ! kill -0 "${bcoord_pid}" 2>/dev/null; then
    break
  fi
  mapfile -t workers < <(busy_workers_of "${bcoord_pid}")
  if [[ "${#workers[@]}" -ge 2 && ${killed} -eq 0 ]]; then
    kill -KILL "${workers[0]}" 2>/dev/null && killed=1
    kill -KILL "${workers[1]}" 2>/dev/null && killed=2
    break
  fi
  sleep 0.05
done
if [[ ${killed} -lt 2 ]]; then
  wait "${bcoord_pid}"
  echo "SKIP: campaign finished before two workers could be killed" >&2
  cat "${WORK}/bcoord.out" >&2
  exit 77
fi
echo "SIGKILLed 2 fleet workers to trip the breaker" >&2

wait "${bcoord_pid}"
bcoord_rc=$?
if [[ ${bcoord_rc} -ne 0 ]]; then
  echo "FAIL: breaker coordinator exited ${bcoord_rc} (want 0:" \
       "retries absorb the worker kills)" >&2
  cat "${WORK}/bcoord.out" >&2
  exit 1
fi

"${DIVSIM}" queue status --dir "${BQDIR}" --json --deep \
    > "${WORK}/bstatus.json" || exit 1
python3 - "${WORK}/bstatus.json" <<'EOF' || exit 1
import json, sys
doc = json.load(open(sys.argv[1]))
camp = doc["campaigns"][0]
assert camp["phase"] in ("complete", "degraded"), f"campaign: {camp}"
cp = camp["checkpoint"]
assert cp["breaker_opens"] >= 1, \
    f"two worker kills never opened the breaker: {cp}"
assert cp["worker_dismissals"] >= 1, \
    f"the Open breaker never shrank the pool (no worker-dismiss): {cp}"
assert cp["breaker_closes"] >= 1, \
    f"the breaker never closed again (no regrow evidence): {cp}"
EOF
echo "phase 2 OK: breaker opened, pool shrank (worker-dismiss journaled)," \
     "and recovery closed it again" >&2

echo "OK: queue.journal replayed after an arbitrary-point coordinator kill," \
     "the interrupted campaign resumed bit-identically, and breaker-driven" \
     "pool sizing left its full journaled trail"
exit 0
