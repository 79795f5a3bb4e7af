#!/usr/bin/env bash
# Run telemetry does not depend on the execution path.
#
# The same configuration runs with --metrics-out under every thread-mode
# `divsim run` path -- plain, lock-step lanes, supervised, supervised
# lanes, and a plain checkpointed campaign -- for both engines.  Each
# replica's `run` record (status, steps, effective steps and the full
# RunMetrics object) is a function of (seed, replica, attempt) alone, so
# once the non-reproducible wall_* timings are stripped the records must be
# identical on every path.  The drill also checks that --engine jump
# refuses a non-DIV process with exit 1.
#
# Usage: run_metrics_equivalence.sh <divsim>.  Exits 77 (CTest
# SKIP_RETURN_CODE) where the drill cannot run.
set -u

DIVSIM="${1:-}"
if [[ -z "${DIVSIM}" || ! -x "${DIVSIM}" ]]; then
  echo "SKIP: divsim binary not provided or not executable" >&2
  exit 77
fi

WORK="$(mktemp -d)" || exit 77
trap 'rm -rf "${WORK}"' EXIT

# Two 64-cliques joined by one edge: the jump engine switches modes and
# resyncs its tracker many times per replica, so the timelines carry real
# content.
REPLICAS=24
CONFIG=(--graph barbell:64 --k 6 --replicas "${REPLICAS}" --threads 3
        --seed 5)
failures=0

# Writes the run records of $1 to $2, ordered by replica, wall_* removed.
run_records() {
  local replica
  for ((replica = 0; replica < REPLICAS; ++replica)); do
    grep '"type":"run"' "$1" | grep "\"replica\":${replica}," \
        | sed -E 's/,"wall_[a-z_]*":[^,}]*//g'
  done > "$2"
}

for engine in step jump; do
  declare -A extra=(
    [plain]=""
    [lanes]="--batch-lanes 4"
    [supervised]="--supervise"
    [supervised-lanes]="--supervise --batch-lanes 4"
    [campaign]="--checkpoint-dir ${WORK}/${engine}-campaign"
  )
  for path in plain lanes supervised supervised-lanes campaign; do
    out="${WORK}/${engine}-${path}"
    # shellcheck disable=SC2086  # the extra flags are split on purpose
    "${DIVSIM}" run "${CONFIG[@]}" --engine "${engine}" ${extra[${path}]} \
        --metrics-out "${out}.jsonl" > "${out}.out" 2>&1
    rc=$?
    if [[ ${rc} -ne 0 ]]; then
      echo "FAIL: ${engine}/${path} exited ${rc}" >&2
      cat "${out}.out" >&2
      failures=$((failures + 1))
      continue
    fi
    run_records "${out}.jsonl" "${out}.records"
    records=$(grep -c '"type":"run"' "${out}.records")
    with_metrics=$(grep -c '"metrics":{' "${out}.records")
    if [[ ${records} -ne ${REPLICAS} || ${with_metrics} -ne ${REPLICAS} ]]; then
      echo "FAIL: ${engine}/${path} wrote ${records} run record(s)," \
           "${with_metrics} with metrics, for ${REPLICAS} replicas" >&2
      failures=$((failures + 1))
    elif [[ "${path}" != plain ]] &&
         ! diff -u "${WORK}/${engine}-plain.records" "${out}.records" >&2; then
      echo "FAIL: ${engine}/${path} run records differ from the plain path" >&2
      failures=$((failures + 1))
    fi
  done
  unset extra
done

if ! grep -q '"mode":"naive"' "${WORK}/jump-plain.records"; then
  echo "FAIL: no jump replica left jump mode; the timelines are empty" >&2
  failures=$((failures + 1))
fi

"${DIVSIM}" run --graph complete:16 --engine jump --process pull \
    --replicas 3 > "${WORK}/refusal.out" 2>&1
rc=$?
if [[ ${rc} -ne 1 ]] ||
   ! grep -q 'error: --engine=jump only supports --process div' \
       "${WORK}/refusal.out"; then
  echo "FAIL: --engine jump --process pull exited ${rc}, expected the" \
       "exit-1 refusal" >&2
  cat "${WORK}/refusal.out" >&2
  failures=$((failures + 1))
fi

if [[ ${failures} -ne 0 ]]; then
  echo "FAIL: ${failures} telemetry check(s) failed" >&2
  exit 1
fi
echo "OK: 5 paths x 2 engines write identical run records (wall_* aside);" \
     "--engine jump refuses non-DIV processes"
exit 0
