#!/usr/bin/env bash
# One seed through every `divsim run` path.
#
# The same configuration runs under every execution path `divsim run`
# offers -- plain, lock-step lanes, supervised, supervised lanes, the
# process fleet, a plain checkpointed campaign and a supervised lane
# campaign -- for both engines.  Per-replica results are a function of
# (seed, replica, attempt) alone, so the aggregate lines (`completed`,
# `winners`, and `jump engine` for the jump engine) must be identical on
# every path, and the journaled paths must hold byte-identical replica
# records.
#
# Usage: run_paths_equivalence.sh <divsim>.  Exits 77 (CTest
# SKIP_RETURN_CODE) where the drill cannot run.
set -u

DIVSIM="${1:-}"
if [[ -z "${DIVSIM}" || ! -x "${DIVSIM}" ]]; then
  echo "SKIP: divsim binary not provided or not executable" >&2
  exit 77
fi

WORK="$(mktemp -d)" || exit 77
trap 'rm -rf "${WORK}"' EXIT

CONFIG=(--graph regular:256:8 --k 6 --replicas 24 --threads 3 --seed 5)
failures=0

# Prints the lines every path must agree on.
aggregate_lines() {
  grep -E '^(completed |winners:|jump engine:)' "$1"
}

for engine in step jump; do
  declare -A extra=(
    [plain]=""
    [lanes]="--batch-lanes 4"
    [supervised]="--supervise"
    [supervised-lanes]="--supervise --batch-lanes 4"
    [process]="--isolation process --workers 2"
    [campaign]="--checkpoint-dir ${WORK}/${engine}-campaign"
    [supervised-lane-campaign]="--checkpoint-dir ${WORK}/${engine}-lane-campaign --supervise --batch-lanes 4"
  )
  for path in plain lanes supervised supervised-lanes process campaign \
              supervised-lane-campaign; do
    out="${WORK}/${engine}-${path}.out"
    # shellcheck disable=SC2086  # the extra flags are split on purpose
    "${DIVSIM}" run "${CONFIG[@]}" --engine "${engine}" ${extra[${path}]} \
        > "${out}" 2>&1
    rc=$?
    if [[ ${rc} -ne 0 ]]; then
      echo "FAIL: ${engine}/${path} exited ${rc}" >&2
      cat "${out}" >&2
      failures=$((failures + 1))
      continue
    fi
    aggregate_lines "${out}" > "${out}.lines"
    if [[ ! -s "${out}.lines" ]]; then
      echo "FAIL: ${engine}/${path} printed no aggregate lines" >&2
      failures=$((failures + 1))
    elif [[ "${path}" != plain ]] &&
         ! diff -u "${WORK}/${engine}-plain.out.lines" "${out}.lines" >&2; then
      echo "FAIL: ${engine}/${path} disagrees with the plain path" >&2
      failures=$((failures + 1))
    fi
  done
  if [[ "${engine}" == jump ]] &&
     ! grep -q '^jump engine:' "${WORK}/jump-plain.out.lines"; then
    echo "FAIL: the jump engine printed no 'jump engine' line" >&2
    failures=$((failures + 1))
  fi
  for dir in campaign lane-campaign; do
    "${DIVSIM}" journal --dir "${WORK}/${engine}-${dir}" \
        | grep '^replica ' > "${WORK}/${engine}-${dir}.records"
  done
  if [[ $(wc -l < "${WORK}/${engine}-campaign.records") -ne 24 ]]; then
    echo "FAIL: ${engine} campaign journal does not hold 24 replicas" >&2
    failures=$((failures + 1))
  elif ! diff -u "${WORK}/${engine}-campaign.records" \
                 "${WORK}/${engine}-lane-campaign.records" >&2; then
    echo "FAIL: ${engine} journals differ between the plain campaign and" \
         "the supervised lane campaign" >&2
    failures=$((failures + 1))
  fi
  unset extra
done

if [[ ${failures} -ne 0 ]]; then
  echo "FAIL: ${failures} path check(s) failed" >&2
  exit 1
fi
echo "OK: 7 paths x 2 engines print identical aggregates; journaled paths" \
     "hold identical replica records"
exit 0
