#!/usr/bin/env bash
# Graph-build cancellation drill: SIGTERM divsim while a random regular
# graph is still being built, two ways:
#
#   1. `divsim run` must exit 130 and say it was interrupted while building
#      the graph.
#   2. `divsim queue run` must release the leased campaign as an operator
#      cancel (queued again, never failed) and exit 130; a second
#      coordinator must then complete the campaign.
#
# The build of regular:262144:16 takes about half a second at -O2 on one
# x86-64 core; a host fast enough to finish it before the signal lands
# makes the build assertions vacuous (NOTE), not false.  Exits 77 (CTest
# SKIP_RETURN_CODE) where the drill cannot run.
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

WORK="$(mktemp -d)" || exit 77
trap 'rm -rf "${WORK}"' EXIT
QDIR="${WORK}/queue"
BUILD_MESSAGE='interrupted while building the graph'

# ---------------------------------------------------------------------------
# 1. Plain run: the signal lands in the build.

"${DIVSIM}" run --graph regular:262144:16 --k 8 --replicas 4 \
    --max-steps 1000 --seed 3 > "${WORK}/run.out" 2>&1 &
pid=$!
sleep 0.1
kill -TERM "${pid}" 2>/dev/null
wait "${pid}"
rc=$?
if grep -q "${BUILD_MESSAGE}" "${WORK}/run.out"; then
  if [[ ${rc} -ne 130 ]]; then
    echo "FAIL: run cancelled in the graph build exited ${rc}, expected 130" >&2
    cat "${WORK}/run.out" >&2
    exit 1
  fi
  if grep -q '^graph: ' "${WORK}/run.out"; then
    echo "FAIL: run cancelled in the graph build still printed a graph" >&2
    cat "${WORK}/run.out" >&2
    exit 1
  fi
else
  echo "NOTE: the build finished before SIGTERM landed (run exited ${rc})"
fi

# ---------------------------------------------------------------------------
# 2. Queue: SIGTERM the coordinator once the campaign is running, which is
# when its cmd_run starts building the graph.

"${DIVSIM}" queue submit --dir "${QDIR}" --graph=regular:262144:16 --k=8 \
    --replicas=4 --max-steps=1000 --seed=3 > "${WORK}/submit.out" 2>&1 \
    || { cat "${WORK}/submit.out" >&2; exit 1; }
"${DIVSIM}" queue run --dir "${QDIR}" > "${WORK}/queue.out" 2>&1 &
pid=$!
signalled=0
for _ in $(seq 1 1000); do
  if ! kill -0 "${pid}" 2>/dev/null; then
    break
  fi
  if "${DIVSIM}" queue status --dir "${QDIR}" 2>/dev/null \
      | grep -q 'campaign 1 \[running\]'; then
    kill -TERM "${pid}" 2>/dev/null && signalled=1
    break
  fi
  sleep 0.005
done
wait "${pid}"
rc=$?
"${DIVSIM}" queue status --dir "${QDIR}" > "${WORK}/status.out" 2>&1

if [[ ${signalled} -eq 0 ]]; then
  echo "NOTE: the campaign finished before SIGTERM landed"
elif grep -q "${BUILD_MESSAGE}" "${WORK}/queue.out"; then
  if [[ ${rc} -ne 130 ]]; then
    echo "FAIL: coordinator cancelled in a graph build exited ${rc}, expected 130" >&2
    cat "${WORK}/queue.out" "${WORK}/status.out" >&2
    exit 1
  fi
  if ! grep -q 'campaign 1 \[queued\]' "${WORK}/status.out" \
      || ! grep -q 'note: operator cancel; checkpoint resumable' \
              "${WORK}/status.out"; then
    echo "FAIL: a cancel during the graph build did not release the campaign" >&2
    cat "${WORK}/queue.out" "${WORK}/status.out" >&2
    exit 1
  fi
else
  echo "NOTE: the graph was built before SIGTERM landed (coordinator exited ${rc})"
fi
if grep -q '\[failed\]' "${WORK}/status.out"; then
  echo "FAIL: an operator cancel marked the campaign failed" >&2
  cat "${WORK}/queue.out" "${WORK}/status.out" >&2
  exit 1
fi

# Whatever the signal hit, a second coordinator finishes the campaign.
"${DIVSIM}" queue run --dir "${QDIR}" --no-wait > "${WORK}/rerun.out" 2>&1
rerun_rc=$?
"${DIVSIM}" queue status --dir "${QDIR}" > "${WORK}/status.out" 2>&1
if [[ ${rerun_rc} -ne 0 ]] \
    || ! grep -q 'campaign 1 \[complete\]' "${WORK}/status.out"; then
  echo "FAIL: the second coordinator exited ${rerun_rc} without completing the campaign" >&2
  cat "${WORK}/rerun.out" "${WORK}/status.out" >&2
  exit 1
fi

echo "OK: SIGTERM during a graph build exits 130 and releases the campaign"
exit 0
