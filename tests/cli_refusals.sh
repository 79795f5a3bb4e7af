#!/usr/bin/env bash
# Refusals and reads that must leave the disk as they found it:
#
#   cli_refusals.sh <divsim> process
#     `divsim run --process bogus` exits 1 with "unknown process" before any
#     replica runs and before its --checkpoint-dir exists; under `queue run`
#     the campaign fails with that note and gets no campaigns/<id>.
#   cli_refusals.sh <divsim> queue
#     `queue status` on a missing directory prints the empty queue (text and
#     --json, exit 0) and creates nothing; a refused `queue submit` exits 1
#     without creating the queue directory; `queue status` on a queue with
#     a journal still reads it.
#
# Exits 77 (CTest SKIP_RETURN_CODE) when no divsim binary is given.
set -u

DIVSIM="${1:-}"
SECTION="${2:-}"
if [[ -z "${DIVSIM}" || ! -x "${DIVSIM}" ]]; then
  echo "SKIP: divsim binary not provided or not executable" >&2
  exit 77
fi

WORK="$(mktemp -d)" || exit 77
trap 'rm -rf "${WORK}"' EXIT

fail() {
  echo "FAIL: $*" >&2
  [[ -f "${WORK}/out" ]] && cat "${WORK}/out" >&2
  exit 1
}

# Runs divsim with the rest of the arguments, output to ${WORK}/out; the
# exit status lands in ${rc}.
run() {
  "${DIVSIM}" "$@" > "${WORK}/out" 2>&1
  rc=$?
}

case "${SECTION}" in
  process)
    run run --graph complete:8 --k 3 --replicas 4 --process bogus \
        --checkpoint-dir "${WORK}/ckpt"
    [[ ${rc} -eq 1 ]] || fail "run --process bogus exited ${rc}, expected 1"
    grep -q "^error: unknown process 'bogus'" "${WORK}/out" ||
      fail "run --process bogus did not name the unknown process"
    grep -q "replica" "${WORK}/out" &&
      fail "run --process bogus ran or reported replicas"
    [[ -e "${WORK}/ckpt" ]] &&
      fail "run --process bogus created its checkpoint directory"

    QDIR="${WORK}/queue"
    run queue submit --dir "${QDIR}" --graph=complete:8 --k=3 --replicas=4 \
        --process=bogus --seed=1
    [[ ${rc} -eq 0 ]] || fail "queue submit exited ${rc}"
    run queue run --dir "${QDIR}" --no-wait
    [[ ${rc} -eq 3 ]] || fail "queue run of a bogus process exited ${rc}, expected 3"
    run queue status --dir "${QDIR}" --json
    grep -q '"failed":1' "${WORK}/out" ||
      fail "the bogus campaign is not failed"
    grep -q "unknown process 'bogus'" "${WORK}/out" ||
      fail "the failed campaign's note does not name the unknown process"
    [[ -e "${QDIR}/campaigns/1" ]] &&
      fail "queue run created the bogus campaign's checkpoint directory"
    ;;
  queue)
    MISSING="${WORK}/missing"
    run queue status --dir "${MISSING}"
    [[ ${rc} -eq 0 ]] || fail "status of a missing queue exited ${rc}"
    [[ "$(cat "${WORK}/out")" == "queue ${MISSING}: 0 record(s)" ]] ||
      fail "status of a missing queue printed something else"
    run queue status --dir "${MISSING}" --json --deep
    [[ ${rc} -eq 0 ]] || fail "status --json of a missing queue exited ${rc}"
    grep -q '"records":0,"torn":false,"queued":0' "${WORK}/out" ||
      fail "status --json of a missing queue is not the empty queue"
    [[ -e "${MISSING}" ]] && fail "status created the missing queue directory"

    REFUSED="${WORK}/refused"
    run queue submit --dir "${REFUSED}" --checkpoint-dir "${WORK}/x" \
        --graph=complete:8 --replicas=2
    [[ ${rc} -eq 1 ]] || fail "submit with --checkpoint-dir exited ${rc}, expected 1"
    grep -q "^error: queue submit: --checkpoint-dir is queue-owned" \
        "${WORK}/out" || fail "submit with --checkpoint-dir was not refused"
    run queue submit --dir "${REFUSED}"
    [[ ${rc} -eq 1 ]] || fail "submit without options exited ${rc}, expected 1"
    [[ -e "${REFUSED}" ]] && fail "a refused submit created the queue directory"
    [[ -e "${WORK}/x" ]] && fail "a refused submit created its --checkpoint-dir"

    QDIR="${WORK}/queue"
    run queue submit --dir "${QDIR}" --graph=complete:8 --replicas=2
    [[ ${rc} -eq 0 ]] || fail "submit exited ${rc}"
    run queue status --dir "${QDIR}"
    [[ ${rc} -eq 0 ]] || fail "status of a one-campaign queue exited ${rc}"
    grep -q "^  campaign 1 \[queued\]: --graph=complete:8 --replicas=2$" \
        "${WORK}/out" || fail "status does not list the queued campaign"
    ;;
  *)
    echo "usage: cli_refusals.sh <divsim> process|queue" >&2
    exit 2
    ;;
esac
echo "PASS: cli_refusals ${SECTION}"
