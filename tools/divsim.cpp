// divsim -- command-line driver for the discrete-incremental-voting library.
//
//   divsim run      --graph <spec> [--process div] [--scheme edge]
//                   [--engine step|jump] [--k 5] [--seed 1] [--replicas 1]
//                   [--trace N] [--stop consensus|two-adjacent] [--max-steps M]
//                   [--fault drop=0.3,crash=0.05@[0,1e6],byzantine=0.02]
//                   [--retries N] [--threads N] [--batch-lanes N]
//                   [--deadline-ms N|auto] [--retry-backoff MS]
//                   [--deadline-fallback-ms N] [--deadline-quantile P]
//                   [--deadline-safety F] [--deadline-min-samples N]
//                   [--breaker-failures N] [--breaker-window-ms N]
//                   [--breaker-cooldown-ms N]
//                   [--straggler-factor F] [--min-success F] [--supervise]
//                   [--isolation thread|process] [--workers N]
//                   [--suspect-after-ms N] [--dead-after-ms N]
//                   [--checkpoint-dir D [--checkpoint-every R] [--resume]
//                    [--retry-quarantined]]
//                   [--metrics-out FILE] [--progress] [--heartbeat-ms N]
//   divsim journal  --dir <checkpoint-dir> [--json]  (inspect a campaign)
//   divsim queue    submit|run|status|drain --dir <queue-dir>
//                   (durable multi-campaign queue; see `divsim help`)
//   divsim spectral --graph <spec> [--seed 1] [--full]
//   divsim graph    --graph <spec> [--seed 1] [--dot] [--analyze]
//   divsim meanfield --k 5 [--tau 10] [--fractions a,b,c,...]
//   divsim trace    --graph <spec> [--process div] [--scheme edge] [--k 5]
//                   [--seed 1] [--stride n] [--max-steps M]   (CSV to stdout)
//
// Examples:
//   divsim run --graph regular:512:16 --k 7 --replicas 100
//   divsim run --graph regular:65536:16 --k 7 --replicas 5000
//              --checkpoint-dir sweep.ckpt          # Ctrl-C safe; then:
//   divsim run --graph regular:65536:16 --k 7 --replicas 5000
//              --checkpoint-dir sweep.ckpt --resume
//   divsim spectral --graph gnp:400:0.1
//   divsim graph --graph barbell:16 --analyze
//   divsim trace --graph complete:256 --k 6 > counts.csv
//
// SIGINT/SIGTERM request cooperative cancellation: in-flight replicas drain
// at a step boundary, the campaign journal (if any) is flushed, and divsim
// exits with status 130 and a resume hint.
//
// Exit codes (documented in README.md):
//   0    success -- every requested replica completed
//   1    error (bad flag value or spec, refused flag combination, I/O
//        failure, meta mismatch, ...)
//   2    usage (no command, or an unknown one); an unknown --flag only warns
//   3    replica errors, or a supervised run below its success quorum
//   4    torn journal tail detected by `divsim journal` / `queue status`
//   5    degraded -- quarantines exist but the --min-success quorum holds;
//        distinct from 3 so scripts can accept degraded-but-usable sweeps
//   6    queue admission refused (bounded depth reached; try again later)
//   130  cancelled by SIGINT/SIGTERM (resume hint printed)
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cli/args.hpp"
#include "cli/batch_lanes.hpp"
#include "cli/fault_spec.hpp"
#include "cli/flag_range.hpp"
#include "cli/graph_spec.hpp"
#include "cli/parse_number.hpp"
#include "cli/process_spec.hpp"
#include "core/cancel.hpp"
#include "core/faulty_process.hpp"
#include "core/coupling.hpp"
#include "core/mean_field.hpp"
#include "core/theory.hpp"
#include "exact/div_chain.hpp"
#include "engine/adaptive/calibration.hpp"
#include "engine/batch_engine.hpp"
#include "engine/campaign.hpp"
#include "engine/count_trace.hpp"
#include "engine/engine.hpp"
#include "engine/jump_engine.hpp"
#include "engine/initial_config.hpp"
#include "engine/montecarlo.hpp"
#include "graph/analysis.hpp"
#include "graph/graph_io.hpp"
#include "io/atomic_file.hpp"
#include "io/journal.hpp"
#include "io/table.hpp"
#include "obs/heartbeat.hpp"
#include "queue/coordinator.hpp"
#include "queue/queue_service.hpp"
#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"
#include "obs/run_metrics.hpp"
#include "spectral/lambda.hpp"
#include "stats/histogram.hpp"
#include "stats/summary.hpp"

namespace {

using namespace divlib;

int usage() {
  std::cout <<
      "usage: divsim <command> [options]\n"
      "\n"
      "commands:\n"
      "  run        simulate a voting process to consensus\n"
      "  journal    inspect a campaign checkpoint directory\n"
      "  queue      durable multi-campaign queue (submit|run|status|drain)\n"
      "  spectral   compute lambda = max(|lambda_2|, |lambda_n|)\n"
      "  graph      generate/inspect a graph\n"
      "  meanfield  integrate the K_n mean-field ODE for DIV\n"
      "  trace      emit per-opinion count time series as CSV\n"
      "  exact      solve the k^n-state DIV chain exactly (tiny graphs)\n"
      "  sweep      n-sweep of consensus statistics for a graph family\n"
      "  couple     run the Lemma 13 DIV <-> pull-voting coupling\n"
      "\n"
      "graph specs:   " << graph_spec_help() << "\n"
      "process specs: " << process_spec_help() << "\n"
      "fault specs:   --fault " << fault_spec_help() << "\n"
      "               (run only; add --retries N for per-replica retry)\n"
      "engines:       --engine step|jump (run only; jump skips lazy steps\n"
      "               via the embedded jump chain -- plain DIV, no faults)\n"
      "batching:      --batch-lanes N (1..4096) is accepted for plain DIV\n"
      "               (--process div, no --fault or --trace) but not\n"
      "               applied: every replica runs on its own one-lane\n"
      "               plane, bit-identical to the scalar engines\n"
      "durability:    --checkpoint-dir D journals each finished replica\n"
      "               (CRC-framed, fsync'd every --checkpoint-every records);\n"
      "               SIGINT/SIGTERM drain gracefully; --resume skips\n"
      "               journaled replicas and reproduces the uninterrupted\n"
      "               results bit for bit\n"
      "telemetry:     --metrics-out FILE streams JSON-lines telemetry (run\n"
      "               only): a meta record, one record per finished replica\n"
      "               with its mode-switch timeline, periodic heartbeat\n"
      "               records (every --heartbeat-ms, default 1000; 0 turns\n"
      "               the interval thread off) plus one at every journal\n"
      "               flush, and a final summary; every complete line of a\n"
      "               crashed run still parses.  --progress adds a live\n"
      "               stderr ticker\n"
      "supervision:   --deadline-ms N kills attempts past a wall-clock budget\n"
      "               and retries them; --deadline-ms auto learns the budget\n"
      "               online instead (per-attempt deadline = completion-time\n"
      "               quantile --deadline-quantile (default 0.95) x\n"
      "               --deadline-safety (default 3), armed once\n"
      "               --deadline-min-samples (default 8) attempts finished;\n"
      "               until then --deadline-fallback-ms (default 0 = none)\n"
      "               applies, and with --checkpoint-dir the learned samples\n"
      "               persist in calibration.journal so resumes start warm);\n"
      "               --retry-backoff MS sets the jittered exponential\n"
      "               backoff base between retries; --straggler-factor F\n"
      "               speculatively re-runs attempts slower than F x the\n"
      "               median (past the learned quantile once the estimator\n"
      "               is confident); --min-success F completes a campaign as\n"
      "               'degraded' once that fraction succeeded even if poison\n"
      "               replicas were quarantined; --supervise arms\n"
      "               supervision with defaults, as does any of these\n"
      "               flags.  Without them a failing replica retries at\n"
      "               once (--retries) with no deadline or breaker.\n"
      "backpressure:  supervised runs trip a circuit breaker after\n"
      "               --breaker-failures transient failures (default 4;\n"
      "               0 disables) inside --breaker-window-ms (default 2000):\n"
      "               retry backoff widens 4x and in-flight width halves --\n"
      "               thread workers stop claiming and the process fleet\n"
      "               dismisses idle workers -- until a\n"
      "               --breaker-cooldown-ms (default 3000) quiet period\n"
      "               passes a probe.  Trips are journaled and land in\n"
      "               `journal --json` as supervision events.\n"
      "isolation:     --isolation process forks one worker process per pool\n"
      "               slot (default thread), so a crashing replica (SIGSEGV,\n"
      "               abort, unhandled bad_alloc) costs one attempt, not the\n"
      "               run; healthy replicas are bit-identical to thread mode.\n"
      "               --workers N sizes the fleet; workers beat over their\n"
      "               result pipe and the parent tracks liveness Unknown ->\n"
      "               Alive -> Suspect (--suspect-after-ms, default 500) ->\n"
      "               Dead (--dead-after-ms, default 2000; the worker is\n"
      "               killed and its attempt retried or quarantined).\n"
      "               --retry-quarantined (with --resume) re-admits\n"
      "               quarantined replicas starting AFTER their consumed\n"
      "               attempts, dodging poison seeds.  `journal --json`\n"
      "               emits the checkpoint state as one JSON object.\n"
      "queue:         `divsim queue submit --dir Q <run options...>` admits a\n"
      "               campaign into a crash-safe WAL queue (dedup by config\n"
      "               fingerprint; --max-depth, default 256, refuses with\n"
      "               exit 6 when full).  `queue run --dir Q` coordinates:\n"
      "               each campaign is leased (--lease-ms, default 30000,\n"
      "               at least 150, renewed at lease/3), run supervised\n"
      "               against its own campaigns/<id> checkpoint, and\n"
      "               journaled through Queued -> Leased -> Running ->\n"
      "               Complete|Degraded|Failed|Cancelled.  SIGKILL the\n"
      "               coordinator at any point: the lease expires, the\n"
      "               next `queue run` requeues and resumes the campaign\n"
      "               bit-identically.\n"
      "               `queue status [--json] [--deep]` inspects; `queue\n"
      "               drain` cancels everything still Queued.\n"
      "exit codes:    0 ok; 1 error (bad flag value or spec, refused flag\n"
      "               combination, I/O); 2 usage (no or unknown command);\n"
      "               3 replica errors or below the\n"
      "               success quorum; 4 torn journal (journal/status);\n"
      "               5 degraded (quorum met despite quarantines);\n"
      "               6 queue admission refused (depth limit reached);\n"
      "               130 cancelled by SIGINT/SIGTERM (resume hint printed)\n";
  return 2;
}

void warn_unused(const Args& args) {
  for (const std::string& key : args.unused_keys()) {
    std::cerr << "warning: unrecognized option --" << key << "\n";
  }
}

struct ReplicaRun {
  RunResult result;
  std::uint64_t effective_steps = 0;  // jump engine only
  std::uint64_t dropped = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t recoveries = 0;
};

// Campaign payload codec: one line of space-separated fields, the fault text
// (which may contain spaces) last.  Only aggregate-relevant fields are
// persisted; traces stay in-memory.
std::string encode_replica_run(const ReplicaRun& run) {
  std::ostringstream out;
  out << to_string(run.result.status) << " " << run.result.steps << " "
      << run.effective_steps << " ";
  if (run.result.winner) {
    out << *run.result.winner;
  } else {
    out << "-";
  }
  out << " " << run.result.final_sum << " " << run.result.num_active << " "
      << run.result.min_active << " " << run.result.max_active << " "
      << run.dropped << " " << run.rollbacks << " " << run.corruptions << " "
      << run.recoveries;
  if (!run.result.fault.empty()) {
    out << " " << run.result.fault;
  }
  return out.str();
}

RunStatus parse_run_status(const std::string& name) {
  for (const RunStatus status :
       {RunStatus::kCompleted, RunStatus::kCapped, RunStatus::kFaulted,
        RunStatus::kCancelled, RunStatus::kDeadline}) {
    if (name == to_string(status)) {
      return status;
    }
  }
  throw std::invalid_argument("unknown run status '" + name + "' in journal");
}

ReplicaRun decode_replica_run(const std::string& payload) {
  std::istringstream in(payload);
  std::string status;
  std::string winner;
  ReplicaRun run;
  if (!(in >> status >> run.result.steps >> run.effective_steps >> winner >>
        run.result.final_sum >> run.result.num_active >>
        run.result.min_active >> run.result.max_active >> run.dropped >>
        run.rollbacks >> run.corruptions >> run.recoveries)) {
    throw std::invalid_argument("malformed replica record in journal: '" +
                                payload + "'");
  }
  run.result.status = parse_run_status(status);
  run.result.completed = run.result.status == RunStatus::kCompleted;
  if (winner != "-") {
    run.result.winner = static_cast<Opinion>(std::stol(winner));
  }
  std::getline(in >> std::ws, run.result.fault);
  return run;
}

int cmd_run(const Args& args) {
  const std::uint64_t master_seed = args.get_u64("seed", 1);
  Rng graph_rng(master_seed);
  // A SIGINT/SIGTERM during a large random build aborts it instead of
  // waiting for the graph, and the run exits 130 as an interrupted run
  // does.  The status is returned here, not from main, because `queue run`
  // calls cmd_run directly and maps 130 to a released (resumable) campaign.
  std::optional<Graph> built;
  try {
    built.emplace(make_graph_from_spec(args.get("graph", "complete:128"),
                                       graph_rng, &CancelToken::global()));
  } catch (const OperationCancelled&) {
    std::cout << "interrupted while building the graph; nothing ran\n";
    return 130;
  }
  const Graph& graph = *built;
  const Opinion k = k_flag(args);
  const SelectionScheme scheme = parse_scheme(args.get("scheme", "edge"));
  const std::string process_name = args.get("process", "div");
  // Refused before any replica runs or the checkpoint directory exists: an
  // unknown process, or one the graph cannot host, fails every attempt.
  (void)make_process_from_spec(process_name, scheme, graph);
  const auto replicas = static_cast<std::size_t>(args.get_u64("replicas", 1));
  const std::string stop_text = args.get("stop", "consensus");
  const std::uint64_t trace_stride = args.get_u64("trace", 0);
  const std::string fault_text = args.get("fault", "");
  // max_attempts is retries + 1, so the top value would wrap to 0 attempts.
  const unsigned retries = unsigned_flag(
      args, "retries", std::numeric_limits<unsigned>::max() - 1);
  const FaultSpec fault_spec = parse_fault_spec(fault_text);
  const std::string engine = args.get("engine", "step");
  if (engine != "step" && engine != "jump") {
    throw std::invalid_argument("--engine must be 'step' or 'jump', got '" +
                                engine + "'");
  }
  const bool jump = engine == "jump";
  if (jump && fault_spec.any()) {
    throw std::invalid_argument(
        "--engine=jump cannot honor --fault: lazy steps are not no-ops under "
        "a fault plan (churn schedules tick on the step clock); use the step "
        "engine for fault injection");
  }
  if (jump && process_name != "div") {
    throw std::invalid_argument(kJumpProcessRefusal);
  }

  const std::string checkpoint_dir = args.get("checkpoint-dir", "");
  const std::uint64_t checkpoint_every = args.get_positive_u64("checkpoint-every", 1);
  const bool resume = args.flag("resume");
  const unsigned threads = unsigned_flag(args, "threads");
  if (resume && checkpoint_dir.empty()) {
    throw std::invalid_argument("--resume requires --checkpoint-dir");
  }
  const std::string metrics_path = args.get("metrics-out", "");
  const bool progress_ticker = args.flag("progress");
  // --heartbeat-ms doubles as the fleet worker beat cadence when given
  // explicitly under --isolation process, so the telemetry and liveness
  // clocks agree; the default 1000 stays telemetry-only (the fleet's own
  // 50ms default is tuned against the liveness thresholds).
  const bool heartbeat_given = !args.get("heartbeat-ms", "").empty();
  const std::uint64_t heartbeat_ms = args.get_u64("heartbeat-ms", 1000);

  // Supervision knobs.  Passing ANY of them (or --supervise) arms the full
  // supervision policy; otherwise the run keeps the isolated drivers'
  // supervision-off policy (supervision_off).  Both run on one executor.
  const bool backoff_given = !args.get("retry-backoff", "").empty();
  // --deadline-ms takes a count OR the literal "auto".  Auto runs with the
  // adaptive estimator armed: attempts are budgeted at the learned
  // completion-time quantile x safety once the confidence gate opens, and
  // --deadline-fallback-ms (default 0 = no deadline) covers the cold start.
  const std::string deadline_text = args.get("deadline-ms", "0");
  const bool deadline_auto = deadline_text == "auto";
  const std::uint64_t deadline_ms = deadline_auto
                                        ? args.get_u64("deadline-fallback-ms", 0)
                                        : args.get_u64("deadline-ms", 0);
  const double deadline_quantile = args.get_double("deadline-quantile", 0.95);
  const double deadline_safety = args.get_double("deadline-safety", 3.0);
  const std::uint64_t deadline_min_samples =
      args.get_u64("deadline-min-samples", 8);
  if (deadline_quantile <= 0.0 || deadline_quantile > 1.0) {
    throw std::invalid_argument("--deadline-quantile must be in (0, 1]");
  }
  if (deadline_safety <= 0.0) {
    throw std::invalid_argument("--deadline-safety must be > 0");
  }
  if (deadline_min_samples == 0) {
    throw std::invalid_argument("--deadline-min-samples must be >= 1");
  }
  // Fleet backpressure: the breaker defaults ON for supervised runs (it only
  // changes retry pacing and replacement-fork width, never results), and
  // passing any breaker knob explicitly opts the run into supervision.
  const bool breaker_given = !args.get("breaker-failures", "").empty() ||
                             !args.get("breaker-window-ms", "").empty() ||
                             !args.get("breaker-cooldown-ms", "").empty();
  const std::uint64_t breaker_failures = args.get_u64("breaker-failures", 4);
  const std::uint64_t breaker_window_ms =
      args.get_u64("breaker-window-ms", 2000);
  const std::uint64_t breaker_cooldown_ms =
      args.get_u64("breaker-cooldown-ms", 3000);
  const std::uint64_t backoff_ms = args.get_u64("retry-backoff", 100);
  const double straggler_factor = args.get_double("straggler-factor", 0.0);
  const double min_success = args.get_double("min-success", 1.0);
  if (min_success < 0.0 || min_success > 1.0) {
    throw std::invalid_argument("--min-success must be in [0, 1]");
  }
  if (straggler_factor < 0.0) {
    throw std::invalid_argument("--straggler-factor must be >= 0");
  }
  // Isolation: --isolation process forks a worker fleet so a crashing
  // replica (SIGSEGV, bad_alloc the allocator cannot survive, stack smash)
  // costs one attempt instead of the whole run.  Fleet knobs only apply
  // there; process isolation implies the supervised driver.
  const Isolation isolation = parse_isolation(args.get("isolation", "thread"));
  const unsigned fleet_workers = unsigned_flag(args, "workers");
  const std::uint64_t suspect_after_ms = args.get_u64("suspect-after-ms", 500);
  const std::uint64_t dead_after_ms = args.get_u64("dead-after-ms", 2000);
  if (dead_after_ms <= suspect_after_ms) {
    throw std::invalid_argument(
        "--dead-after-ms must exceed --suspect-after-ms");
  }
  if (trace_stride > 0 && isolation == Isolation::kProcess) {
    throw std::invalid_argument(
        "--trace needs --isolation thread: fleet workers do not send traces "
        "back to the parent");
  }
  const bool retry_quarantined = args.flag("retry-quarantined");
  if (retry_quarantined && !resume) {
    throw std::invalid_argument(
        "--retry-quarantined only makes sense with --resume (it re-admits "
        "replicas a previous session quarantined)");
  }
  const bool supervise = args.flag("supervise") || deadline_ms > 0 ||
                         deadline_auto || breaker_given ||
                         straggler_factor > 0.0 || min_success < 1.0 ||
                         backoff_given || retry_quarantined ||
                         isolation == Isolation::kProcess;

  // --batch-lanes: every plain-DIV replica runs on its own one-lane plane,
  // so the width is validated but not applied; scripts that pass it keep
  // working.  The flag still names a plain-DIV feature, so the
  // incompatible modes stay refused.  The raw u64 is validated BEFORE
  // narrowing: 0 and values past kMaxBatchLanes used to be silently
  // clamped/wrapped.
  const unsigned batch_lanes =
      validate_batch_lanes(args.get_u64("batch-lanes", 1));
  if (batch_lanes > 1) {
    if (process_name != "div") {
      throw std::invalid_argument(kBatchLanesProcessRefusal);
    }
    if (fault_spec.any()) {
      throw std::invalid_argument(kBatchLanesFaultRefusal);
    }
    if (trace_stride > 0) {
      throw std::invalid_argument(kBatchLanesTraceRefusal);
    }
  }

  RunOptions options;
  options.stop = stop_text == "two-adjacent" ? StopKind::kTwoAdjacent
                                             : StopKind::kConsensus;
  options.max_steps = args.get_u64(
      "max-steps", static_cast<std::uint64_t>(graph.num_vertices()) *
                       graph.num_vertices() * 1000);
  options.trace_stride = trace_stride;
  // Both engines drain at a step boundary when SIGINT/SIGTERM arrives.
  options.cancel = &CancelToken::global();
  warn_unused(args);

  std::cout << "graph: " << graph.summary() << "\n"
            << "process: " << process_name << "/" << to_string(scheme)
            << ", engine: " << engine << ", opinions 1.." << k
            << ", stop: " << to_string(options.stop)
            << ", replicas: " << replicas << "\n";
  if (batch_lanes > 1) {
    std::cout << "batch lanes: " << batch_lanes
              << " (note: every replica runs on one lane, so the width is "
                 "not applied)\n";
  }
  if (fault_spec.any()) {
    std::cout << "faults: " << fault_text << "\n";
  }

  // Telemetry plumbing.  The JSONL emitter, registry, and heartbeat are all
  // safe to share across Monte-Carlo workers (mutex-guarded emit, relaxed
  // atomics); a null emitter / false ticker disables each piece entirely.
  std::unique_ptr<JsonlWriter> metrics_out;
  if (!metrics_path.empty()) {
    metrics_out = std::make_unique<JsonlWriter>(metrics_path);
  }
  const bool telemetry = metrics_out != nullptr || progress_ticker;
  MetricsRegistry registry;
  Counter& runs_completed = registry.counter("runs_completed");
  Counter& runs_capped = registry.counter("runs_capped");
  Counter& runs_faulted = registry.counter("runs_faulted");
  Counter& runs_cancelled = registry.counter("runs_cancelled");
  Counter& runs_deadline = registry.counter("runs_deadline");
  FixedHistogram& steps_hist = registry.histogram(
      "scheduled_steps", FixedHistogram::geometric_bounds(1024.0, 4.0, 16));
  BatchProgress progress;
  progress.total.store(replicas, std::memory_order_relaxed);

  if (metrics_out) {
    JsonObject meta_record;
    meta_record.field("type", "meta")
        .field("graph", args.get("graph", "complete:128"))
        .field("process", process_name)
        .field("scheme", to_string(scheme))
        .field("engine", engine)
        .field("k", static_cast<std::uint64_t>(k))
        .field("stop", to_string(options.stop))
        .field("max_steps", options.max_steps)
        .field("replicas", static_cast<std::uint64_t>(replicas))
        .field("seed", master_seed)
        .field("fault", fault_text)
        .field("batch_lanes", static_cast<std::uint64_t>(batch_lanes));
    metrics_out->emit(meta_record.str());
  }

  std::unique_ptr<Heartbeat> heartbeat;
  if (telemetry) {
    heartbeat = std::make_unique<Heartbeat>(
        progress,
        [&](const HeartbeatRecord& record) {
          if (metrics_out) {
            JsonObject line;
            line.field("type", "heartbeat")
                .raw_field("progress", record.to_json());
            metrics_out->emit(line.str());
          }
          if (progress_ticker) {
            std::cerr << "\rprogress: " << record.done << "/" << record.total
                      << " replicas, " << record.errored << " errored, "
                      << record.retried << " retried, "
                      << format_double(record.per_second, 1) << "/s, eta "
                      << format_double(record.eta_seconds, 0) << "s   ";
            if (record.reason == "final") {
              std::cerr << "\n";
            }
          }
        },
        std::chrono::milliseconds(heartbeat_ms));
  }

  // Per-replica accounting: status counter, scheduled_steps histogram, and
  // one "run" record keyed by replica id with the attempt's RunMetrics
  // trajectory (a retried replica emits one per attempt; readers keep the
  // last).  The lane and scalar engines fill identical metrics for a seed,
  // so the record does not depend on the path that ran the attempt.
  const auto account_run = [&](std::size_t replica, const RunResult& result,
                               std::uint64_t effective_steps,
                               const RunMetrics& metrics) {
    if (telemetry) {
      switch (result.status) {
        case RunStatus::kCompleted: runs_completed.add(); break;
        case RunStatus::kCapped:    runs_capped.add(); break;
        case RunStatus::kFaulted:   runs_faulted.add(); break;
        case RunStatus::kCancelled: runs_cancelled.add(); break;
        case RunStatus::kDeadline:  runs_deadline.add(); break;
      }
      steps_hist.observe(static_cast<double>(result.steps));
    }
    if (metrics_out) {
      JsonObject line;
      line.field("type", "run")
          .field("replica", static_cast<std::uint64_t>(replica))
          .field("status", to_string(result.status))
          .field("steps", result.steps)
          .field("effective_steps", effective_steps)
          .raw_field("metrics", metrics.to_json());
      metrics_out->emit(line.str());
    }
  };
  // The executor's drain convention: nullopt for BOTH a deadline kill and
  // an operator drain (it reads the lease token's CancelReason to tell them
  // apart).  A finished attempt persists through the campaign journal's
  // codec, so every path reports from the same bytes.
  const auto verdict_of =
      [](const ReplicaRun& out) -> std::optional<std::string> {
    if (out.result.status == RunStatus::kCancelled ||
        out.result.status == RunStatus::kDeadline) {
      return std::nullopt;
    }
    return encode_replica_run(out);
  };

  // Fleet workers emit no telemetry: they inherit the parent's JSONL file
  // descriptor and registry across fork(), and a child writing either would
  // interleave with (and double) the parent's.
  const bool emit_telemetry = isolation == Isolation::kThread;

  // The one task every path runs.  Every plain-DIV attempt (--process div,
  // no --fault, no --trace) runs on the lane kernels, one plane per
  // attempt: its initial opinions are drawn from `rng` exactly as the
  // scalar engines' OpinionState would, and the lane kernels are
  // bit-identical per seed, so every payload and every metrics record
  // equals a scalar run's.  The scalar engines serve what the lane kernels
  // cannot: fault plans, non-DIV processes, and --trace (replica 0's trace
  // is captured on the side, as the journal keeps no traces; a speculative
  // twin records the same bytes).  `cancel` is the executor's per-attempt
  // lease token (the global SIGINT token for plain campaigns).
  const bool lane_kernel =
      process_name == "div" && !fault_spec.any() && trace_stride == 0;
  std::mutex trace_mutex;
  std::optional<Trace> replica0_trace;
  const SupervisedTask task =
      [&](std::size_t replica, Rng& rng,
          const CancelToken& cancel) -> std::optional<std::string> {
    // Per-replica trajectory telemetry lands in a local RunMetrics so
    // concurrent replicas never share one (RunOptions itself is shared).
    RunOptions replica_options = options;
    replica_options.cancel = &cancel;
    RunMetrics metrics;
    if (metrics_out && emit_telemetry) {
      replica_options.metrics = &metrics;
    }
    ReplicaRun out;
    if (lane_kernel) {
      OpinionPlane plane(
          graph, uniform_random_opinions(graph.num_vertices(), 1, k, rng));
      if (jump) {
        const JumpRunResult jump_result =
            run_lane_jump(graph, scheme, plane, rng, replica_options);
        out.result = jump_result;
        out.effective_steps = jump_result.effective_steps;
      } else {
        out.result = run_lane(graph, scheme, plane, rng, replica_options);
      }
    } else {
      OpinionState state(
          graph, uniform_random_opinions(graph.num_vertices(), 1, k, rng));
      auto process = make_process_from_spec(process_name, scheme, graph);
      if (fault_spec.any()) {
        const std::uint64_t fault_seed =
            Rng::substream_seed(master_seed ^ 0xfa017ULL, replica);
        auto faulty = std::make_unique<FaultyProcess>(
            std::move(process),
            materialize_fault_plan(fault_spec, graph.num_vertices(),
                                   fault_seed, rng));
        out.result = run_guarded(*faulty, state, rng, replica_options);
        out.dropped = faulty->dropped();
        out.rollbacks = faulty->rollbacks();
        out.corruptions = faulty->corruptions();
        out.recoveries = faulty->recoveries();
      } else if (jump) {
        const JumpRunResult jump_result =
            run_jump_guarded(*process, state, rng, replica_options);
        out.result = jump_result;
        out.effective_steps = jump_result.effective_steps;
      } else {
        out.result = run_guarded(*process, state, rng, replica_options);
      }
    }
    if (emit_telemetry) {
      account_run(replica, out.result, out.effective_steps, metrics);
    }
    std::optional<std::string> payload = verdict_of(out);
    if (payload && replica == 0 && trace_stride > 0) {
      const std::lock_guard<std::mutex> lock(trace_mutex);
      replica0_trace = out.result.trace;
    }
    return payload;
  };

  const MonteCarloOptions mc{.master_seed = master_seed,
                             .num_threads = threads,
                             .max_attempts = retries + 1,
                             .cancel = &CancelToken::global(),
                             .progress = telemetry ? &progress : nullptr};

  // Supervision overlays its knobs on the supervision-off policy.
  SupervisorOptions sup = supervision_off(mc);
  // The estimator is armed for every supervised run: with --deadline-ms auto
  // it drives the per-attempt deadline; either way it upgrades straggler
  // speculation from reactive (median of this run) to predictive (learned
  // quantile) once confident.
  EstimatorOptions est_options;
  est_options.quantile = deadline_quantile;
  est_options.safety_factor = deadline_safety;
  est_options.min_samples = deadline_min_samples;
  CompletionEstimator estimator(est_options);
  if (supervise) {
    sup.classify = nullptr;  // the default failure taxonomy
    sup.backoff_base = std::chrono::milliseconds(backoff_ms);
    sup.deadline = std::chrono::milliseconds(deadline_ms);
    sup.straggler_factor = straggler_factor;
    sup.min_success_fraction = min_success;
    sup.metrics = telemetry ? &registry : nullptr;
    sup.isolation = isolation;
    sup.fleet.workers = fleet_workers;
    sup.fleet.suspect_after = std::chrono::milliseconds(suspect_after_ms);
    sup.fleet.dead_after = std::chrono::milliseconds(dead_after_ms);
    if (heartbeat_given && heartbeat_ms > 0 &&
        isolation == Isolation::kProcess) {
      // The fleet clamps a cadence that would flap the failure detector and
      // warns on stderr (see clamp_heartbeat_cadence).
      sup.fleet.heartbeat_interval = std::chrono::milliseconds(heartbeat_ms);
    }
    sup.estimator = &estimator;
    sup.deadline_auto = deadline_auto;
    sup.breaker_enabled = breaker_failures > 0;
    sup.breaker.failure_threshold = breaker_failures;
    sup.breaker.window = std::chrono::milliseconds(breaker_window_ms);
    sup.breaker.cooldown = std::chrono::milliseconds(breaker_cooldown_ms);
    if (metrics_out) {
      sup.on_event = [&](const SupervisionEvent& event) {
        JsonObject line;
        line.field("type", "supervision").raw_field("event", event.to_json());
        metrics_out->emit(line.str());
      };
    }
  }
  std::vector<std::optional<ReplicaRun>> results(replicas);
  const auto collect = [&results](std::size_t replica, std::string&& payload) {
    results[replica] = decode_replica_run(payload);
  };
  BatchReport report;
  SupervisorReport sup_report;
  std::vector<QuarantineRecord> quarantined;
  std::optional<CampaignStatus> campaign_status;
  bool campaign_cancelled = false;
  if (checkpoint_dir.empty()) {
    std::vector<std::size_t> ids(replicas);
    std::iota(ids.begin(), ids.end(), std::size_t{0});
    sup_report = run_supervised_set(ids, task, collect, sup);
    quarantined = sup_report.quarantined;
    if (!supervise) {
      report = to_batch_report(sup_report);
    }
  } else {
    // The meta fingerprint pins every knob that shapes per-replica results;
    // resuming under a different configuration is refused.  Supervision
    // knobs are deliberately NOT part of it: they decide which attempts run
    // and when, never what an attempt computes, so resuming with a longer
    // deadline (or supervision toggled on) is a supported recovery path.
    std::ostringstream meta;
    meta << "divsim-campaign 1\ngraph=" << args.get("graph", "complete:128")
         << " k=" << k << " process=" << process_name
         << " scheme=" << to_string(scheme) << " engine=" << engine
         << " stop=" << to_string(options.stop)
         << " max-steps=" << options.max_steps << " replicas=" << replicas
         << " seed=" << master_seed << " fault=" << fault_text << "\n";
    CampaignOptions campaign;
    campaign.directory = checkpoint_dir;
    campaign.flush_every = checkpoint_every;
    campaign.resume = resume;
    campaign.meta = meta.str();
    campaign.mc = mc;
    campaign.heartbeat = heartbeat.get();
    campaign.retry_quarantined = retry_quarantined;
    if (supervise) {
      const SupervisedCampaignResult outcome =
          run_supervised_campaign(replicas, task, campaign, sup);
      for (std::size_t replica = 0; replica < replicas; ++replica) {
        if (outcome.payloads[replica]) {
          results[replica] = decode_replica_run(*outcome.payloads[replica]);
        }
      }
      sup_report = outcome.report;
      quarantined = outcome.quarantined;
      campaign_status = outcome.status;
      campaign_cancelled = outcome.status == CampaignStatus::kCancelled;
      if (outcome.warmed > 0) {
        std::cout << "calibration: " << outcome.warmed
                  << " completion sample(s) recovered from "
                  << (std::filesystem::path(checkpoint_dir) /
                      CalibrationLog::file_name())
                         .string()
                  << "\n";
      }
      std::cout << "campaign: " << checkpoint_dir << " -- " << outcome.resumed
                << " resumed from journal, " << outcome.ran
                << " run this session, " << quarantined.size()
                << " quarantined, status " << to_string(outcome.status)
                << "\n";
    } else {
      const CampaignResult outcome = run_campaign(
          replicas,
          [&](std::size_t replica, Rng& rng) {
            return task(replica, rng, CancelToken::global());
          },
          campaign);
      for (std::size_t replica = 0; replica < replicas; ++replica) {
        if (outcome.payloads[replica]) {
          results[replica] = decode_replica_run(*outcome.payloads[replica]);
        }
      }
      report = outcome.report;
      campaign_cancelled = outcome.cancelled;
      std::cout << "campaign: " << checkpoint_dir << " -- " << outcome.resumed
                << " resumed from journal, " << outcome.ran
                << " run this session\n";
    }
  }

  if (heartbeat) {
    heartbeat->stop();  // joins the interval thread, emits the final record
  }
  if (metrics_out) {
    std::string instruments = "{";
    bool first = true;
    for (const InstrumentSnapshot& snap : registry.snapshot()) {
      if (!first) {
        instruments.push_back(',');
      }
      first = false;
      instruments.push_back('"');
      instruments += json_escape(snap.name);
      instruments += "\":";
      instruments += snap.to_json();
    }
    instruments.push_back('}');
    JsonObject line;
    line.field("type", "summary")
        .field("replicas", static_cast<std::uint64_t>(replicas));
    if (supervise) {
      line.field("succeeded", static_cast<std::uint64_t>(sup_report.succeeded))
          .field("retries", sup_report.retries)
          .field("quarantined", static_cast<std::uint64_t>(quarantined.size()))
          .field("fail_fasts", sup_report.fail_fasts)
          .field("deadline_kills", sup_report.deadline_kills)
          .field("speculative_launches", sup_report.speculative_launches)
          .field("speculative_wins", sup_report.speculative_wins)
          .field("deadline_adapts", sup_report.deadline_adapts)
          .field("learned_deadline_ms", sup_report.learned_deadline_ms)
          .field("breaker_opens", sup_report.breaker_opens)
          .field("breaker_closes", sup_report.breaker_closes)
          .field("isolation", to_string(isolation))
          .field("worker_spawns", sup_report.worker_spawns)
          .field("worker_suspects", sup_report.worker_suspects)
          .field("worker_deaths", sup_report.worker_deaths)
          .field("worker_dismissals", sup_report.worker_dismissals)
          .field("cancelled", sup_report.cancelled);
    } else {
      line.field("attempted", static_cast<std::uint64_t>(report.attempted))
          .field("retries", report.retries)
          .field("errors", static_cast<std::uint64_t>(report.errors.size()))
          .field("cancelled", report.cancelled);
    }
    line.raw_field("instruments", instruments);
    metrics_out->emit(line.str());
    metrics_out->sync();
    std::cout << "metrics: " << metrics_out->path() << " ("
              << metrics_out->lines_written() << " records)\n";
  }

  IntCounter winners;
  Summary steps;
  std::uint64_t capped = 0;
  std::uint64_t faulted = 0;
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;
  ReplicaRun totals;
  for (const auto& slot : results) {
    if (!slot) {
      continue;  // reported below via the batch report / resume hint
    }
    const ReplicaRun& replica_run = *slot;
    totals.effective_steps += replica_run.effective_steps;
    totals.dropped += replica_run.dropped;
    totals.rollbacks += replica_run.rollbacks;
    totals.corruptions += replica_run.corruptions;
    totals.recoveries += replica_run.recoveries;
    switch (replica_run.result.status) {
      case RunStatus::kFaulted:
        ++faulted;
        continue;
      case RunStatus::kCapped:
        ++capped;
        continue;
      case RunStatus::kCancelled:
      case RunStatus::kDeadline:
        // Deadline-killed attempts return nullopt, so kDeadline never lands
        // in a payload; the case guards against hand-edited journals.
        ++cancelled;
        continue;
      case RunStatus::kCompleted:
        ++completed;
        break;
    }
    steps.add(static_cast<double>(replica_run.result.steps));
    if (replica_run.result.winner) {
      winners.add(*replica_run.result.winner);
    }
  }

  std::cout << "completed " << completed << "/" << replicas << " replicas";
  if (capped > 0) {
    std::cout << " (" << capped << " capped)";
  }
  if (faulted > 0) {
    std::cout << " (" << faulted << " faulted)";
  }
  if (cancelled > 0) {
    std::cout << " (" << cancelled << " cancelled)";
  }
  std::cout << "; E[steps] = " << format_double(steps.mean(), 1) << " +- "
            << format_double(steps.ci95_halfwidth(), 1) << "\n";
  if (jump) {
    std::cout << "jump engine: " << totals.effective_steps
              << " effective steps simulated across completed replicas "
                 "(scheduled steps reported above)\n";
  }
  if (fault_spec.any()) {
    std::cout << "fault counters: dropped " << totals.dropped << ", rollbacks "
              << totals.rollbacks << ", corruptions " << totals.corruptions
              << ", recoveries " << totals.recoveries << "\n";
  }
  if (winners.total() > 0) {
    std::cout << "winners:";
    for (const auto& [value, count] : winners.counts()) {
      std::cout << "  " << value << " x" << count;
    }
    std::cout << "\n";
  }
  if (supervise) {
    std::cout << "supervision: " << sup_report.retries << " retries, "
              << sup_report.fail_fasts << " fail-fasts, "
              << sup_report.deadline_kills << " deadline kills, "
              << sup_report.speculative_launches << " speculative launches ("
              << sup_report.speculative_wins << " won), "
              << quarantined.size() << " quarantined\n";
    if (deadline_auto) {
      const EstimatorSnapshot snap = estimator.stats();
      std::cout << "adaptive deadline: ";
      if (snap.confident) {
        // Ask the estimator, not the session report: a resume that ran zero
        // replicas still warmed a confident estimator worth reporting.
        const auto armed =
            estimator.deadline(std::chrono::milliseconds(deadline_ms));
        std::cout << "learned " << armed.count() << "ms (q"
                  << format_double(deadline_quantile, 2) << " = "
                  << format_double(snap.quantile_seconds, 3) << "s x safety "
                  << format_double(deadline_safety, 1) << ", " << snap.samples
                  << " samples, " << sup_report.deadline_adapts
                  << " adapt event(s))\n";
      } else {
        std::cout << "confidence gate closed (" << snap.samples << "/"
                  << deadline_min_samples << " samples); fallback ";
        if (deadline_ms > 0) {
          std::cout << deadline_ms << "ms";
        } else {
          std::cout << "none";
        }
        std::cout << " held\n";
      }
    }
    if (sup_report.breaker_opens > 0) {
      std::cout << "backpressure: breaker opened " << sup_report.breaker_opens
                << " time(s), closed " << sup_report.breaker_closes
                << " time(s)\n";
    }
    if (isolation == Isolation::kProcess) {
      std::cout << "fleet: " << sup_report.worker_spawns << " worker(s) forked, "
                << sup_report.worker_suspects << " suspect transition(s), "
                << sup_report.worker_deaths << " death(s), "
                << sup_report.worker_dismissals
                << " breaker dismissal(s)\n";
    }
    for (const QuarantineRecord& record : quarantined) {
      std::cout << "  quarantined replica " << record.replica << " ("
                << to_string(record.failure) << ", " << record.attempts
                << " attempt(s)): " << record.message << "\n";
    }
  }
  if (!report.ok()) {
    std::cout << "replica errors (" << report.errors.size() << ", after "
              << report.retries << " retries):\n";
    for (const ReplicaError& error : report.errors) {
      std::cout << "  replica " << error.replica << " failed " << error.attempts
                << " attempt(s): " << error.message << "\n";
    }
  }
  if (replica0_trace && !replica0_trace->empty()) {
    std::cout << "trace of replica 0 (step, range, S):\n";
    for (const TraceSample& sample : replica0_trace->samples()) {
      std::cout << "  " << sample.step << "  [" << sample.min_active << ","
                << sample.max_active << "]  " << sample.sum << "\n";
    }
  } else if (trace_stride > 0 && !results.empty() && results.front()) {
    std::cout << "trace of replica 0: not recorded -- it was resumed from "
                 "the journal, which keeps no traces\n";
  }
  if (campaign_cancelled || CancelToken::global().requested()) {
    if (!checkpoint_dir.empty()) {
      std::cout << "interrupted; finished replicas are journaled -- resume "
                   "with: --checkpoint-dir "
                << checkpoint_dir << " --resume\n";
    } else {
      std::cout << "interrupted; no --checkpoint-dir was given, so partial "
                   "results are discarded\n";
    }
    return 130;  // 128 + SIGINT, the conventional interrupted-exit status
  }
  if (supervise) {
    if (quarantined.empty()) {
      return 0;
    }
    // Degraded (quorum met) exits 5 so scripts can tell a usable-but-partial
    // sweep from the hard failure 3.
    const bool degraded =
        campaign_status ? *campaign_status == CampaignStatus::kDegraded
                        : sup_report.success_fraction() >= min_success;
    std::cout << (degraded ? "degraded" : "failed") << ": "
              << quarantined.size() << " replica(s) quarantined, success "
              << format_double(
                     campaign_status
                         ? 1.0 - static_cast<double>(quarantined.size()) /
                                     static_cast<double>(replicas)
                         : sup_report.success_fraction(),
                     3)
              << " vs --min-success " << format_double(min_success, 3) << "\n";
    return degraded ? 5 : 3;
  }
  return report.ok() ? 0 : 3;
}

int cmd_journal(const Args& args) {
  // Read-only inspection of a campaign checkpoint directory; records print
  // sorted by replica id, so two campaigns that finished the same work
  // compare equal regardless of completion order.  --json emits one machine-
  // readable object instead of the human listing (same exit-code contract).
  const std::string dir = args.get("dir", "");
  if (dir.empty()) {
    throw std::invalid_argument("journal: --dir <checkpoint-dir> is required");
  }
  const bool as_json = args.flag("json");
  warn_unused(args);
  const std::string meta = read_file(dir + "/campaign.meta");
  const JournalRecovery recovery = read_journal(dir + "/results.journal");
  std::map<std::size_t, std::string> by_replica;
  std::map<std::size_t, QuarantineRecord> quarantines;
  std::vector<std::string> supervision_events;  // event JSON, journal order
  for (const std::string& record : recovery.records) {
    if (is_quarantine_record(record)) {
      QuarantineRecord entry = decode_quarantine_record(record);
      quarantines[entry.replica] = std::move(entry);
      continue;
    }
    if (is_supervision_record(record)) {
      // Deadline kills, adaptive-deadline moves, and breaker trips journaled
      // by a supervised campaign; kept in journal order so the decision
      // sequence that shaped the results reads top to bottom.
      supervision_events.emplace_back(decode_supervision_record(record));
      continue;
    }
    const auto [replica, payload] = decode_campaign_record(record);
    by_replica[replica] = payload;  // duplicates: last record wins
  }
  for (const auto& [replica, payload] : by_replica) {
    // A payload trumps a quarantine for the same id (crash between appends).
    (void)payload;
    quarantines.erase(replica);
  }
  if (as_json) {
    // Quarantine + supervision state as structured JSON, one object: meta,
    // journal health, finished replicas, and the excluded set with the
    // resume-relevant fields (class, cumulative attempts, last message).
    std::string replicas_json = "[";
    bool first = true;
    for (const auto& [replica, payload] : by_replica) {
      if (!first) replicas_json.push_back(',');
      first = false;
      JsonObject entry;
      entry.field("replica", static_cast<std::uint64_t>(replica))
          .field("payload", payload);
      replicas_json += entry.str();
    }
    replicas_json.push_back(']');
    std::string quarantines_json = "[";
    first = true;
    for (const auto& [replica, entry] : quarantines) {
      if (!first) quarantines_json.push_back(',');
      first = false;
      JsonObject item;
      item.field("replica", static_cast<std::uint64_t>(replica))
          .field("failure", to_string(entry.failure))
          .field("attempts", static_cast<std::uint64_t>(entry.attempts))
          .field("message", entry.message);
      quarantines_json += item.str();
    }
    quarantines_json.push_back(']');
    // Supervision events are stored as the event's own JSON, embedded
    // verbatim -- no re-encoding round trip to drift through.
    std::string supervision_json = "[";
    first = true;
    for (const std::string& event : supervision_events) {
      if (!first) supervision_json.push_back(',');
      first = false;
      supervision_json += event;
    }
    supervision_json.push_back(']');
    JsonObject object;
    object.field("meta", meta)
        .field("records", static_cast<std::uint64_t>(recovery.records.size()))
        .field("valid_bytes", recovery.valid_bytes)
        .field("total_bytes", recovery.total_bytes)
        .field("torn", recovery.torn())
        .field("finished", static_cast<std::uint64_t>(by_replica.size()))
        .field("quarantined", static_cast<std::uint64_t>(quarantines.size()))
        .field("supervision_events",
               static_cast<std::uint64_t>(supervision_events.size()))
        .raw_field("replicas", replicas_json)
        .raw_field("quarantines", quarantines_json)
        .raw_field("supervision", supervision_json);
    std::cout << object.str() << "\n";
    return recovery.torn() ? 4 : 0;
  }
  std::cout << "meta:\n" << meta;
  std::cout << "records: " << recovery.records.size() << " intact, "
            << recovery.valid_bytes << "/" << recovery.total_bytes
            << " bytes valid" << (recovery.torn() ? " (torn tail)" : "")
            << "\n";
  for (const auto& [replica, payload] : by_replica) {
    std::cout << "replica " << replica << ": " << payload << "\n";
  }
  for (const auto& [replica, entry] : quarantines) {
    std::cout << "replica " << replica << ": QUARANTINED ("
              << to_string(entry.failure) << ", " << entry.attempts
              << " attempt(s)) " << entry.message << "\n";
  }
  if (!quarantines.empty()) {
    std::cout << "quarantined: " << quarantines.size()
              << " replica(s) excluded from resume\n";
  }
  if (!supervision_events.empty()) {
    std::cout << "supervision events (" << supervision_events.size()
              << ", journal order):\n";
    for (const std::string& event : supervision_events) {
      std::cout << "  " << event << "\n";
    }
  }
  return recovery.torn() ? 4 : 0;
}

// ---------------------------------------------------------------------------
// divsim queue: the durable multi-campaign queue service (src/queue).
//
//   queue submit --dir Q <campaign options...>   admit one campaign
//   queue run    --dir Q [--max-campaigns N]     coordinate: lease + run
//   queue status --dir Q [--json] [--deep]       inspect (read-only)
//   queue drain  --dir Q [--reason TEXT]         cancel everything Queued
//
// A submitted campaign is the full `divsim run` option set, canonicalized
// (sorted, one token per option) and stored verbatim in queue.journal; the
// coordinator re-enters cmd_run with those tokens plus a queue-owned
// checkpoint directory, so every durability property of `run
// --checkpoint-dir` -- bit-identical resume included -- carries over.

// Serializes the campaign options left after the queue's own were consumed
// into the canonical one-line config stored in the journal.
std::string canonical_queue_config(const Args& args) {
  std::string config;
  for (const std::string& key : args.unused_keys()) {
    if (key == "checkpoint-dir" || key == "resume" ||
        key == "checkpoint-every") {
      throw std::invalid_argument(
          "queue submit: --" + key +
          " is queue-owned (each campaign checkpoints under the queue's "
          "campaigns/<id> directory)");
    }
    const std::string value = args.get(key, "");
    if (value.find_first_of(" \t\n") != std::string::npos) {
      throw std::invalid_argument("queue submit: value of --" + key +
                                  " must not contain whitespace");
    }
    if (!config.empty()) {
      config += ' ';
    }
    config += "--" + key;
    if (!value.empty()) {
      config += "=" + value;
    }
  }
  if (config.empty()) {
    throw std::invalid_argument(
        "queue submit: no campaign options given (e.g. --graph=... "
        "--replicas=...)");
  }
  return config;
}

std::vector<std::string> split_config_tokens(const std::string& config) {
  std::vector<std::string> tokens;
  std::istringstream in(config);
  std::string token;
  while (in >> token) {
    tokens.push_back(token);
  }
  return tokens;
}

// Runs one leased campaign by re-entering cmd_run against the campaign's
// own checkpoint directory, and maps the exit code back onto the queue's
// terminal phases.  --supervise is forced so quarantines grade the campaign
// instead of failing it outright.
CampaignPhase run_queue_campaign(const CampaignEntry& campaign,
                                 const std::string& checkpoint_dir) {
  std::vector<std::string> tokens = split_config_tokens(campaign.config);
  tokens.push_back("--checkpoint-dir=" + checkpoint_dir);
  tokens.push_back("--supervise");
  if (std::filesystem::exists(std::filesystem::path(checkpoint_dir) /
                              "results.journal")) {
    tokens.push_back("--resume");  // a prior lease already made progress
  }
  const Args run_args(tokens);
  const int code = cmd_run(run_args);
  switch (code) {
    case 0:
      return CampaignPhase::kComplete;
    case 5:
      return CampaignPhase::kDegraded;
    case 130:
      return CampaignPhase::kCancelled;
    default:
      throw std::runtime_error("campaign run exited " + std::to_string(code));
  }
}

// Renders one campaign entry as a JSON object; --deep adds checkpoint
// progress read from the campaign's own results.journal.
std::string queue_campaign_json(const CampaignQueue& queue,
                                const CampaignEntry& entry, bool deep) {
  JsonObject object;
  object.field("id", static_cast<std::uint64_t>(entry.id))
      .field("phase", to_string(entry.phase))
      .field("config", entry.config);
  char fingerprint[9];
  std::snprintf(fingerprint, sizeof(fingerprint), "%08x", entry.fingerprint);
  object.field("fingerprint", fingerprint)
      .field("requeues", entry.requeues);
  if (entry.lease != 0) {
    object.field("lease", entry.lease)
        .field("lease_deadline_ms", entry.lease_deadline_ms);
  }
  if (!entry.note.empty()) {
    object.field("note", entry.note);
  }
  if (deep) {
    const std::string journal =
        (std::filesystem::path(queue.campaign_directory(entry.id)) /
         "results.journal")
            .string();
    if (std::filesystem::exists(journal)) {
      const JournalRecovery recovery = read_journal(journal);
      std::uint64_t finished = 0;
      std::uint64_t quarantined = 0;
      std::uint64_t breaker_opens = 0;
      std::uint64_t breaker_closes = 0;
      std::uint64_t worker_dismissals = 0;
      for (const std::string& record : recovery.records) {
        if (is_quarantine_record(record)) {
          ++quarantined;
        } else if (is_supervision_record(record)) {
          const std::string_view event = decode_supervision_record(record);
          if (event.find("\"kind\":\"breaker-open\"") != std::string::npos) {
            ++breaker_opens;
          } else if (event.find("\"kind\":\"breaker-close\"") !=
                     std::string::npos) {
            ++breaker_closes;
          } else if (event.find("\"kind\":\"worker-dismiss\"") !=
                     std::string::npos) {
            ++worker_dismissals;
          }
        } else {
          ++finished;
        }
      }
      JsonObject checkpoint;
      checkpoint.field("finished_replicas", finished)
          .field("quarantined", quarantined)
          .field("breaker_opens", breaker_opens)
          .field("breaker_closes", breaker_closes)
          .field("worker_dismissals", worker_dismissals)
          .field("torn", recovery.torn());
      object.raw_field("checkpoint", checkpoint.str());
    }
  }
  return object.str();
}

int cmd_queue(const Args& args) {
  // main() hands Args the tokens after the "queue" command word, so the
  // subcommand verb is the first positional.
  const std::vector<std::string>& positional = args.positional();
  const std::string verb = positional.empty() ? "" : positional[0];
  const std::string dir = args.get("dir", "");
  if (dir.empty()) {
    std::cerr << "queue: --dir is required\n";
    return 2;
  }
  QueueOptions options;
  options.directory = dir;
  options.max_depth =
      static_cast<std::size_t>(args.get_positive_u64("max-depth", 256));
  options.lease_ms = args.get_int("lease-ms", 30'000);

  if (verb == "submit") {
    // Options first: a refused submit must not create the queue directory.
    const std::string config = canonical_queue_config(args);
    CampaignQueue queue(options);
    try {
      const SubmitOutcome outcome = queue.submit(config);
      if (outcome.duplicate) {
        std::cout << "duplicate of campaign " << outcome.campaign
                  << " (identical config already queued)\n";
      } else {
        std::cout << "queued campaign " << outcome.campaign << ": " << config
                  << "\n";
      }
      return 0;
    } catch (const QueueRefusal& refused) {
      std::cerr << "refused: " << refused.what() << "\n";
      return 6;
    }
  }
  if (verb == "run") {
    CampaignQueue queue(options);
    CoordinatorOptions coordinator;
    coordinator.max_campaigns =
        static_cast<std::size_t>(args.get_u64("max-campaigns", 0));
    coordinator.wait_for_leases = !args.flag("no-wait");
    coordinator.cancel = &CancelToken::global();
    coordinator.on_note = [](const std::string& line) {
      std::cout << "queue: " << line << "\n";
    };
    warn_unused(args);
    const CoordinatorReport report =
        run_coordinator(queue, run_queue_campaign, coordinator);
    std::cout << "queue: " << report.leased << " lease(s): "
              << report.completed << " complete, " << report.degraded
              << " degraded, " << report.failed << " failed, "
              << report.released << " released, " << report.lost
              << " lost\n";
    if (report.cancelled) {
      std::cout << "queue: interrupted; re-run `divsim queue run --dir "
                << dir << "` to resume\n";
      return 130;
    }
    return report.failed == 0 && report.lost == 0 ? 0 : 3;
  }
  if (verb == "status") {
    const bool as_json = args.flag("json");
    const bool deep = args.flag("deep");
    warn_unused(args);
    // A read: a directory without a journal is an empty queue, and opening
    // a CampaignQueue there would create it.
    std::optional<CampaignQueue> queue;
    QueueSnapshot snap;
    if (std::filesystem::exists(std::filesystem::path(dir) /
                                "queue.journal")) {
      queue.emplace(options);
      snap = queue->snapshot();
    }
    if (as_json) {
      std::string campaigns = "[";
      for (std::size_t i = 0; i < snap.view.campaigns.size(); ++i) {
        if (i > 0) {
          campaigns += ",";
        }
        campaigns += queue_campaign_json(*queue, snap.view.campaigns[i], deep);
      }
      campaigns += "]";
      JsonObject status;
      status.field("directory", dir)
          .field("records", snap.records)
          .field("torn", snap.torn)
          .field("queued", static_cast<std::uint64_t>(
                               snap.view.count(CampaignPhase::kQueued)))
          .field("leased", static_cast<std::uint64_t>(
                               snap.view.count(CampaignPhase::kLeased)))
          .field("running", static_cast<std::uint64_t>(
                                snap.view.count(CampaignPhase::kRunning)))
          .field("complete", static_cast<std::uint64_t>(
                                 snap.view.count(CampaignPhase::kComplete)))
          .field("degraded", static_cast<std::uint64_t>(
                                 snap.view.count(CampaignPhase::kDegraded)))
          .field("failed", static_cast<std::uint64_t>(
                               snap.view.count(CampaignPhase::kFailed)))
          .field("cancelled", static_cast<std::uint64_t>(
                                  snap.view.count(CampaignPhase::kCancelled)))
          .raw_field("campaigns", campaigns);
      std::cout << status.str() << "\n";
    } else {
      std::cout << "queue " << dir << ": " << snap.records << " record(s)"
                << (snap.torn ? " (TORN TAIL: last append was interrupted)"
                              : "")
                << "\n";
      for (const CampaignEntry& entry : snap.view.campaigns) {
        std::cout << "  campaign " << entry.id << " [" << to_string(entry.phase)
                  << "]";
        if (entry.lease != 0) {
          std::cout << " lease " << entry.lease << " until "
                    << entry.lease_deadline_ms << "ms";
        }
        if (entry.requeues > 0) {
          std::cout << " (" << entry.requeues << " requeue(s))";
        }
        std::cout << ": " << entry.config << "\n";
        if (!entry.note.empty()) {
          std::cout << "    note: " << entry.note << "\n";
        }
      }
    }
    return snap.torn ? 4 : 0;
  }
  if (verb == "drain") {
    const std::string reason = args.get("reason", "operator drain");
    warn_unused(args);
    CampaignQueue queue(options);
    const std::size_t cancelled = queue.drain(reason);
    std::cout << "queue: cancelled " << cancelled << " queued campaign(s)\n";
    return 0;
  }
  std::cerr << "queue: unknown subcommand '" << verb
            << "' (expected submit|run|status|drain)\n";
  return 2;
}

int cmd_spectral(const Args& args) {
  Rng rng(args.get_u64("seed", 1));
  const Graph graph = make_graph_from_spec(args.get("graph", "complete:128"), rng);
  const bool full = args.flag("full");
  warn_unused(args);
  std::cout << "graph: " << graph.summary() << "\n";
  const double lambda = second_eigenvalue(graph);
  std::cout << "lambda = " << format_double(lambda, 6) << "\n";
  const auto k = static_cast<int>(0.5 / (lambda > 1e-12 ? lambda : 1e-12));
  std::cout << "largest k with lambda*k < 1/2: " << k << "\n";
  if (full) {
    const auto spectrum = walk_spectrum(graph);
    std::cout << "full walk spectrum (" << spectrum.size() << " eigenvalues):\n";
    for (const double value : spectrum) {
      std::cout << "  " << format_double(value, 6) << "\n";
    }
  }
  return 0;
}

int cmd_graph(const Args& args) {
  Rng rng(args.get_u64("seed", 1));
  const Graph graph = make_graph_from_spec(args.get("graph", "complete:16"), rng);
  const bool dot = args.flag("dot");
  const bool analyze = args.flag("analyze");
  warn_unused(args);
  if (dot) {
    std::cout << to_dot(graph);
    return 0;
  }
  std::cout << "graph: " << graph.summary() << "\n";
  if (analyze) {
    const ComponentInfo components = connected_components(graph);
    std::cout << "components: " << components.num_components << "\n";
    if (components.num_components == 1) {
      std::cout << "diameter: " << diameter(graph) << "\n";
      std::cout << "conductance (upper bound): "
                << format_double(estimate_graph_conductance(graph, rng), 4)
                << "\n";
    }
    const auto histogram = degree_histogram(graph);
    std::cout << "degree histogram:";
    for (std::size_t d = 0; d < histogram.size(); ++d) {
      if (histogram[d] > 0) {
        std::cout << "  " << d << ":" << histogram[d];
      }
    }
    std::cout << "\n";
    return 0;
  }
  std::cout << to_edge_list(graph);
  return 0;
}

int cmd_couple(const Args& args) {
  // Demonstrates the Lemma 13 coupling: runs DIV coupled with two-opinion
  // pull voting and reports the invariant plus the elimination event.
  Rng rng(args.get_u64("seed", 1));
  const Graph graph = make_graph_from_spec(args.get("graph", "complete:64"), rng);
  const Opinion k = k_flag(args);
  const SelectionScheme scheme = parse_scheme(args.get("scheme", "edge"));
  const bool track_max = args.flag("max");
  warn_unused(args);

  OpinionState state(graph,
                     uniform_random_opinions(graph.num_vertices(), 1, k, rng));
  if (state.is_consensus()) {
    std::cout << "initial state is already consensus; nothing to couple\n";
    return 0;
  }
  CoupledDivPull coupled(state, scheme,
                         track_max ? CoupledSide::kMax : CoupledSide::kMin);
  std::cout << "graph: " << graph.summary() << ", tracking extreme "
            << coupled.tracked_extreme() << " (B(0) size "
            << coupled.pull_side_size() << ")\n";
  std::uint64_t checks = 0;
  while (!coupled.pull_consensus()) {
    coupled.step(rng);
    if (coupled.steps() % 1000 == 0) {
      if (!coupled.invariant_holds()) {
        std::cout << "INVARIANT VIOLATED at step " << coupled.steps() << "\n";
        return 1;
      }
      ++checks;
    }
  }
  std::cout << "pull side reached consensus after " << coupled.steps()
            << " coupled steps (" << checks << " invariant checks passed)\n";
  if (coupled.pull_side_size() == 0) {
    std::cout << "B died; DIV's count of opinion " << coupled.tracked_extreme()
              << " is now " << state.count(coupled.tracked_extreme())
              << " (Lemma 13: must be 0)\n";
  } else {
    std::cout << "B won; the opposite extreme "
              << coupled.opposite_extreme() << " now has count "
              << state.count(coupled.opposite_extreme())
              << " (Lemma 13: must be 0)\n";
  }
  return 0;
}

int cmd_sweep(const Args& args) {
  // n-sweep of consensus statistics for one process on one graph family.
  //   divsim sweep --family regular --d 16 --k 5 --sizes 64,128,256
  //                [--process div] [--scheme edge] [--replicas 50] [--seed 1]
  const std::string family = args.get("family", "complete");
  const auto d = args.get_u64("d", 16);
  const double p = args.get_double("p", 0.1);
  const Opinion k = k_flag(args);
  const SelectionScheme scheme = parse_scheme(args.get("scheme", "edge"));
  const std::string process_name = args.get("process", "div");
  const auto replicas = static_cast<std::size_t>(args.get_u64("replicas", 50));
  const std::uint64_t seed = args.get_u64("seed", 1);
  const std::vector<VertexId> sizes =
      parse_list<VertexId>("--sizes", args.get("sizes", "64,128,256"));
  warn_unused(args);

  Table table({"n", "lambda", "E[steps]", "ci95", "steps/n^2", "P(top winner)",
               "winner"});
  for (const VertexId n : sizes) {
    std::ostringstream spec;
    if (family == "regular") {
      spec << "regular:" << n << ":" << d;
    } else if (family == "gnp") {
      spec << "gnp:" << n << ":" << p;
    } else {
      spec << family << ":" << n;
    }
    Rng graph_rng(seed);
    const Graph graph = make_graph_from_spec(spec.str(), graph_rng);
    const double lambda = second_eigenvalue(graph);

    IntCounter winners;
    Summary steps;
    const auto results = run_replicas<RunResult>(
        replicas,
        [&](std::size_t, Rng& rng) {
          OpinionState state(
              graph, uniform_random_opinions(graph.num_vertices(), 1, k, rng));
          const auto process = make_process_from_spec(process_name, scheme, graph);
          RunOptions options;
          options.max_steps = static_cast<std::uint64_t>(n) * n * 1000;
          return run(*process, state, rng, options);
        },
        {.master_seed = seed + n});
    for (const RunResult& result : results) {
      if (result.completed && result.winner) {
        steps.add(static_cast<double>(result.steps));
        winners.add(*result.winner);
      }
    }
    table.row()
        .cell(static_cast<std::uint64_t>(n))
        .cell(lambda, 4)
        .cell(steps.mean(), 1)
        .cell(steps.ci95_halfwidth(), 1)
        .cell(steps.mean() / (static_cast<double>(n) * n), 5)
        .cell(winners.total() > 0 ? winners.fraction(winners.mode()) : 0.0, 3)
        .cell(static_cast<std::int64_t>(winners.mode()));
  }
  table.print(std::cout);
  return 0;
}

int cmd_exact(const Args& args) {
  Rng rng(args.get_u64("seed", 1));
  const Graph graph = make_graph_from_spec(args.get("graph", "path:6"), rng);
  const int k = narrow_flag<int>("--k", args.get_int("k", 3),
                                 std::numeric_limits<int>::min(),
                                 std::numeric_limits<int>::max());
  const SelectionScheme scheme = parse_scheme(args.get("scheme", "edge"));
  const std::string opinions_text = args.get("opinions", "");
  warn_unused(args);

  const DivChain chain(graph, k, scheme);
  std::vector<Opinion> start;
  if (!opinions_text.empty()) {
    start = parse_list<Opinion>("--opinions", opinions_text);
  } else {
    start = uniform_random_opinions(graph.num_vertices(), 0,
                                    static_cast<Opinion>(k - 1), rng);
  }
  const std::uint64_t state = chain.encode(start);
  std::cout << "graph: " << graph.summary() << ", " << chain.num_states()
            << " states, scheme " << to_string(scheme) << "\n"
            << "start:";
  for (const Opinion o : start) {
    std::cout << " " << o;
  }
  std::cout << "\nexact win distribution:\n";
  const auto distribution = chain.absorption_distribution(state);
  for (int j = 0; j < k; ++j) {
    std::cout << "  P(" << j << ") = "
              << format_double(distribution[static_cast<std::size_t>(j)], 6)
              << "\n";
  }
  std::cout << "E[winner] = " << format_double(chain.expected_winner(state), 6)
            << "\nE[steps to consensus] = "
            << format_double(chain.expected_consensus_time(state), 2) << "\n";
  return 0;
}

int cmd_trace(const Args& args) {
  Rng rng(args.get_u64("seed", 1));
  const Graph graph = make_graph_from_spec(args.get("graph", "complete:128"), rng);
  const Opinion k = k_flag(args);
  const SelectionScheme scheme = parse_scheme(args.get("scheme", "edge"));
  const std::string process_name = args.get("process", "div");
  const std::uint64_t stride =
      args.get_u64("stride", std::max<std::uint64_t>(1, graph.num_vertices()));
  const std::uint64_t max_steps = args.get_u64(
      "max-steps", static_cast<std::uint64_t>(graph.num_vertices()) *
                       graph.num_vertices() * 1000);
  warn_unused(args);

  OpinionState state(graph,
                     uniform_random_opinions(graph.num_vertices(), 1, k, rng));
  const auto process = make_process_from_spec(process_name, scheme, graph);
  CountTrace trace(state, stride);
  trace.maybe_record(0, state);
  std::uint64_t step = 0;
  while (!state.is_consensus() && step < max_steps) {
    process->step(state, rng);
    ++step;
    trace.maybe_record(step, state);
  }
  trace.record(step, state);
  trace.write_csv(std::cout);
  return 0;
}

int cmd_meanfield(const Args& args) {
  const auto k = static_cast<std::size_t>(args.get_u64("k", 5));
  const double tau = args.get_double("tau", 10.0);
  std::vector<double> fractions(k, 1.0 / static_cast<double>(k));
  const std::string custom = args.get("fractions", "");
  if (!custom.empty()) {
    fractions = parse_list<double>("--fractions", custom);
  }
  warn_unused(args);
  MeanFieldDiv flow(std::move(fractions));
  std::cout << "mean opinion (invariant): " << format_double(flow.mean_opinion(), 4)
            << "\n";
  const int checkpoints = 10;
  for (int i = 0; i <= checkpoints; ++i) {
    if (i > 0) {
      flow.integrate(tau / checkpoints);
    }
    std::cout << "tau=" << format_double(tau * i / checkpoints, 2) << "  x = [";
    for (std::size_t j = 0; j < flow.num_opinions(); ++j) {
      std::cout << (j > 0 ? ", " : "") << format_double(flow.fraction(j), 4);
    }
    std::cout << "]  extreme mass " << format_double(flow.extreme_mass(), 5)
              << "\n";
  }
  return 0;
}

// Async-signal-safe by construction: a relaxed store to a lock-free atomic.
void handle_termination_signal(int) { CancelToken::global().request(); }

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  // Cooperative cancellation: Ctrl-C / SIGTERM drain in-flight work at a
  // step boundary, flush the campaign journal, and exit 130 with a resume
  // hint (SIGKILL still works; the journal's torn-tail recovery covers it).
  std::signal(SIGINT, handle_termination_signal);
  std::signal(SIGTERM, handle_termination_signal);
  const std::string command = argv[1];
  const Args args(argc - 1, argv + 1);
  try {
    if (command == "run") {
      return cmd_run(args);
    }
    if (command == "journal") {
      return cmd_journal(args);
    }
    if (command == "queue") {
      return cmd_queue(args);
    }
    if (command == "spectral") {
      return cmd_spectral(args);
    }
    if (command == "graph") {
      return cmd_graph(args);
    }
    if (command == "meanfield") {
      return cmd_meanfield(args);
    }
    if (command == "trace") {
      return cmd_trace(args);
    }
    if (command == "exact") {
      return cmd_exact(args);
    }
    if (command == "sweep") {
      return cmd_sweep(args);
    }
    if (command == "couple") {
      return cmd_couple(args);
    }
    if (command == "--help" || command == "help") {
      usage();
      return 0;
    }
    std::cerr << "unknown command '" << command << "'\n";
    return usage();
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
