// `divbench trace`: the per-layer ledger of one workload.
//
// Each repetition spawns the workload's CLI unit once, untraced (the
// reference result), then re-executes the same unit in-process through the
// public library calls `divsim run` makes, three times on identical seeds:
//
//   plain, untraced   run_replicas_isolated   the tracing-overhead base
//   plain, traced     run_replicas_isolated   graph, core, engine, montecarlo
//   supervised        run_supervised_set      supervisor (thread mode)
//
// Spans wrap every call into a layer (tracer.hpp).  Costs that live inside
// library calls without a public seam -- journal appends and fsyncs, JSONL
// emits, wire frames, the queue's replay-under-lock, fleet forks -- are
// timed once per run by probes that feed the workload's own record stream
// (the traced pass's payloads and RunMetrics) through the same public APIs
// at the workload's cadence: JournalWriter/recover_journal, JsonlWriter,
// wire_write_frame/WireReader, CalibrationLog, CampaignQueue, and a
// process-isolated run_supervised_set with a null task.  Spans inside fleet
// children are not collected.
//
// The traced results must reproduce the CLI's exactly (the repo's
// bit-identity contract): every campaign's summary lines, the supervised
// pass's payload bytes, and on the journaled path each replica's journaled
// status and steps.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace divbench {

// The per-layer metrics, in report order; BENCHMARK.json's per_layer lists
// the same names.
const std::vector<MetricSpec>& layer_metrics();

struct TracedResult {
  std::vector<double> values;  // one per layer_metrics() entry
  std::vector<Check> checks;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t repetitions = 0;
  std::map<std::string, LayerTotals> layers;  // over every repetition
  Tail engine_tail;  // which percentile engine.replica_ms.tail reports
};

// Runs repetitions within `budget`, then the probes.  Writes the first
// repetition's and the probes' spans to `trace_json` as Chrome trace
// events, with `context` (a rendered JSON object) as their metadata.
TracedResult run_traced(const Workload& w, std::uint64_t seed,
                        const Budget& budget, const std::string& scratch,
                        const std::string& trace_json,
                        const std::string& context, bool quick);

}  // namespace divbench
