// The four divbench workloads and their end-to-end measurement.
//
// A workload is a fixed `divsim` invocation pattern; one *unit* of it is a
// complete client interaction -- one `divsim run`, or a burst of `divsim
// queue submit`s followed by `divsim queue run` -- timed from the first
// fork to the last wait4, in a fresh scratch directory that is
// created and deleted outside the timed region.  Checks on a unit's outputs
// (exit codes, the CLI summary, the journal and queue state) also run
// outside it.  Why each workload exists is recorded in BENCHMARK.json and
// benchmark/README.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "process.hpp"

namespace divbench {

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;  // why it failed (empty on success)
};

// Records a check; `detail` is kept only when it failed.
void add_check(std::vector<Check>& checks, const std::string& name, bool ok,
               const std::string& detail);

// Which divsim execution path a workload drives.
enum class Path {
  kPlain,      // `run`: montecarlo driver, no journal
  kJournaled,  // `run --supervise --checkpoint-dir --metrics-out`
  kQueue,      // `queue submit` x campaigns, then `queue run`
};

struct Workload {
  const char* name;
  Path path;
  std::string graph;      // divsim graph spec
  bool vertex_scheme;     // --scheme vertex (else edge)
  int k;                  // opinions 1..k
  bool two_adjacent;      // --stop two-adjacent (else consensus)
  bool jump;              // --engine jump (else step)
  std::size_t replicas;   // per campaign
  unsigned threads;       // --threads (and --workers on the queue path)
  std::size_t campaigns;  // campaigns per unit (1 except on the queue path)
  // The traced run checks Theorem 2: every winner is floor(c) or ceil(c)
  // of its replica's initial average c.  Only where the graph is a large
  // enough expander for the law to be sharp (not on K_32).
  bool theorem2;
};

// Full-size workloads, or the tiny `--quick` sizes the self-test uses.
const std::vector<Workload>& workloads(bool quick);
// Throws std::invalid_argument naming the known workloads.
const Workload& find_workload(const std::string& name, bool quick);

// Seeds: unit r of a run with seed S uses substream_seed(S, r); campaign i
// of a unit is seeded unit_seed + i.  divsim sees only these numbers.
std::uint64_t unit_seed(std::uint64_t seed, std::size_t unit);
std::uint64_t campaign_seed(std::uint64_t unit_seed, std::size_t campaign);

// The `divsim run` options of one campaign (no binary, no queue flags).
std::vector<std::string> run_options(const Workload& w, std::uint64_t seed,
                                     std::size_t replicas);
std::string command_line(const Workload& w);

// The CLI lines the traced run must reproduce, one entry per campaign.
struct CampaignLines {
  std::string completed;  // "completed R/R replicas; E[steps] = ..."
  std::string winners;    // "winners:  4 x10  5 x6", empty when absent
  std::string jump;       // "jump engine: ...", empty for the step engine
  bool operator==(const CampaignLines&) const = default;
};

struct UnitResult {
  double wall_s = 0.0;
  double max_rss_mib = 0.0;
  double campaign_wall_s = 0.0;  // the part of wall_s that ran campaigns
  std::size_t campaigns = 0;
  std::size_t replicas_completed = 0;
  double steps = 0.0;  // scheduled steps summed over completed replicas
  std::vector<CampaignLines> lines;
  // Journaled path: "<status> <steps>" per replica id, from the journal.
  std::vector<std::string> journal_replicas;
  std::vector<Check> checks;
  std::size_t attempted = 0;  // replicas run, plus submits on the queue path
  std::size_t failed = 0;     // failed, capped or refused operations
};

// Runs and checks one unit in `dir` (which must exist and be empty).
UnitResult run_unit(const Workload& w, std::uint64_t unit_seed,
                    const std::string& dir);

// The workload's set-up probe: its `divsim run` configuration with
// --replicas 0 (process start, argument parsing, graph build), pinned to
// `cpu` unless it is -1.
ChildResult setup_probe(const Workload& w, std::uint64_t seed,
                        const std::string& dir, int cpu);

// Spawns `divsim --help` (the CLI layer's fixed cost).
ChildResult cli_probe(const std::string& dir);

// Renders the per-campaign summary lines exactly as `divsim run` prints
// them, from per-replica results in replica order.
struct ReplicaSummary {
  bool completed = false;
  std::uint64_t steps = 0;
  std::uint64_t effective_steps = 0;
  bool has_winner = false;
  std::int64_t winner = 0;
};
CampaignLines render_lines(const Workload& w,
                           const std::vector<ReplicaSummary>& replicas);

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The end-to-end metrics, in report order; BENCHMARK.json lists the same
// names with their bounds.
const std::vector<MetricSpec>& end_to_end_metrics();

// One timed run of a workload: an untimed warm-up set-up probe, timed
// set-up probes, an untimed warm-up unit, then timed units until `seconds`
// of timed work (when > 0) or exactly `repetitions` units.
struct Budget {
  std::size_t repetitions = 5;
  double seconds = 0.0;
  bool more(std::size_t done, double elapsed_s) const {
    return done == 0 || (seconds > 0.0 ? elapsed_s < seconds
                                       : done < repetitions);
  }
};

struct TimedResult {
  // One sample vector per end_to_end_metrics() entry, same order.
  std::vector<std::vector<double>> samples;
  std::vector<Check> checks;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

TimedResult run_timed(const Workload& w, std::uint64_t seed,
                      const Budget& budget, const std::string& scratch);

}  // namespace divbench
