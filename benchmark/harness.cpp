#include "harness.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "cli/graph_spec.hpp"
#include "cli/process_spec.hpp"
#include "core/theory.hpp"
#include "engine/adaptive/calibration.hpp"
#include "engine/campaign.hpp"
#include "engine/engine.hpp"
#include "engine/initial_config.hpp"
#include "engine/jump_engine.hpp"
#include "engine/montecarlo.hpp"
#include "engine/supervisor.hpp"
#include "io/journal.hpp"
#include "io/wire.hpp"
#include "obs/jsonl.hpp"
#include "queue/queue_service.hpp"
#include "stats.hpp"

namespace divbench {

namespace {

using divlib::CancelToken;
using divlib::Graph;
using divlib::Rng;
using divlib::RunOptions;
using divlib::RunStatus;
using Clock = std::chrono::steady_clock;

// Probe sizes.  The queue probe submits 300 campaigns so its p95 has 15
// samples beyond it; quick mode only proves the probes run.
constexpr int kCliProbes = 10;
constexpr int kFleetStartups = 5;
constexpr std::size_t kCalibrationAppends = 1000;
std::size_t fleet_attempts(bool quick) { return quick ? 16 : 100; }
std::size_t queue_campaigns(bool quick) { return quick ? 30 : 300; }

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double micros_since(Clock::time_point start) { return since(start) * 1e6; }

struct ReplicaOutcome {
  ReplicaSummary summary;
  RunStatus status = RunStatus::kCapped;
  std::string payload;       // divsim's campaign codec line
  std::string metrics_json;  // RunMetrics, as divsim's JSONL "run" records
                             // carry it
  double engine_s = 0.0;     // RunMetrics wall clock
  std::uint64_t tracker_rebuilds = 0;
  double initial_average = 0.0;
};

struct CampaignOutcome {
  std::uint64_t seed = 0;
  std::vector<ReplicaOutcome> replicas;  // plain passes
  std::vector<std::string> payloads;     // supervised pass, from on_success
};

struct PassResult {
  std::vector<CampaignOutcome> campaigns;
  double wall_s = 0.0;
  std::uint64_t retries = 0;
  std::size_t missing = 0;  // replicas that produced no result
  double csr_mib = 0.0;
};

SpanKey campaign_key(std::size_t campaign) {
  return {static_cast<std::int64_t>(campaign), -1, -1};
}

SpanKey replica_key(std::size_t campaign, std::size_t replica,
                    unsigned attempt) {
  return {static_cast<std::int64_t>(campaign),
          static_cast<std::int64_t>(replica), attempt};
}

// divsim's campaign payload codec (encode_replica_run in tools/divsim.cpp)
// for a fault-free plain-DIV replica: the fault counters are all zero.
std::string encode_payload(const divlib::RunResult& result,
                           std::uint64_t effective_steps) {
  std::ostringstream out;
  out << divlib::to_string(result.status) << " " << result.steps << " "
      << effective_steps << " ";
  if (result.winner) {
    out << *result.winner;
  } else {
    out << "-";
  }
  out << " " << result.final_sum << " " << result.num_active << " "
      << result.min_active << " " << result.max_active << " 0 0 0 0";
  if (!result.fault.empty()) {
    out << " " << result.fault;
  }
  return out.str();
}

Graph build_graph(const Workload& w, std::uint64_t seed, Tracer& tracer,
                  std::size_t campaign, double& csr_mib) {
  Span span(tracer, "graph.build", campaign_key(campaign));
  Rng graph_rng(seed);
  Graph graph = divlib::make_graph_from_spec(w.graph, graph_rng);
  // Row offsets (n + 1 u32) plus the adjacency array (2m vertex ids).
  const std::uint64_t csr_bytes =
      (graph.num_vertices() + 1ULL) * sizeof(std::uint32_t) +
      graph.total_degree() * sizeof(divlib::VertexId);
  csr_mib = static_cast<double>(csr_bytes) / (1024.0 * 1024.0);
  return graph;
}

RunOptions base_options(const Workload& w, const Graph& graph) {
  RunOptions options;
  options.stop = w.two_adjacent ? divlib::StopKind::kTwoAdjacent
                                : divlib::StopKind::kConsensus;
  const auto n = static_cast<std::uint64_t>(graph.num_vertices());
  options.max_steps = n * n * 1000;  // divsim run's default --max-steps
  return options;
}

// One replica exactly as divsim run's run_one executes plain DIV, so the
// random stream is consumed identically.
ReplicaOutcome run_replica(const Workload& w, const Graph& graph,
                           const RunOptions& base, Rng& rng,
                           const CancelToken& cancel, Tracer& tracer,
                           SpanKey key) {
  std::optional<divlib::OpinionState> state;
  std::unique_ptr<divlib::Process> process;
  {
    Span span(tracer, "core.init", key);
    state.emplace(graph, divlib::uniform_random_opinions(graph.num_vertices(),
                                                         1, w.k, rng));
    process = divlib::make_process_from_spec(
        "div", divlib::parse_scheme(w.vertex_scheme ? "vertex" : "edge"),
        graph);
  }
  ReplicaOutcome out;
  out.initial_average =
      divlib::theory::relevant_average(*state, w.vertex_scheme);
  RunOptions options = base;
  options.cancel = &cancel;
  divlib::RunMetrics metrics;
  options.metrics = &metrics;
  divlib::RunResult result;
  {
    Span span(tracer, "engine.run", key);
    if (w.jump) {
      divlib::JumpRunResult jump =
          divlib::run_jump_guarded(*process, *state, rng, options);
      out.summary.effective_steps = jump.effective_steps;
      result = std::move(jump);
    } else {
      result = divlib::run_guarded(*process, *state, rng, options);
    }
  }
  out.status = result.status;
  out.summary.completed = result.status == RunStatus::kCompleted;
  out.summary.steps = result.steps;
  out.summary.has_winner = result.winner.has_value();
  out.summary.winner = result.winner.value_or(0);
  out.payload = encode_payload(result, out.summary.effective_steps);
  out.metrics_json = metrics.to_json();
  out.engine_s = metrics.wall_seconds_total;
  out.tracker_rebuilds = metrics.tracker_rebuilds;
  return out;
}

// What `divsim run --supervise` configures when no supervision flag
// overrides a default (the breaker and estimator are always armed).
divlib::SupervisorOptions supervisor_options(
    const Workload& w, std::uint64_t seed,
    divlib::CompletionEstimator& estimator) {
  divlib::SupervisorOptions sup;
  sup.master_seed = seed;
  sup.num_threads = w.threads;
  sup.max_attempts = 1;
  sup.estimator = &estimator;
  sup.breaker_enabled = true;
  return sup;
}

// Plain pass: run_replicas_isolated, divsim run's path without supervision.
PassResult plain_pass(const Workload& w, std::uint64_t unit_seed,
                      Tracer& tracer) {
  PassResult pass;
  const auto start = Clock::now();
  {
    Span root(tracer, "pass.plain");
    const CancelToken never;
    for (std::size_t c = 0; c < w.campaigns; ++c) {
      CampaignOutcome campaign;
      campaign.seed = campaign_seed(unit_seed, c);
      const Graph graph =
          build_graph(w, campaign.seed, tracer, c, pass.csr_mib);
      const RunOptions base = base_options(w, graph);
      divlib::MonteCarloOptions mc;
      mc.master_seed = campaign.seed;
      mc.num_threads = w.threads;
      Span run(tracer, "montecarlo.run", campaign_key(c));
      const std::uint64_t run_id = run.id();
      auto batch = divlib::run_replicas_isolated<ReplicaOutcome>(
          w.replicas,
          [&](std::size_t replica, Rng& rng) {
            const SpanKey key = replica_key(c, replica, 0);
            Span task(tracer, "montecarlo.task", key, run_id);
            return run_replica(w, graph, base, rng, never, tracer, key);
          },
          mc);
      for (auto& slot : batch.results) {
        pass.missing += slot ? 0 : 1;
        campaign.replicas.push_back(slot ? std::move(*slot) : ReplicaOutcome{});
      }
      pass.campaigns.push_back(std::move(campaign));
    }
  }
  pass.wall_s = since(start);
  return pass;
}

// Supervised pass: run_supervised_set in thread mode.  The attempt in each
// span key counts the replica's task invocations (no speculation runs, so
// that is the attempt index).
PassResult supervised_pass(const Workload& w, std::uint64_t unit_seed,
                           Tracer& tracer) {
  PassResult pass;
  const auto start = Clock::now();
  {
    Span root(tracer, "pass.supervised");
    for (std::size_t c = 0; c < w.campaigns; ++c) {
      CampaignOutcome campaign;
      campaign.seed = campaign_seed(unit_seed, c);
      campaign.payloads.assign(w.replicas, "");
      const Graph graph =
          build_graph(w, campaign.seed, tracer, c, pass.csr_mib);
      const RunOptions base = base_options(w, graph);
      std::vector<std::size_t> ids(w.replicas);
      std::iota(ids.begin(), ids.end(), 0);
      std::vector<std::atomic<unsigned>> attempts(w.replicas);
      divlib::CompletionEstimator estimator;
      const divlib::SupervisorOptions sup =
          supervisor_options(w, campaign.seed, estimator);
      Span run(tracer, "supervisor.run", campaign_key(c));
      const std::uint64_t run_id = run.id();
      const divlib::SupervisorReport report = divlib::run_supervised_set(
          ids,
          [&](std::size_t replica, Rng& rng,
              const CancelToken& cancel) -> std::optional<std::string> {
            const SpanKey key =
                replica_key(c, replica, attempts[replica].fetch_add(1));
            Span task(tracer, "supervisor.task", key, run_id);
            ReplicaOutcome out =
                run_replica(w, graph, base, rng, cancel, tracer, key);
            if (out.status == RunStatus::kCancelled ||
                out.status == RunStatus::kDeadline) {
              return std::nullopt;
            }
            return std::move(out.payload);
          },
          [&](std::size_t replica, std::string&& payload) {
            campaign.payloads[replica] = std::move(payload);
          },
          sup);
      pass.retries += report.retries;
      pass.missing += report.replicas - report.succeeded;
      pass.campaigns.push_back(std::move(campaign));
    }
  }
  pass.wall_s = since(start);
  return pass;
}

// The bit-identity gate: the traced passes must reproduce the CLI unit.
void gate(const Workload& w, const UnitResult& cli, const PassResult& untraced,
          const PassResult& plain, const PassResult& supervised,
          std::vector<Check>& checks) {
  std::string detail;
  for (std::size_t c = 0; c < plain.campaigns.size() && detail.empty(); ++c) {
    std::vector<ReplicaSummary> summaries;
    for (const ReplicaOutcome& replica : plain.campaigns[c].replicas) {
      summaries.push_back(replica.summary);
    }
    const CampaignLines traced = render_lines(w, summaries);
    if (c >= cli.lines.size()) {
      detail = "CLI printed no summary for campaign " + std::to_string(c);
    } else if (!(traced == cli.lines[c])) {
      detail = "campaign " + std::to_string(c) + ": traced '" +
               traced.completed + "' / '" + traced.winners + "' / '" +
               traced.jump + "', CLI '" + cli.lines[c].completed + "' / '" +
               cli.lines[c].winners + "' / '" + cli.lines[c].jump + "'";
    }
  }
  add_check(checks, "traced run reproduces the CLI summary", detail.empty(),
            detail);

  std::size_t differing = 0;
  for (std::size_t c = 0; c < plain.campaigns.size(); ++c) {
    for (std::size_t r = 0; r < plain.campaigns[c].replicas.size(); ++r) {
      const std::string& payload = plain.campaigns[c].replicas[r].payload;
      differing += payload == supervised.campaigns[c].payloads[r] &&
                           payload == untraced.campaigns[c].replicas[r].payload
                       ? 0
                       : 1;
    }
  }
  add_check(checks, "untraced, traced and supervised passes bit-identical",
            differing == 0 && plain.missing == 0 && supervised.missing == 0,
            std::to_string(differing) + " replica payload(s) differ, " +
                std::to_string(plain.missing + supervised.missing) +
                " missing");

  if (w.theorem2) {
    std::size_t outside = 0;
    for (const CampaignOutcome& campaign : plain.campaigns) {
      for (const ReplicaOutcome& replica : campaign.replicas) {
        const double c = replica.initial_average;
        const auto winner = static_cast<double>(replica.summary.winner);
        outside += replica.summary.has_winner &&
                           (winner == std::floor(c) || winner == std::ceil(c))
                       ? 0
                       : 1;
      }
    }
    add_check(checks, "Theorem 2: winner in {floor(c), ceil(c)}", outside == 0,
              std::to_string(outside) + " replica(s) outside");
  }

  if (w.path == Path::kJournaled) {
    std::size_t mismatched = 0;
    const std::vector<ReplicaOutcome>& replicas = plain.campaigns[0].replicas;
    for (std::size_t r = 0; r < replicas.size(); ++r) {
      const std::string expected =
          std::string(divlib::to_string(replicas[r].status)) + " " +
          std::to_string(replicas[r].summary.steps);
      mismatched += r < cli.journal_replicas.size() &&
                            cli.journal_replicas[r] == expected
                        ? 0
                        : 1;
    }
    add_check(checks, "journaled status and steps match the traced run",
              mismatched == 0,
              std::to_string(mismatched) + " replica(s) differ");
  }
}

// ---------------------------------------------------------------------------
// Span ledger: sums over every repetition's traced spans.

struct DriverLedger {
  double wall_s = 0.0;  // sum of *.run spans
  double busy_s = 0.0;  // sum of *.task spans
  std::vector<double> gaps_us;  // same-thread gaps between consecutive tasks
};

struct Ledger {
  std::size_t repetitions = 0;
  std::vector<double> graph_build_s;
  double core_init_s = 0.0;
  std::vector<double> engine_ms;
  double engine_busy_s = 0.0;
  double scheduled_steps = 0.0;
  double effective_steps = 0.0;
  double tracker_rebuilds = 0.0;
  DriverLedger montecarlo;
  DriverLedger supervisor;
  std::uint64_t retries = 0;
  double traced_wall_s = 0.0;
  double untraced_wall_s = 0.0;
  double root_s = 0.0;     // pass.plain spans
  double covered_s = 0.0;  // ... covered by named child spans
  double csr_mib = 0.0;
  std::map<std::string, LayerTotals> layers;

  void add(const std::vector<SpanRecord>& spans);
  void add(const PassResult& untraced, const PassResult& plain,
           const PassResult& supervised);
};

void Ledger::add(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& span : spans) {
    by_id[span.id] = &span;
  }
  const auto under_plain = [&](const SpanRecord& span) {
    const SpanRecord* at = &span;
    for (auto it = by_id.find(at->parent); it != by_id.end();
         it = by_id.find(at->parent)) {
      at = it->second;
    }
    return std::string(at->name) == "pass.plain";
  };
  // (run span id, thread) -> that thread's task intervals in that run
  std::map<std::pair<std::uint64_t, std::uint32_t>,
           std::vector<std::pair<std::int64_t, std::int64_t>>>
      tasks;
  for (const SpanRecord& span : spans) {
    const std::string name = span.name;
    if (name == "graph.build") {
      graph_build_s.push_back(span.seconds());
    } else if (name == "pass.plain") {
      root_s += span.seconds();
      covered_s += child_coverage_s(spans, span);
    } else if (name == "montecarlo.run") {
      montecarlo.wall_s += span.seconds();
    } else if (name == "supervisor.run") {
      supervisor.wall_s += span.seconds();
    } else if (name == "montecarlo.task" || name == "supervisor.task") {
      (name == "montecarlo.task" ? montecarlo : supervisor).busy_s +=
          span.seconds();
      tasks[{span.parent, span.thread}].emplace_back(span.start_ns,
                                                     span.end_ns);
    } else if (name == "core.init" && under_plain(span)) {
      core_init_s += span.seconds();
    } else if (name == "engine.run" && under_plain(span)) {
      engine_ms.push_back(span.seconds() * 1e3);
      engine_busy_s += span.seconds();
    }
  }
  for (auto& [where, intervals] : tasks) {
    const auto run = by_id.find(where.first);
    if (run == by_id.end()) {
      continue;
    }
    DriverLedger& driver = std::string(run->second->name) == "montecarlo.run"
                               ? montecarlo
                               : supervisor;
    std::sort(intervals.begin(), intervals.end());
    for (std::size_t i = 1; i < intervals.size(); ++i) {
      driver.gaps_us.push_back(
          static_cast<double>(intervals[i].first - intervals[i - 1].second) /
          1000.0);
    }
  }
  for (const auto& [name, totals] : layer_totals(spans)) {
    LayerTotals& sum = layers[name];
    sum.count += totals.count;
    sum.total_s += totals.total_s;
    sum.self_s += totals.self_s;
  }
}

void Ledger::add(const PassResult& untraced, const PassResult& plain,
                 const PassResult& supervised) {
  ++repetitions;
  untraced_wall_s += untraced.wall_s;
  traced_wall_s += plain.wall_s;
  retries += supervised.retries;
  csr_mib = plain.csr_mib;
  for (const CampaignOutcome& campaign : plain.campaigns) {
    for (const ReplicaOutcome& replica : campaign.replicas) {
      scheduled_steps += static_cast<double>(replica.summary.steps);
      effective_steps += static_cast<double>(replica.summary.effective_steps);
      tracker_rebuilds += static_cast<double>(replica.tracker_rebuilds);
    }
  }
}

// ---------------------------------------------------------------------------
// Probes: layer costs inside library calls, fed the workload's own records.

using Metrics = std::map<std::string, double>;

void probe_cli(const std::string& dir, Tracer& tracer, Metrics& m) {
  Span span(tracer, "probe.cli");
  std::vector<double> ms;
  for (int i = 0; i < kCliProbes; ++i) {
    const ChildResult child = cli_probe(dir);
    if (child.exit_code != 0) {
      throw std::runtime_error("divsim --help exited " +
                               std::to_string(child.exit_code));
    }
    ms.push_back(child.wall_s * 1e3);
  }
  m["cli.exec_ms"] = describe(ms).median;
}

// run_supervised_campaign minus run_supervised_set over the same replicas,
// both fed the traced payloads by a replay task, so the difference is the
// campaign layer alone: directory and meta set-up, a journal append and
// fsync per replica, and the final flush.
void probe_campaign(const Workload& w, const PassResult& plain,
                    const std::string& dir, Tracer& tracer, Metrics& m) {
  Span span(tracer, "probe.campaign");
  double tax_s = 0.0;
  for (std::size_t c = 0; c < plain.campaigns.size(); ++c) {
    const CampaignOutcome& campaign = plain.campaigns[c];
    const divlib::SupervisedTask replay =
        [&](std::size_t replica, Rng&,
            const CancelToken&) -> std::optional<std::string> {
      return campaign.replicas[replica].payload;
    };
    std::vector<std::size_t> ids(campaign.replicas.size());
    std::iota(ids.begin(), ids.end(), 0);
    divlib::CompletionEstimator set_estimator;
    const auto set_start = Clock::now();
    divlib::run_supervised_set(
        ids, replay, [](std::size_t, std::string&&) {},
        supervisor_options(w, campaign.seed, set_estimator));
    const double set_s = since(set_start);

    divlib::CampaignOptions options;
    options.directory = dir + "/campaign" + std::to_string(c);
    options.flush_every = 1;
    options.meta = "divbench campaign probe\nseed=" +
                   std::to_string(campaign.seed) + "\n";
    options.mc.master_seed = campaign.seed;
    options.mc.num_threads = w.threads;
    divlib::CompletionEstimator campaign_estimator;
    const auto campaign_start = Clock::now();
    const divlib::SupervisedCampaignResult result =
        divlib::run_supervised_campaign(
            ids.size(), replay, options,
            supervisor_options(w, campaign.seed, campaign_estimator));
    tax_s += since(campaign_start) - set_s;
    if (result.status != divlib::CampaignStatus::kComplete) {
      throw std::runtime_error("campaign probe did not complete");
    }
  }
  m["campaign.tax_s"] = tax_s;
}

// The workload's journal record stream, appended at its flush cadence (one
// record per fsync: --checkpoint-every 1, also the queue's default).
void probe_journal(const PassResult& plain, const std::string& dir,
                   Tracer& tracer, Metrics& m) {
  Span span(tracer, "probe.journal");
  std::vector<double> append_us;
  std::vector<double> flush_us;
  double recover_ms = 0.0;
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  for (std::size_t c = 0; c < plain.campaigns.size(); ++c) {
    const std::string path = dir + "/results" + std::to_string(c) + ".journal";
    {
      divlib::JournalWriter journal(path);
      const auto& replicas = plain.campaigns[c].replicas;
      for (std::size_t r = 0; r < replicas.size(); ++r) {
        const std::string record =
            divlib::encode_campaign_record(r, replicas[r].payload);
        auto start = Clock::now();
        journal.append(record);
        append_us.push_back(micros_since(start));
        start = Clock::now();
        journal.flush();
        flush_us.push_back(micros_since(start));
      }
      journal.close();
      records += journal.records_written();
    }
    bytes += file_size(path);
    const auto start = Clock::now();
    const divlib::JournalRecovery recovery = divlib::recover_journal(path);
    recover_ms += since(start) * 1e3;
    if (recovery.torn() ||
        recovery.records.size() != plain.campaigns[c].replicas.size()) {
      throw std::runtime_error("journal probe recovered a different journal");
    }
  }
  m["io.journal.records"] = static_cast<double>(records);
  m["io.journal.bytes"] = static_cast<double>(bytes);
  m["io.journal.append_us.p50"] = percentile(append_us, 50);
  m["io.journal.append_us.p99"] = percentile(append_us, 99);
  m["io.journal.flush_us.p50"] = percentile(flush_us, 50);
  m["io.journal.flush_us.p99"] = percentile(flush_us, 99);
  m["io.journal.recover_ms"] = recover_ms;
}

// Each payload as the fleet's result frame, parent <- worker -> parent,
// over two pipes read through WireReader (the parent's pump-style reader).
void probe_wire(const PassResult& plain, Tracer& tracer, Metrics& m) {
  Span span(tracer, "probe.wire");
  int forward[2];
  int back[2];
  if (pipe(forward) != 0 || pipe(back) != 0) {
    throw std::runtime_error("wire probe: pipe failed");
  }
  fcntl(forward[0], F_SETFL, O_NONBLOCK);
  fcntl(back[0], F_SETFL, O_NONBLOCK);
  divlib::WireReader forward_reader(forward[0]);
  divlib::WireReader back_reader(back[0]);
  std::vector<double> roundtrip_us;
  bool intact = true;
  for (const CampaignOutcome& campaign : plain.campaigns) {
    for (std::size_t r = 0; r < campaign.replicas.size(); ++r) {
      const std::string frame =
          "ok " + std::to_string(r) + " 0 " + campaign.replicas[r].payload;
      std::string there;
      std::string again;
      const auto start = Clock::now();
      intact = intact && divlib::wire_write_frame(forward[1], frame);
      forward_reader.pump();
      intact = intact && forward_reader.next(there);
      intact = intact && divlib::wire_write_frame(back[1], there);
      back_reader.pump();
      intact = intact && back_reader.next(again);
      roundtrip_us.push_back(micros_since(start));
      intact = intact && again == frame;
    }
  }
  for (const int fd : {forward[0], forward[1], back[0], back[1]}) {
    close(fd);
  }
  if (!intact) {
    throw std::runtime_error("wire probe: a frame did not round-trip");
  }
  m["io.wire.roundtrip_us.p50"] = percentile(roundtrip_us, 50);
  m["io.wire.roundtrip_us.p99"] = percentile(roundtrip_us, 99);
  m["io.wire.frames"] = static_cast<double>(2 * roundtrip_us.size());
}

// The supervisor's estimator observer appends every successful attempt's
// wall time to calibration.journal, fsync'd; here the traced engine times.
void probe_calibration(const PassResult& plain, const std::string& dir,
                       Tracer& tracer, Metrics& m) {
  Span span(tracer, "probe.calibration");
  divlib::CalibrationLog log(dir, 0xd1bU);
  std::vector<double> append_us;
  for (const CampaignOutcome& campaign : plain.campaigns) {
    for (const ReplicaOutcome& replica : campaign.replicas) {
      if (append_us.size() == kCalibrationAppends) {
        break;
      }
      const auto start = Clock::now();
      log.append(replica.engine_s);
      append_us.push_back(micros_since(start));
    }
  }
  m["adaptive.calibration_append_us.p50"] = percentile(append_us, 50);
}

// divsim run's per-replica "run" telemetry record, through JsonlWriter.
void probe_jsonl(const PassResult& plain, const std::string& dir,
                 Tracer& tracer, Metrics& m) {
  Span span(tracer, "probe.jsonl");
  const std::string path = dir + "/metrics.jsonl";
  std::vector<double> emit_us;
  std::uint64_t lines = 0;
  {
    divlib::JsonlWriter writer(path);
    for (const CampaignOutcome& campaign : plain.campaigns) {
      for (std::size_t r = 0; r < campaign.replicas.size(); ++r) {
        const ReplicaOutcome& replica = campaign.replicas[r];
        divlib::JsonObject line;
        line.field("type", "run")
            .field("replica", static_cast<std::uint64_t>(r))
            .field("status", divlib::to_string(replica.status))
            .field("steps", replica.summary.steps)
            .field("effective_steps", replica.summary.effective_steps)
            .raw_field("metrics", replica.metrics_json);
        const auto start = Clock::now();
        writer.emit(line.str());
        emit_us.push_back(micros_since(start));
      }
    }
    writer.sync();
    lines = writer.lines_written();
  }
  m["obs.emit_us.p50"] = percentile(emit_us, 50);
  m["obs.emit_us.p99"] = percentile(emit_us, 99);
  m["obs.lines"] = static_cast<double>(lines);
  m["obs.bytes"] = static_cast<double>(file_size(path));
}

// Process isolation with a task that does nothing: what the fleet itself
// costs per attempt (fork, work and result frames, reaping) and to start.
void probe_fleet(const Workload& w, bool quick, Tracer& tracer, Metrics& m) {
  Span span(tracer, "probe.fleet");
  const divlib::SupervisedTask null_task =
      [](std::size_t, Rng&, const CancelToken&) -> std::optional<std::string> {
    return std::string("null");
  };
  divlib::SupervisorOptions sup;
  sup.num_threads = w.threads;
  sup.isolation = divlib::Isolation::kProcess;
  sup.fleet.workers = w.threads;
  std::uint64_t spawns = 0;
  const auto run = [&](std::size_t replicas) {
    std::vector<std::size_t> ids(replicas);
    std::iota(ids.begin(), ids.end(), 0);
    const auto start = Clock::now();
    const divlib::SupervisorReport report = divlib::run_supervised_set(
        ids, null_task, [](std::size_t, std::string&&) {}, sup);
    const double seconds = since(start);
    if (report.succeeded != replicas) {
      throw std::runtime_error("fleet probe: null attempts failed");
    }
    spawns += report.worker_spawns;
    return seconds;
  };
  std::fflush(nullptr);  // forked workers must not inherit unflushed output
  std::vector<double> startup_ms;
  for (int i = 0; i < kFleetStartups; ++i) {
    startup_ms.push_back(run(1) * 1e3);
  }
  const std::size_t attempts = fleet_attempts(quick);
  m["fleet.null_attempt_us"] =
      run(attempts) * 1e6 / static_cast<double>(attempts);
  m["fleet.startup_ms"] = describe(startup_ms).median;
  m["fleet.spawns"] = static_cast<double>(spawns);
}

// CampaignQueue driven directly: every mutation locks, replays the whole
// queue.journal, appends and fsyncs, so its cost grows with history.
void probe_queue(const Workload& w, std::uint64_t seed, bool quick,
                 const std::string& dir, Tracer& tracer, Metrics& m) {
  Span span(tracer, "probe.queue");
  const std::size_t campaigns = queue_campaigns(quick);
  divlib::QueueOptions options;
  options.directory = dir;
  options.max_depth = campaigns;
  divlib::CampaignQueue queue(options);
  std::vector<double> submit_us;
  std::vector<double> lease_us;
  std::vector<double> transition_us;
  std::vector<double> snapshot_us;
  std::vector<double> replayed;  // records each mutation replayed
  double records = 0.0;
  const auto mutate = [&](std::vector<double>& into, const auto& op) {
    const auto start = Clock::now();
    op();
    into.push_back(micros_since(start));
    replayed.push_back(records);
    records += 1.0;
  };
  for (std::size_t i = 0; i < campaigns; ++i) {
    std::string config;
    const std::vector<std::string> opts =
        run_options(w, campaign_seed(seed, i), w.replicas);
    for (std::size_t o = 0; o + 1 < opts.size(); o += 2) {
      config += (config.empty() ? "" : " ") + opts[o] + "=" + opts[o + 1];
    }
    mutate(submit_us, [&] { queue.submit(config); });
  }
  for (std::size_t i = 0; i < campaigns; ++i) {
    std::optional<divlib::CampaignEntry> entry;
    mutate(lease_us, [&] { entry = queue.lease_next(); });
    if (!entry) {
      throw std::runtime_error("queue probe: nothing to lease");
    }
    mutate(transition_us, [&] { queue.mark_running(entry->id, entry->lease); });
    mutate(transition_us, [&] {
      queue.finish(entry->id, entry->lease, divlib::CampaignPhase::kComplete,
                   "probe");
    });
    if (i % 10 == 0) {
      const auto start = Clock::now();
      queue.snapshot();
      snapshot_us.push_back(micros_since(start));
    }
  }
  m["queue.submit_us.p50"] = percentile(submit_us, 50);
  m["queue.submit_us.p95"] = percentile(submit_us, 95);
  m["queue.lease_us.p50"] = percentile(lease_us, 50);
  m["queue.lease_us.p95"] = percentile(lease_us, 95);
  m["queue.transition_us.p50"] = percentile(transition_us, 50);
  m["queue.snapshot_us.p50"] = percentile(snapshot_us, 50);
  m["queue.journal_records"] = static_cast<double>(queue.snapshot().records);
  m["queue.replay_records.mean"] =
      sum(replayed) / static_cast<double>(replayed.size());
}

void driver_metrics(const char* layer, const DriverLedger& driver,
                    double workers, double reps, Metrics& m) {
  const std::string prefix = layer;
  m[prefix + ".wall_s"] = driver.wall_s / reps;
  m[prefix + ".utilization"] = driver.busy_s / (workers * driver.wall_s);
  m[prefix + ".idle_core_s"] = (workers * driver.wall_s - driver.busy_s) / reps;
  m[prefix + ".gap_us.p50"] = percentile(driver.gaps_us, 50);
  m[prefix + ".gap_us.p99"] = percentile(driver.gaps_us, 99);
}

}  // namespace

const std::vector<MetricSpec>& layer_metrics() {
  static const std::vector<MetricSpec> metrics = {
      {"cli.exec_ms", "ms"},
      {"graph.build_s", "s"},
      {"graph.csr_mib", "MiB"},
      {"core.init_s", "s"},
      {"engine.calls", "count"},
      {"engine.busy_s", "s"},
      {"engine.scheduled_steps", "steps"},
      {"engine.effective_steps", "steps"},
      {"engine.steps_per_busy_s", "steps/s"},
      {"engine.replica_ms.p50", "ms"},
      {"engine.replica_ms.tail", "ms"},
      {"engine.tracker_rebuilds", "count"},
      {"montecarlo.wall_s", "s"},
      {"montecarlo.utilization", "ratio"},
      {"montecarlo.idle_core_s", "s"},
      {"montecarlo.gap_us.p50", "us"},
      {"montecarlo.gap_us.p99", "us"},
      {"supervisor.wall_s", "s"},
      {"supervisor.utilization", "ratio"},
      {"supervisor.idle_core_s", "s"},
      {"supervisor.gap_us.p50", "us"},
      {"supervisor.gap_us.p99", "us"},
      {"supervisor.retries", "count"},
      {"campaign.tax_s", "s"},
      {"io.journal.records", "count"},
      {"io.journal.bytes", "bytes"},
      {"io.journal.append_us.p50", "us"},
      {"io.journal.append_us.p99", "us"},
      {"io.journal.flush_us.p50", "us"},
      {"io.journal.flush_us.p99", "us"},
      {"io.journal.recover_ms", "ms"},
      {"io.wire.roundtrip_us.p50", "us"},
      {"io.wire.roundtrip_us.p99", "us"},
      {"io.wire.frames", "count"},
      {"adaptive.calibration_append_us.p50", "us"},
      {"obs.emit_us.p50", "us"},
      {"obs.emit_us.p99", "us"},
      {"obs.lines", "count"},
      {"obs.bytes", "bytes"},
      {"fleet.null_attempt_us", "us"},
      {"fleet.startup_ms", "ms"},
      {"fleet.spawns", "count"},
      {"queue.submit_us.p50", "us"},
      {"queue.submit_us.p95", "us"},
      {"queue.lease_us.p50", "us"},
      {"queue.lease_us.p95", "us"},
      {"queue.transition_us.p50", "us"},
      {"queue.snapshot_us.p50", "us"},
      {"queue.journal_records", "count"},
      {"queue.replay_records.mean", "records"},
      {"trace.overhead_pct", "%"},
      {"trace.coverage", "ratio"},
  };
  return metrics;
}

TracedResult run_traced(const Workload& w, std::uint64_t seed,
                        const Budget& budget, const std::string& scratch,
                        const std::string& trace_json,
                        const std::string& context, bool quick) {
  TracedResult result;
  Ledger ledger;
  fresh_directory(scratch);
  std::unique_ptr<Tracer> first;  // repetition 0's spans, then the probes'
  PassResult last;                // the record stream the probes replay
  double elapsed = 0.0;
  for (std::size_t rep = 0; budget.more(rep, elapsed); ++rep) {
    const auto start = Clock::now();
    const std::uint64_t useed = unit_seed(seed, rep);
    const std::string unit_dir = scratch + "/unit";
    fresh_directory(unit_dir);
    UnitResult cli = run_unit(w, useed, unit_dir);
    remove_tree(unit_dir);
    for (Check& c : cli.checks) {
      result.checks.push_back(std::move(c));
    }
    result.attempted += cli.attempted;
    result.failed += cli.failed;

    // The untraced and traced plain passes swap order every repetition, so
    // whatever the first pass pays for the second (page faults, a freshly
    // freed heap) cancels out of trace.overhead_pct.
    Tracer off(false);
    auto tracer = std::make_unique<Tracer>(true);
    PassResult untraced;
    PassResult plain;
    if (rep % 2 == 0) {
      untraced = plain_pass(w, useed, off);
      plain = plain_pass(w, useed, *tracer);
    } else {
      plain = plain_pass(w, useed, *tracer);
      untraced = plain_pass(w, useed, off);
    }
    const PassResult supervised = supervised_pass(w, useed, *tracer);
    const std::size_t before = result.checks.size();
    gate(w, cli, untraced, plain, supervised, result.checks);
    for (std::size_t i = before; i < result.checks.size(); ++i) {
      result.failed += result.checks[i].ok ? 0 : 1;
    }
    result.attempted += 3 * w.campaigns * w.replicas;
    result.failed += plain.missing + supervised.missing + untraced.missing;

    ledger.add(tracer->collect());
    ledger.add(untraced, plain, supervised);
    if (!first) {
      first = std::move(tracer);
    }
    last = std::move(plain);
    elapsed += since(start);
  }

  Metrics m;
  const std::string probe_dir = scratch + "/probes";
  fresh_directory(probe_dir);
  {
    Span probes(*first, "probes");
    probe_cli(probe_dir, *first, m);
    probe_campaign(w, last, probe_dir, *first, m);
    probe_journal(last, probe_dir, *first, m);
    probe_wire(last, *first, m);
    probe_calibration(last, probe_dir, *first, m);
    probe_jsonl(last, probe_dir, *first, m);
    probe_fleet(w, quick, *first, m);
    probe_queue(w, seed, quick, probe_dir + "/queue", *first, m);
  }
  remove_tree(scratch);

  const auto reps = static_cast<double>(ledger.repetitions);
  const double workers = static_cast<double>(
      std::min<std::size_t>(w.threads, w.replicas));
  m["graph.build_s"] = describe(ledger.graph_build_s).median;
  m["graph.csr_mib"] = ledger.csr_mib;
  m["core.init_s"] = ledger.core_init_s / reps;
  m["engine.calls"] = static_cast<double>(ledger.engine_ms.size()) / reps;
  m["engine.busy_s"] = ledger.engine_busy_s / reps;
  m["engine.scheduled_steps"] = ledger.scheduled_steps / reps;
  m["engine.effective_steps"] = ledger.effective_steps / reps;
  m["engine.steps_per_busy_s"] = ledger.scheduled_steps / ledger.engine_busy_s;
  m["engine.replica_ms.p50"] = percentile(ledger.engine_ms, 50);
  result.engine_tail = tail(ledger.engine_ms);
  m["engine.replica_ms.tail"] = result.engine_tail.value;
  m["engine.tracker_rebuilds"] = ledger.tracker_rebuilds / reps;
  driver_metrics("montecarlo", ledger.montecarlo, workers, reps, m);
  driver_metrics("supervisor", ledger.supervisor, workers, reps, m);
  m["supervisor.retries"] = static_cast<double>(ledger.retries) / reps;
  m["trace.overhead_pct"] =
      (ledger.traced_wall_s - ledger.untraced_wall_s) / ledger.untraced_wall_s *
      100.0;
  m["trace.coverage"] = ledger.covered_s / ledger.root_s;

  for (const MetricSpec& spec : layer_metrics()) {
    const auto it = m.find(spec.name);
    if (it == m.end()) {
      throw std::logic_error(std::string("layer metric not computed: ") +
                             spec.name);
    }
    result.values.push_back(it->second);
  }
  result.repetitions = ledger.repetitions;
  result.layers = ledger.layers;
  write_chrome_trace(trace_json, first->collect(), context);
  return result;
}

}  // namespace divbench
