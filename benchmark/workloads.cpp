#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "io/table.hpp"
#include "json.hpp"
#include "rng/rng.hpp"
#include "stats/histogram.hpp"
#include "stats/summary.hpp"

namespace divbench {

namespace {

// Timed set-up probes come in rounds of one per CPU, repeated while they
// have taken under kSetupSeconds (at most kMaxSetupRounds), so millisecond
// set-ups get a median over enough samples to be steady.
constexpr int kMaxSetupRounds = 6;
constexpr double kSetupSeconds = 0.5;
// Room for every campaign a queue unit submits.
constexpr const char* kQueueDepth = "1000";

std::string divsim() { return DIVBENCH_DIVSIM; }

std::vector<std::string> journaled_flags(const std::string& dir) {
  return {"--supervise", "--checkpoint-dir", dir + "/ckpt",
          "--checkpoint-every", "1", "--metrics-out", dir + "/metrics.jsonl"};
}

std::vector<std::string> fleet_flags(const Workload& w) {
  return {"--isolation", "process", "--workers", std::to_string(w.threads)};
}

void append(std::vector<std::string>& to,
            const std::vector<std::string>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

bool starts_with(const std::string& text, const char* prefix) {
  return text.rfind(prefix, 0) == 0;
}

// Per-campaign summary lines of a `run` or `queue run` stdout, in order.
std::vector<CampaignLines> extract_lines(const std::vector<std::string>& out) {
  std::vector<CampaignLines> lines;
  for (const std::string& line : out) {
    if (starts_with(line, "completed ")) {
      lines.push_back({line, "", ""});
    } else if (!lines.empty() && starts_with(line, "winners:")) {
      lines.back().winners = line;
    } else if (!lines.empty() && starts_with(line, "jump engine:")) {
      lines.back().jump = line;
    }
  }
  return lines;
}

struct Completed {
  std::size_t done = 0;
  std::size_t total = 0;
  double mean_steps = 0.0;
};

Completed parse_completed(const std::string& line) {
  Completed c;
  if (std::sscanf(line.c_str(), "completed %zu/%zu", &c.done, &c.total) != 2) {
    return {};
  }
  const std::size_t at = line.find("E[steps] = ");
  if (at != std::string::npos) {
    c.mean_steps = std::strtod(line.c_str() + at + 11, nullptr);
  }
  return c;
}

// Every campaign's summary must report all replicas completed (and, for
// the jump engine, a non-zero effective-step count).
void check_campaign_lines(const Workload& w, UnitResult& unit) {
  add_check(unit.checks, "campaign count", unit.lines.size() == w.campaigns,
            std::to_string(unit.lines.size()) + " summary lines for " +
                std::to_string(w.campaigns) + " campaign(s)");
  std::string incomplete;
  std::string no_effective;
  for (const CampaignLines& lines : unit.lines) {
    const Completed c = parse_completed(lines.completed);
    unit.replicas_completed += c.done;
    unit.steps += c.mean_steps * static_cast<double>(c.done);
    if ((c.done != w.replicas || c.total != w.replicas) && incomplete.empty()) {
      incomplete = lines.completed;
    }
    unsigned long long effective = 0;
    if (w.jump && no_effective.empty() &&
        (std::sscanf(lines.jump.c_str(), "jump engine: %llu", &effective) !=
             1 ||
         effective == 0)) {
      no_effective = "missing or zero: '" + lines.jump + "'";
    }
  }
  add_check(unit.checks, "all replicas completed", incomplete.empty(),
            incomplete);
  if (w.jump) {
    add_check(unit.checks, "jump engine effective steps", no_effective.empty(),
              no_effective);
  }
}

// `divsim journal --json`: every replica journaled once, nothing torn or
// quarantined.  Records the per-replica status and steps for the traced
// run's comparison.
void check_journal(const Workload& w, const std::string& dir,
                   UnitResult& unit) {
  const ChildResult probe =
      run_child({divsim(), "journal", "--dir", dir + "/ckpt", "--json"},
                dir + "/journal.out", dir + "/journal.err");
  try {
    const Json journal = parse_json(read_text(dir + "/journal.out"));
    const auto count = [&](const char* key) {
      return static_cast<std::size_t>(journal.at(key).number);
    };
    const std::size_t finished = count("finished");
    const std::size_t records = count("records");
    const std::size_t quarantined = count("quarantined");
    const bool torn = journal.at("torn").boolean;
    add_check(unit.checks, "journal complete",
              probe.exit_code == 0 && finished == w.replicas &&
                  records == w.replicas && quarantined == 0 && !torn,
              "exit " + std::to_string(probe.exit_code) + ", finished " +
                  std::to_string(finished) + ", records " +
                  std::to_string(records) + ", quarantined " +
                  std::to_string(quarantined) + (torn ? ", torn" : ""));
    unit.journal_replicas.assign(w.replicas, "");
    for (const Json& entry : journal.at("replicas").array) {
      const auto replica = static_cast<std::size_t>(entry.at("replica").number);
      const std::string& payload = entry.at("payload").string;
      const std::size_t second = payload.find(' ', payload.find(' ') + 1);
      if (replica < unit.journal_replicas.size()) {
        unit.journal_replicas[replica] = payload.substr(0, second);
      }
    }
  } catch (const std::exception& error) {
    add_check(unit.checks, "journal complete", false, error.what());
  }

  std::size_t runs = 0;
  std::string bad;
  try {
    for (const std::string& line : read_lines(dir + "/metrics.jsonl")) {
      if (parse_json(line).at("type").string == "run") {
        ++runs;
      }
    }
  } catch (const std::exception& error) {
    bad = error.what();
  }
  add_check(unit.checks, "metrics JSONL parses",
            bad.empty() && runs == w.replicas,
            bad.empty() ? std::to_string(runs) + " run records" : bad);
}

// `divsim queue status --json` after the drain: every campaign complete.
void check_queue(const Workload& w, const std::string& queue_dir,
                 const std::string& dir, const std::vector<std::string>& out,
                 UnitResult& unit) {
  const std::string n = std::to_string(w.campaigns);
  const std::string expected = "queue: " + n + " lease(s): " + n +
                               " complete, 0 degraded, 0 failed, 0 released, "
                               "0 lost";
  add_check(unit.checks, "queue run verdicts",
            std::find(out.begin(), out.end(), expected) != out.end(),
            "no line '" + expected + "'");
  const ChildResult probe =
      run_child({divsim(), "queue", "status", "--dir", queue_dir, "--json"},
                dir + "/status.out", dir + "/status.err");
  try {
    const Json status = parse_json(read_text(dir + "/status.out"));
    const auto count = [&](const char* key) {
      return static_cast<std::size_t>(status.at(key).number);
    };
    add_check(unit.checks, "queue status",
              probe.exit_code == 0 && !status.at("torn").boolean &&
                  count("complete") == w.campaigns && count("failed") == 0 &&
                  count("degraded") == 0 && count("queued") == 0,
              "exit " + std::to_string(probe.exit_code) + ", complete " +
                  std::to_string(count("complete")) + ", failed " +
                  std::to_string(count("failed")) + ", degraded " +
                  std::to_string(count("degraded")));
  } catch (const std::exception& error) {
    add_check(unit.checks, "queue status", false, error.what());
  }
}

UnitResult run_single(const Workload& w, std::uint64_t seed,
                      const std::string& dir) {
  UnitResult unit;
  std::vector<std::string> argv = {divsim(), "run"};
  append(argv, run_options(w, seed, w.replicas));
  if (w.path == Path::kJournaled) {
    append(argv, journaled_flags(dir));
  }
  const ChildResult child =
      run_child(argv, dir + "/run.out", dir + "/run.err");
  unit.wall_s = unit.campaign_wall_s = child.wall_s;
  unit.max_rss_mib = child.max_rss_mib;
  unit.campaigns = 1;
  unit.attempted = w.replicas;

  add_check(unit.checks, "exit status", child.exit_code == 0,
            "divsim run exited " + std::to_string(child.exit_code));
  unit.lines = extract_lines(read_lines(dir + "/run.out"));
  check_campaign_lines(w, unit);
  if (w.path == Path::kJournaled) {
    check_journal(w, dir, unit);
  }
  const std::size_t completed = std::min(w.replicas, unit.replicas_completed);
  unit.failed = child.exit_code == 0 ? w.replicas - completed : w.replicas;
  return unit;
}

UnitResult run_queue(const Workload& w, std::uint64_t seed,
                     const std::string& dir) {
  UnitResult unit;
  const std::string queue_dir = dir + "/queue";
  std::size_t refused = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < w.campaigns; ++i) {
    std::vector<std::string> argv = {divsim(), "queue", "submit", "--dir",
                                     queue_dir, "--max-depth", kQueueDepth};
    append(argv, run_options(w, campaign_seed(seed, i), w.replicas));
    append(argv, fleet_flags(w));
    const ChildResult submit =
        run_child(argv, dir + "/submit.out", dir + "/submit.err");
    unit.max_rss_mib = std::max(unit.max_rss_mib, submit.max_rss_mib);
    refused += submit.exit_code == 0 ? 0 : 1;
  }
  const ChildResult drain =
      run_child({divsim(), "queue", "run", "--dir", queue_dir, "--no-wait"},
                dir + "/run.out", dir + "/run.err");
  unit.wall_s = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  unit.campaign_wall_s = drain.wall_s;
  unit.max_rss_mib = std::max(unit.max_rss_mib, drain.max_rss_mib);
  unit.campaigns = w.campaigns;
  unit.attempted = w.campaigns + w.campaigns * w.replicas;

  add_check(unit.checks, "submits admitted", refused == 0,
            std::to_string(refused) + " submit(s) failed or were refused");
  add_check(unit.checks, "exit status", drain.exit_code == 0,
            "divsim queue run exited " + std::to_string(drain.exit_code));
  const std::vector<std::string> out = read_lines(dir + "/run.out");
  unit.lines = extract_lines(out);
  check_campaign_lines(w, unit);
  check_queue(w, queue_dir, dir, out, unit);
  unit.failed = refused + w.campaigns * w.replicas -
                std::min(w.campaigns * w.replicas, unit.replicas_completed);
  return unit;
}

}  // namespace

void add_check(std::vector<Check>& checks, const std::string& name, bool ok,
               const std::string& detail) {
  checks.push_back({name, ok, ok ? std::string() : detail});
}

const std::vector<Workload>& workloads(bool quick) {
  // Sizing notes (4-vCPU host, L2 2 MiB per core) are in README.md.
  static const std::vector<Workload> full = {
      {"expander-consensus", Path::kPlain, "regular:1024:16", true, 8, false,
       false, 256, 4, 1, true},
      {"large-sparse-jump", Path::kPlain, "regular:65536:8", false, 8, true,
       true, 16, 2, 1, false},
      {"journaled-short-replicas", Path::kJournaled, "complete:32", false, 3,
       false, false, 5000, 4, 1, false},
      {"queue-fleet-drain", Path::kQueue, "complete:32", false, 3, false, false,
       8, 2, 100, false},
  };
  static const std::vector<Workload> small = {
      {"expander-consensus", Path::kPlain, "regular:256:16", true, 8, false,
       false, 16, 4, 1, true},
      {"large-sparse-jump", Path::kPlain, "regular:4096:8", false, 8, true,
       true, 2, 2, 1, false},
      {"journaled-short-replicas", Path::kJournaled, "complete:32", false, 3,
       false, false, 200, 4, 1, false},
      {"queue-fleet-drain", Path::kQueue, "complete:32", false, 3, false, false,
       8, 2, 4, false},
  };
  return quick ? small : full;
}

const Workload& find_workload(const std::string& name, bool quick) {
  std::string known;
  for (const Workload& w : workloads(quick)) {
    if (name == w.name) {
      return w;
    }
    known += std::string(known.empty() ? "" : ", ") + w.name;
  }
  throw std::invalid_argument("unknown workload '" + name + "' (known: " +
                              known + ")");
}

std::uint64_t unit_seed(std::uint64_t seed, std::size_t unit) {
  return divlib::Rng::substream_seed(seed, unit);
}

std::uint64_t campaign_seed(std::uint64_t unit_seed, std::size_t campaign) {
  return unit_seed + campaign;
}

std::vector<std::string> run_options(const Workload& w, std::uint64_t seed,
                                     std::size_t replicas) {
  std::vector<std::string> options = {
      "--graph", w.graph, "--scheme", w.vertex_scheme ? "vertex" : "edge",
      "--k", std::to_string(w.k)};
  if (w.two_adjacent) {
    append(options, {"--stop", "two-adjacent"});
  }
  if (w.jump) {
    append(options, {"--engine", "jump"});
  }
  append(options, {"--replicas", std::to_string(replicas), "--threads",
                   std::to_string(w.threads), "--seed", std::to_string(seed)});
  return options;
}

std::string command_line(const Workload& w) {
  std::vector<std::string> options = run_options(w, 0, w.replicas);
  const auto seed = std::find(options.begin(), options.end(), "--seed");
  *std::next(seed) = w.path == Path::kQueue ? "S+i" : "S";
  std::vector<std::string> argv;
  switch (w.path) {
    case Path::kPlain:
      argv = {"divsim", "run"};
      append(argv, options);
      break;
    case Path::kJournaled:
      argv = {"divsim", "run"};
      append(argv, options);
      append(argv, journaled_flags("D"));
      break;
    case Path::kQueue:
      argv = {std::to_string(w.campaigns) + " x divsim", "queue", "submit",
              "--dir", "Q", "--max-depth", kQueueDepth};
      append(argv, options);
      append(argv, fleet_flags(w));
      append(argv, {"; divsim", "queue", "run", "--dir", "Q", "--no-wait"});
      break;
  }
  std::string text;
  for (const std::string& arg : argv) {
    text += (text.empty() ? "" : " ") + arg;
  }
  return text;
}

UnitResult run_unit(const Workload& w, std::uint64_t unit_seed,
                    const std::string& dir) {
  return w.path == Path::kQueue ? run_queue(w, unit_seed, dir)
                                : run_single(w, unit_seed, dir);
}

ChildResult setup_probe(const Workload& w, std::uint64_t seed,
                        const std::string& dir, int cpu) {
  std::vector<std::string> argv = {divsim(), "run"};
  append(argv, run_options(w, seed, 0));
  if (w.path == Path::kJournaled) {
    append(argv, journaled_flags(dir));
  } else if (w.path == Path::kQueue) {
    append(argv, fleet_flags(w));
  }
  return run_child(argv, dir + "/setup.out", dir + "/setup.err", cpu);
}

ChildResult cli_probe(const std::string& dir) {
  return run_child({divsim(), "--help"}, dir + "/help.out", dir + "/help.err");
}

CampaignLines render_lines(const Workload& w,
                           const std::vector<ReplicaSummary>& replicas) {
  divlib::IntCounter winners;
  divlib::Summary steps;
  std::size_t completed = 0;
  std::size_t capped = 0;
  std::uint64_t effective = 0;
  for (const ReplicaSummary& replica : replicas) {
    effective += replica.effective_steps;
    if (!replica.completed) {
      ++capped;
      continue;
    }
    ++completed;
    steps.add(static_cast<double>(replica.steps));
    if (replica.has_winner) {
      winners.add(replica.winner);
    }
  }
  CampaignLines lines;
  lines.completed = "completed " + std::to_string(completed) + "/" +
                    std::to_string(replicas.size()) + " replicas";
  if (capped > 0) {
    lines.completed += " (" + std::to_string(capped) + " capped)";
  }
  lines.completed += "; E[steps] = " + divlib::format_double(steps.mean(), 1) +
                     " +- " + divlib::format_double(steps.ci95_halfwidth(), 1);
  if (w.jump) {
    lines.jump = "jump engine: " + std::to_string(effective) +
                 " effective steps simulated across completed replicas "
                 "(scheduled steps reported above)";
  }
  if (winners.total() > 0) {
    lines.winners = "winners:";
    for (const auto& [value, count] : winners.counts()) {
      lines.winners +=
          "  " + std::to_string(value) + " x" + std::to_string(count);
    }
  }
  return lines;
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> metrics = {
      {"setup_s", "s"},
      {"wall_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"replica_steps_per_s", "steps/s"},
      {"replicas_per_s", "1/s"},
      {"campaigns_per_s", "1/s"},
  };
  return metrics;
}

TimedResult run_timed(const Workload& w, std::uint64_t seed,
                      const Budget& budget, const std::string& scratch) {
  TimedResult result;
  result.samples.resize(end_to_end_metrics().size());
  // Same order as end_to_end_metrics().
  std::vector<double>& setup = result.samples[0];
  std::vector<double>& wall = result.samples[1];
  std::vector<double>& rss = result.samples[2];
  std::vector<double>& step_rate = result.samples[3];
  std::vector<double>& replica_rate = result.samples[4];
  std::vector<double>& campaign_rate = result.samples[5];
  fresh_directory(scratch);
  const std::string probe_dir = scratch + "/setup";
  const auto probe = [&](int cpu) {
    fresh_directory(probe_dir);
    const ChildResult child = setup_probe(w, seed, probe_dir, cpu);
    add_check(result.checks, "setup probe exit status", child.exit_code == 0,
              "divsim run --replicas 0 exited " +
                  std::to_string(child.exit_code));
    return child.wall_s;
  };
  probe(-1);  // untimed warm-up
  // Each timed probe is pinned, one per CPU in turn: on a shared host the
  // vCPUs run at different speeds (a 3 ms process start took 35% longer on
  // one than on another), so letting the scheduler place the probes would
  // make the median depend on where they happened to land.
  std::vector<int> cpus = allowed_cpus();
  if (cpus.empty()) {
    cpus.push_back(-1);
  }
  double probing = 0.0;
  for (int round = 0;
       round == 0 || (round < kMaxSetupRounds && probing < kSetupSeconds);
       ++round) {
    for (const int cpu : cpus) {
      setup.push_back(probe(cpu));
      probing += setup.back();
    }
  }
  remove_tree(probe_dir);

  // Unit 0 is an untimed warm-up (page cache, allocator, first-touch
  // faults); its checks still count.
  const std::string unit_dir = scratch + "/unit";
  double elapsed = 0.0;
  for (std::size_t u = 0; u == 0 || budget.more(u - 1, elapsed); ++u) {
    fresh_directory(unit_dir);
    UnitResult unit = run_unit(w, unit_seed(seed, u), unit_dir);
    remove_tree(unit_dir);
    for (Check& c : unit.checks) {
      result.checks.push_back(std::move(c));
    }
    result.attempted += unit.attempted;
    result.failed += unit.failed;
    if (u == 0) {
      continue;
    }
    elapsed += unit.wall_s;
    wall.push_back(unit.wall_s);
    rss.push_back(unit.max_rss_mib);
    step_rate.push_back(unit.steps / unit.wall_s);
    replica_rate.push_back(static_cast<double>(unit.replicas_completed) /
                           unit.wall_s);
    campaign_rate.push_back(static_cast<double>(unit.campaigns) /
                            unit.campaign_wall_s);
  }
  remove_tree(scratch);
  return result;
}

}  // namespace divbench
