// divbench -- end-to-end benchmark of `divsim run` and `divsim queue run`.
//
//   divbench run     [--workload NAME] [--seed S]
//                    [--repetitions N | --seconds T] [--out F.json] [--quick]
//   divbench trace   [--workload NAME] [--seed S]
//                    [--repetitions N | --seconds T] [--out F.json] [--quick]
//   divbench compare A.json B.json
//   divbench selftest
//   divbench --workload NAME --seed S --seconds T --trace 0|1
//
// `run` times every workload with tracing off and prints the end-to-end
// metrics (median, quartiles, n); `trace` is the separate traced run that
// prints the per-layer ledger and writes Chrome trace events.  Both check
// the program's outputs and exit 1 when a check fails.  `compare` judges B
// against A with the bounds in BENCHMARK.json.  The last form is what
// BENCHMARK.json's command runs: one workload, then one JSON line with
// correct / attempted / failed / metrics.
//
// One process generates all load, in a closed loop: each divsim child is
// spawned only after the previous one exited.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/args.hpp"
#include "harness.hpp"
#include "json.hpp"
#include "obs/jsonl.hpp"
#include "process.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace divbench {
namespace {

using divlib::JsonObject;
using divlib::json_double;

std::string build_path(const std::string& name) {
  return std::string(DIVBENCH_BUILD_DIR) + "/" + name;
}

std::string scratch_root() { return build_path("divbench-scratch"); }

std::string trace_json_path() { return build_path("trace.json"); }

struct Options {
  std::vector<const Workload*> selected;
  std::uint64_t seed = 1;
  Budget budget;
  std::string out;
  bool quick = false;
};

Options parse_options(const divlib::Args& args, std::size_t default_reps,
                      const char* default_out) {
  Options options;
  options.quick = args.flag("quick");
  options.seed = args.get_u64("seed", 1);
  options.budget.repetitions =
      static_cast<std::size_t>(
          args.get_positive_u64("repetitions", default_reps));
  options.budget.seconds = args.get_double("seconds", 0.0);
  if (options.budget.seconds < 0.0) {
    throw std::invalid_argument("--seconds must be >= 0");
  }
  options.out = args.get("out", build_path(default_out));
  const std::string name = args.get("workload", "");
  if (name.empty()) {
    for (const Workload& w : workloads(options.quick)) {
      options.selected.push_back(&w);
    }
  } else {
    options.selected.push_back(&find_workload(name, options.quick));
  }
  return options;
}

void reject_unused(const divlib::Args& args) {
  const std::vector<std::string> unused = args.unused_keys();
  if (!unused.empty()) {
    throw std::invalid_argument("unknown option --" + unused.front());
  }
}

// Appends one element to a JSON array or object body opened with "[" or "{".
void append_element(std::string& json, const std::string& element) {
  if (json.size() > 1) {
    json += ',';
  }
  json += element;
}

// "name":value, for an object body.
std::string member(const std::string& name, const std::string& value) {
  std::string text = "\"";
  text += divlib::json_escape(name);
  text += "\":";
  text += value;
  return text;
}

std::string format(double value) {
  char text[32];
  std::snprintf(text, sizeof(text), "%.6g", value);
  return text;
}

// Failed checks grouped by name: how often each failed, and the last detail.
using Failures = std::map<std::string, std::pair<std::size_t, std::string>>;

Failures group_failures(const std::vector<Check>& checks) {
  Failures failures;
  for (const Check& c : checks) {
    if (!c.ok) {
      auto& entry = failures[c.name];
      ++entry.first;
      entry.second = c.detail;
    }
  }
  return failures;
}

std::string failed_checks_json(const std::vector<Check>& checks) {
  std::string json = "[";
  for (const auto& [name, entry] : group_failures(checks)) {
    JsonObject item;
    item.field("check", name)
        .field("failures", static_cast<std::uint64_t>(entry.first))
        .field("detail", entry.second);
    append_element(json, item.str());
  }
  return json + "]";
}

void print_checks(const std::vector<Check>& checks, std::size_t attempted,
                  std::size_t failed) {
  const Failures failures = group_failures(checks);
  std::size_t failing = 0;
  for (const auto& [name, entry] : failures) {
    failing += entry.first;
  }
  std::cout << "   checks: " << checks.size() - failing << "/" << checks.size()
            << " passed; failed_frac "
            << format(attempted == 0 ? 0.0
                                     : static_cast<double>(failed) /
                                           static_cast<double>(attempted))
            << " (" << failed << " of " << attempted << " operations)\n";
  for (const auto& [name, entry] : failures) {
    std::cout << "   FAILED " << name << " (x" << entry.first
              << "): " << entry.second << "\n";
  }
}

bool all_ok(const std::vector<Check>& checks, std::size_t failed) {
  return failed == 0 &&
         std::all_of(checks.begin(), checks.end(),
                     [](const Check& c) { return c.ok; });
}

std::string samples_json(const std::vector<double>& samples) {
  std::string json = "[";
  for (const double value : samples) {
    append_element(json, json_double(value));
  }
  return json + "]";
}

// One workload of a `run` result: every end-to-end metric as median,
// quartiles, n and the raw samples.
std::string timed_json(const Workload& w, const TimedResult& result) {
  std::string metrics = "{";
  const auto& specs = end_to_end_metrics();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Distribution d = describe(result.samples[i]);
    JsonObject metric;
    metric.field("unit", specs[i].unit)
        .field("median", d.median)
        .field("q1", d.q1)
        .field("q3", d.q3)
        .field("n", static_cast<std::uint64_t>(d.n))
        .raw_field("samples", samples_json(result.samples[i]));
    append_element(metrics, member(specs[i].name, metric.str()));
  }
  JsonObject object;
  object.field("name", w.name)
      .field("command", command_line(w))
      .field("correct", all_ok(result.checks, result.failed))
      .field("attempted", static_cast<std::uint64_t>(result.attempted))
      .field("failed", static_cast<std::uint64_t>(result.failed))
      .field("checks", static_cast<std::uint64_t>(result.checks.size()))
      .raw_field("failed_checks", failed_checks_json(result.checks))
      .raw_field("metrics", metrics + "}");
  return object.str();
}

// One workload of a `trace` result: every per-layer value and the
// self-time ledger.
std::string traced_json(const Workload& w, const TracedResult& result) {
  std::string metrics = "{";
  const auto& specs = layer_metrics();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    JsonObject metric;
    metric.field("unit", specs[i].unit).field("value", result.values[i]);
    append_element(metrics, member(specs[i].name, metric.str()));
  }
  std::string layers = "{";
  for (const auto& [name, totals] : result.layers) {
    JsonObject layer;
    layer.field("count", static_cast<std::uint64_t>(totals.count))
        .field("total_s", totals.total_s)
        .field("self_s", totals.self_s);
    append_element(layers, member(name, layer.str()));
  }
  JsonObject tail;
  tail.field("percentile", result.engine_tail.percentile)
      .field("beyond", static_cast<std::uint64_t>(result.engine_tail.beyond));
  JsonObject object;
  object.field("name", w.name)
      .field("command", command_line(w))
      .field("repetitions", static_cast<std::uint64_t>(result.repetitions))
      .field("correct", all_ok(result.checks, result.failed))
      .field("attempted", static_cast<std::uint64_t>(result.attempted))
      .field("failed", static_cast<std::uint64_t>(result.failed))
      .field("checks", static_cast<std::uint64_t>(result.checks.size()))
      .raw_field("failed_checks", failed_checks_json(result.checks))
      .raw_field("engine_tail", tail.str())
      .raw_field("layers", layers + "}")
      .raw_field("metrics", metrics + "}");
  return object.str();
}

void print_timed(const Workload& w, const TimedResult& result) {
  std::cout << "== " << w.name << ": " << command_line(w) << "\n";
  std::printf("   %-22s %-8s %14s %14s %14s %4s\n", "metric", "unit", "median",
              "q1", "q3", "n");
  const auto& specs = end_to_end_metrics();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Distribution d = describe(result.samples[i]);
    std::printf("   %-22s %-8s %14s %14s %14s %4zu\n", specs[i].name,
                specs[i].unit, format(d.median).c_str(), format(d.q1).c_str(),
                format(d.q3).c_str(), d.n);
  }
  std::fflush(stdout);
  print_checks(result.checks, result.attempted, result.failed);
}

void print_traced(const Workload& w, const TracedResult& result) {
  std::cout << "== " << w.name << " (traced, " << result.repetitions
            << " repetition(s)): " << command_line(w) << "\n";
  std::printf("   %-36s %-8s %14s\n", "layer metric", "unit", "value");
  const auto& specs = layer_metrics();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    std::printf("   %-36s %-8s %14s\n", specs[i].name, specs[i].unit,
                format(result.values[i]).c_str());
  }
  std::printf("   engine.replica_ms.tail is p%s (%zu sample(s) beyond)\n",
              format(result.engine_tail.percentile).c_str(),
              result.engine_tail.beyond);
  std::printf("   %-22s %8s %14s %14s\n", "span", "count", "total_s", "self_s");
  for (const auto& [name, totals] : result.layers) {
    std::printf("   %-22s %8zu %14s %14s\n", name.c_str(), totals.count,
                format(totals.total_s).c_str(), format(totals.self_s).c_str());
  }
  std::fflush(stdout);
  print_checks(result.checks, result.attempted, result.failed);
}

void print_host(const HostContext& host) {
  std::cout << "host: rev " << host.git_rev.substr(0, 12) << ", "
            << host.build_type << " " << host.codegen << ", nproc "
            << host.nproc << ", L2 " << host.l2_kib << " KiB, L3 "
            << host.l3_kib << " KiB, scratch " << host.scratch_fs
            << ", load " << format(host.load_before) << " -> "
            << format(host.load_after) << (host.noisy() ? " (NOISY)" : "")
            << "\n";
}

void write_result(const std::string& path, const char* kind,
                  const Options& options, const HostContext& host,
                  const std::vector<std::string>& workload_json) {
  std::string list = "[";
  for (const std::string& json : workload_json) {
    append_element(list, json);
  }
  JsonObject object;
  object.field("divbench", kind)
      .field("seed", options.seed)
      .field("quick", options.quick)
      .field("repetitions",
             static_cast<std::uint64_t>(options.budget.repetitions))
      .field("seconds", options.budget.seconds)
      .raw_field("host", host.to_json())
      .raw_field("workloads", list + "]");
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    throw std::runtime_error("cannot write " + path);
  }
  const std::string text = object.str() + "\n";
  const bool ok = std::fwrite(text.data(), 1, text.size(), file) == text.size();
  if (std::fclose(file) != 0 || !ok) {
    throw std::runtime_error("cannot write " + path);
  }
}

std::string trace_context(const Workload& w, std::uint64_t seed,
                          const HostContext& host) {
  JsonObject context;
  context.field("workload", w.name)
      .field("command", command_line(w))
      .field("seed", seed)
      .raw_field("host", host.to_json());
  return context.str();
}

// Runs the selected workloads; returns their JSON and whether all passed.
struct Outcome {
  std::vector<std::string> json;
  bool ok = true;
  // Every reported metric's median or value, for the one-line result.
  std::vector<std::pair<const MetricSpec*, double>> values;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

Outcome run_workloads(const Options& options, bool traced,
                      const HostContext& host) {
  Outcome outcome;
  for (const Workload* w : options.selected) {
    const std::string scratch = scratch_root() + "/" + w->name;
    if (traced) {
      const TracedResult result =
          run_traced(*w, options.seed, options.budget, scratch,
                     trace_json_path(), trace_context(*w, options.seed, host),
                     options.quick);
      print_traced(*w, result);
      outcome.json.push_back(traced_json(*w, result));
      outcome.ok = outcome.ok && all_ok(result.checks, result.failed);
      outcome.attempted += result.attempted;
      outcome.failed += result.failed;
      for (std::size_t i = 0; i < layer_metrics().size(); ++i) {
        outcome.values.emplace_back(&layer_metrics()[i], result.values[i]);
      }
    } else {
      const TimedResult result =
          run_timed(*w, options.seed, options.budget, scratch);
      print_timed(*w, result);
      outcome.json.push_back(timed_json(*w, result));
      outcome.ok = outcome.ok && all_ok(result.checks, result.failed);
      outcome.attempted += result.attempted;
      outcome.failed += result.failed;
      for (std::size_t i = 0; i < end_to_end_metrics().size(); ++i) {
        outcome.values.emplace_back(&end_to_end_metrics()[i],
                                    describe(result.samples[i]).median);
      }
    }
  }
  std::filesystem::remove(scratch_root());
  return outcome;
}

// `run` and `trace`; with `result_line` set, the form BENCHMARK.json's
// command uses: one workload for --seconds, then the result as the last
// line of stdout.
int cmd_measure(const divlib::Args& args, bool traced, bool result_line) {
  if (result_line &&
      (args.get("workload", "").empty() || args.get("seconds", "").empty())) {
    throw std::invalid_argument("--workload and --seconds are required");
  }
  const Options options =
      parse_options(args, traced ? 1 : 5,
                    traced ? "divbench-trace.json" : "divbench-run.json");
  reject_unused(args);
  std::filesystem::create_directories(scratch_root());
  HostContext host = start_host_context(scratch_root());
  std::cout << "divbench " << (traced ? "trace" : "run") << ": seed "
            << options.seed << ", "
            << (options.budget.seconds > 0.0
                    ? format(options.budget.seconds) + " s of units"
                    : std::to_string(options.budget.repetitions) +
                          " repetition(s)")
            << " per workload" << (options.quick ? " (quick sizes)" : "")
            << "\n";
  const Outcome outcome = run_workloads(options, traced, host);
  finish_host_context(host);
  print_host(host);
  write_result(options.out, traced ? "trace" : "run", options, host,
               outcome.json);
  std::cout << "result: " << options.out << "\n";
  if (traced) {
    std::cout << "trace events: " << trace_json_path() << "\n";
  }
  if (result_line) {
    std::string metrics = "{";
    for (const auto& [spec, value] : outcome.values) {
      JsonObject metric;
      metric.field("value", value).field("unit", spec->unit);
      append_element(metrics, member(spec->name, metric.str()));
    }
    JsonObject line;
    line.field("correct", outcome.ok)
        .field("attempted", static_cast<std::uint64_t>(
                                std::max<std::size_t>(outcome.attempted, 1)))
        .field("failed", static_cast<std::uint64_t>(outcome.failed))
        .raw_field("metrics", metrics + "}");
    std::cout << line.str() << std::endl;
  }
  return outcome.ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// compare

struct Bound {
  std::string name;
  bool higher_better = false;
  double bound = 0.0;
};

Json load_json(const std::string& path) { return parse_json(read_text(path)); }

std::string benchmark_json_path() {
  return std::string(DIVBENCH_ROOT) + "/BENCHMARK.json";
}

std::vector<Bound> load_bounds() {
  std::vector<Bound> bounds;
  const Json bench = load_json(benchmark_json_path());
  for (const Json& metric : bench.at("end_to_end").array) {
    bounds.push_back({metric.at("name").string,
                      metric.at("better").string == "higher",
                      metric.at("bound").number});
  }
  return bounds;
}

const Json* find_workload_json(const Json& result, const std::string& name) {
  for (const Json& w : result.at("workloads").array) {
    if (w.at("name").string == name) {
      return &w;
    }
  }
  return nullptr;
}

// The verdict for one (metric, workload) row.  `delta` is the relative
// change of B's median against A's, signed so that positive is worse.  A
// row whose quartile spread (either side) exceeds the bound cannot be
// judged from medians: it is unresolved unless every B sample beats (or
// loses to) every A sample.
std::string verdict(const Bound& bound, const Json& a, const Json& b,
                    double& delta) {
  const double a_med = a.at("median").number;
  const double b_med = b.at("median").number;
  delta = a_med == 0.0 ? 0.0 : (b_med - a_med) / std::abs(a_med);
  if (bound.higher_better) {
    delta = -delta;
  }
  const auto spread = [](const Json& side) {
    const double median = side.at("median").number;
    return median == 0.0 ? 0.0
                         : (side.at("q3").number - side.at("q1").number) /
                               std::abs(median);
  };
  if (std::max(spread(a), spread(b)) > bound.bound) {
    const auto extreme = [](const Json& side, bool want_max) {
      double value = side.at("median").number;
      for (const Json& s : side.at("samples").array) {
        value =
            want_max ? std::max(value, s.number) : std::min(value, s.number);
      }
      return value;
    };
    // "b better than a" in the metric's direction, sample for sample.
    const bool b_all_better =
        bound.higher_better ? extreme(b, false) > extreme(a, true)
                            : extreme(b, true) < extreme(a, false);
    const bool b_all_worse =
        bound.higher_better ? extreme(b, true) < extreme(a, false)
                            : extreme(b, false) > extreme(a, true);
    return b_all_better ? "better" : b_all_worse ? "worse" : "unresolved";
  }
  if (delta > bound.bound) {
    return "worse";
  }
  if (-delta > bound.bound) {
    return "better";
  }
  return "within bound";
}

int cmd_compare(const divlib::Args& args) {
  const std::vector<std::string>& files = args.positional();
  if (files.size() != 3) {
    throw std::invalid_argument("usage: divbench compare A.json B.json");
  }
  reject_unused(args);
  const Json a = load_json(files[1]);
  const Json b = load_json(files[2]);
  if (a.at("divbench").string != "run" || b.at("divbench").string != "run") {
    throw std::invalid_argument("compare takes two `divbench run` results");
  }
  const std::vector<Bound> bounds = load_bounds();
  std::map<std::string, int> tally;
  std::printf("%-26s %-20s %13s %27s %13s %27s %8s %6s  %s\n", "workload",
              "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]",
              "delta", "bound", "verdict");
  for (const Json& wa : a.at("workloads").array) {
    const std::string name = wa.at("name").string;
    const Json* wb = find_workload_json(b, name);
    if (wb == nullptr) {
      std::printf("%-26s (missing from B)\n", name.c_str());
      ++tally["missing"];
      continue;
    }
    if (!wb->at("correct").boolean || wb->at("failed").number > 0) {
      std::printf("%-26s B failed checks or operations: worse\n", name.c_str());
      ++tally["worse"];
    }
    for (const Bound& bound : bounds) {
      const Json& ma = wa.at("metrics").at(bound.name);
      const Json& mb = wb->at("metrics").at(bound.name);
      double delta = 0.0;
      const std::string v = verdict(bound, ma, mb, delta);
      ++tally[v];
      const auto range = [](const Json& m) {
        return std::string("[") + format(m.at("q1").number) + ", " +
               format(m.at("q3").number) + "]";
      };
      std::printf("%-26s %-20s %13s %27s %13s %27s %+7.1f%% %5.0f%%  %s\n",
                  name.c_str(), bound.name.c_str(),
                  format(ma.at("median").number).c_str(), range(ma).c_str(),
                  format(mb.at("median").number).c_str(), range(mb).c_str(),
                  delta * 100.0, bound.bound * 100.0, v.c_str());
    }
  }
  std::cout << "summary:";
  for (const auto& [v, count] : tally) {
    std::cout << " " << count << " " << v << ";";
  }
  std::cout << " (delta > 0 is worse; rows whose quartile spread exceeds the "
               "bound are unresolved)\n";
  return tally["worse"] + tally["missing"] > 0 ? 1 : 0;
}

// ---------------------------------------------------------------------------
// selftest

// Names and units BENCHMARK.json lists under `key`.
std::vector<std::pair<std::string, std::string>> listed(const Json& bench,
                                                        const char* key) {
  std::vector<std::pair<std::string, std::string>> names;
  for (const Json& entry : bench.at(key).array) {
    const Json* unit = entry.find("unit");
    names.emplace_back(entry.at("name").string,
                       unit != nullptr ? unit->string : "");
  }
  return names;
}

// Names and units of the metrics object inside each emitted workload.
std::vector<std::pair<std::string, std::string>> emitted(
    const std::string& workload_json) {
  std::vector<std::pair<std::string, std::string>> names;
  const Json workload = parse_json(workload_json);
  for (const auto& [name, metric] : workload.at("metrics").object) {
    names.emplace_back(name, metric.at("unit").string);
  }
  return names;
}

int cmd_selftest(const divlib::Args& args) {
  reject_unused(args);
  const Json bench = load_json(benchmark_json_path());
  bool ok = true;
  const auto expect = [&](bool condition, const std::string& what) {
    std::cout << (condition ? "ok     " : "FAILED ") << what << "\n";
    ok = ok && condition;
  };

  std::vector<std::pair<std::string, std::string>> workload_names;
  for (const Workload& w : workloads(true)) {
    workload_names.emplace_back(w.name, "");
  }
  expect(listed(bench, "workloads") == workload_names,
         "workload names match BENCHMARK.json");

  const std::uint64_t seed = 1;
  const Budget budget{.repetitions = 1};
  const auto print_failures = [](const std::vector<Check>& checks) {
    for (const Check& c : checks) {
      if (!c.ok) {
        std::cout << "       " << c.name << ": " << c.detail << "\n";
      }
    }
  };
  std::filesystem::create_directories(scratch_root());
  const HostContext host = start_host_context(scratch_root());
  for (const Workload& w : workloads(true)) {
    const std::string scratch = scratch_root() + "/" + w.name;
    const TimedResult timed = run_timed(w, seed, budget, scratch);
    expect(all_ok(timed.checks, timed.failed),
           std::string(w.name) + ": quick run passes its checks");
    print_failures(timed.checks);
    expect(emitted(timed_json(w, timed)) == listed(bench, "end_to_end"),
           std::string(w.name) + ": end-to-end metrics match BENCHMARK.json");
    const TracedResult traced =
        run_traced(w, seed, budget, scratch, trace_json_path(),
                   trace_context(w, seed, host), true);
    expect(all_ok(traced.checks, traced.failed),
           std::string(w.name) + ": quick trace passes its checks");
    print_failures(traced.checks);
    expect(emitted(traced_json(w, traced)) == listed(bench, "per_layer"),
           std::string(w.name) + ": per-layer metrics match BENCHMARK.json");
  }
  std::filesystem::remove(scratch_root());
  return ok ? 0 : 1;
}

int usage() {
  std::cerr
      << "usage: divbench run|trace [--workload NAME] [--seed S]\n"
         "                          [--repetitions N | --seconds T]\n"
         "                          [--out F.json] [--quick]\n"
         "       divbench compare A.json B.json\n"
         "       divbench selftest\n"
         "       divbench --workload NAME --seed S --seconds T --trace 0|1\n";
  return 2;
}

}  // namespace
}  // namespace divbench

int main(int argc, char** argv) {
  using namespace divbench;
  if (argc < 2) {
    return usage();
  }
  const std::string command = argv[1];
  try {
    if (command.rfind("--", 0) == 0) {
      const divlib::Args args(argc, argv);
      return cmd_measure(args, args.get_u64("trace", 0) != 0, true);
    }
    const divlib::Args args(argc - 1, argv + 1);
    if (command == "run" || command == "trace") {
      return cmd_measure(args, command == "trace", false);
    }
    if (command == "compare") {
      return cmd_compare(divlib::Args(argc, argv));
    }
    if (command == "selftest") {
      return cmd_selftest(args);
    }
    return usage();
  } catch (const std::exception& error) {
    std::cerr << "divbench: error: " << error.what() << "\n";
    return 1;
  }
}
