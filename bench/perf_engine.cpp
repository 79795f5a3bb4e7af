// PERF-1 -- google-benchmark microbenchmarks of the simulation engine:
// steps/second for every process under both selection schemes, whole-run
// naive-vs-jump engine throughput (in scheduled steps/second, the
// apples-to-apples unit), the O(1) aggregate bookkeeping (ablation: naive
// rescan), graph generation, and lambda computation.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/best_of_two.hpp"
#include "core/div_process.hpp"
#include "core/load_balancing.hpp"
#include "core/median_voting.hpp"
#include "core/pull_voting.hpp"
#include "core/push_voting.hpp"
#include "engine/engine.hpp"
#include "engine/initial_config.hpp"
#include "graph/generators.hpp"
#include "graph/random_graphs.hpp"
#include "core/opinion_plane.hpp"
#include "engine/batch_engine.hpp"
#include "engine/jump_engine.hpp"
#include "engine/montecarlo.hpp"
#include "engine/adaptive/estimator.hpp"
#include "engine/supervisor.hpp"
#include "obs/run_metrics.hpp"
#include "spectral/lambda.hpp"
#include "spectral/power_iteration.hpp"

namespace {

using namespace divlib;

const Graph& shared_regular_graph(VertexId n) {
  static std::map<VertexId, Graph> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    Rng rng(0xbe7c);
    it = cache.emplace(n, make_connected_random_regular(n, 16, rng)).first;
  }
  return it->second;
}

// Draws a fresh non-consensus configuration with the benchmark clock paused,
// so every step benchmark pays for re-randomization identically (and never
// times it).
void reset_outside_timing(benchmark::State& state, const Graph& g,
                          OpinionState& opinions, Rng& rng) {
  state.PauseTiming();
  opinions = OpinionState(
      g, uniform_random_opinions(g.num_vertices(), 1, 8, rng));
  state.ResumeTiming();
}

template <typename MakeProcess>
void run_steps(benchmark::State& state, VertexId n, MakeProcess make_process) {
  const Graph& g = shared_regular_graph(n);
  Rng rng(42);
  OpinionState opinions(g, uniform_random_opinions(n, 1, 8, rng));
  auto process = make_process(g);
  // Re-randomize occasionally so consensus never freezes the workload.
  std::uint64_t executed = 0;
  for (auto _ : state) {
    if (opinions.is_consensus()) {
      reset_outside_timing(state, g, opinions, rng);
    }
    process->step(opinions, rng);
    ++executed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(executed));
}

// Whole runs to consensus; items processed = SCHEDULED steps simulated, so
// items/sec compares the naive and jump engines on the same scale.  The
// jump engine's advantage is exactly the lazy steps it never touches.
void run_to_consensus(benchmark::State& state, VertexId n,
                      SelectionScheme scheme, bool jump) {
  const Graph& g = shared_regular_graph(n);
  Rng rng(99);
  DivProcess process(g, scheme);
  RunOptions options;
  options.max_steps = static_cast<std::uint64_t>(n) * n * 1000;
  std::uint64_t scheduled = 0;
  for (auto _ : state) {
    state.PauseTiming();
    OpinionState opinions(g, uniform_random_opinions(n, 1, 8, rng));
    state.ResumeTiming();
    scheduled += jump ? run_jump(process, opinions, rng, options).steps
                      : run(process, opinions, rng, options).steps;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(scheduled));
}

void BM_DivVertexStep(benchmark::State& state) {
  run_steps(state, static_cast<VertexId>(state.range(0)), [](const Graph& g) {
    return std::make_unique<DivProcess>(g, SelectionScheme::kVertex);
  });
}
BENCHMARK(BM_DivVertexStep)->Arg(1024)->Arg(16384);

void BM_DivEdgeStep(benchmark::State& state) {
  run_steps(state, static_cast<VertexId>(state.range(0)), [](const Graph& g) {
    return std::make_unique<DivProcess>(g, SelectionScheme::kEdge);
  });
}
BENCHMARK(BM_DivEdgeStep)->Arg(1024)->Arg(16384);

void BM_DivVertexNaiveRun(benchmark::State& state) {
  run_to_consensus(state, static_cast<VertexId>(state.range(0)),
                   SelectionScheme::kVertex, /*jump=*/false);
}
BENCHMARK(BM_DivVertexNaiveRun)->Arg(1024)->Arg(16384)
    ->Unit(benchmark::kMillisecond);

void BM_DivVertexJumpRun(benchmark::State& state) {
  run_to_consensus(state, static_cast<VertexId>(state.range(0)),
                   SelectionScheme::kVertex, /*jump=*/true);
}
BENCHMARK(BM_DivVertexJumpRun)->Arg(1024)->Arg(16384)
    ->Unit(benchmark::kMillisecond);

void BM_DivEdgeNaiveRun(benchmark::State& state) {
  run_to_consensus(state, static_cast<VertexId>(state.range(0)),
                   SelectionScheme::kEdge, /*jump=*/false);
}
BENCHMARK(BM_DivEdgeNaiveRun)->Arg(1024)->Arg(16384)
    ->Unit(benchmark::kMillisecond);

void BM_DivEdgeJumpRun(benchmark::State& state) {
  run_to_consensus(state, static_cast<VertexId>(state.range(0)),
                   SelectionScheme::kEdge, /*jump=*/true);
}
BENCHMARK(BM_DivEdgeJumpRun)->Arg(1024)->Arg(16384)
    ->Unit(benchmark::kMillisecond);

// Telemetry ablation: the same jump whole-run workload with a RunMetrics
// sink attached vs the default null observer.  The two must sit within
// run-to-run noise of each other -- the instrumentation only fires on mode
// switches, resyncs, and every activity_stride-th effective step, never in
// the lazy-skip fast path.
void run_to_consensus_metrics(benchmark::State& state, VertexId n,
                              bool metrics_on) {
  const Graph& g = shared_regular_graph(n);
  Rng rng(99);
  DivProcess process(g, SelectionScheme::kEdge);
  RunOptions options;
  options.max_steps = static_cast<std::uint64_t>(n) * n * 1000;
  std::uint64_t scheduled = 0;
  for (auto _ : state) {
    state.PauseTiming();
    OpinionState opinions(g, uniform_random_opinions(n, 1, 8, rng));
    RunMetrics metrics;
    options.metrics = metrics_on ? &metrics : nullptr;
    state.ResumeTiming();
    scheduled += run_jump(process, opinions, rng, options).steps;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(scheduled));
}

void BM_DivEdgeJumpRunMetricsOff(benchmark::State& state) {
  run_to_consensus_metrics(state, static_cast<VertexId>(state.range(0)),
                           /*metrics_on=*/false);
}
BENCHMARK(BM_DivEdgeJumpRunMetricsOff)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_DivEdgeJumpRunMetricsOn(benchmark::State& state) {
  run_to_consensus_metrics(state, static_cast<VertexId>(state.range(0)),
                           /*metrics_on=*/true);
}
BENCHMARK(BM_DivEdgeJumpRunMetricsOn)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// Supervisor overhead ablation: the same 32-replica DIV batch through the
// scheduler's thread executor twice -- with supervision off
// (BM_SupervisorOffBatch: run_replica_set_isolated_erased, the isolated
// drivers' adapter over run_supervised_set under supervision_off) and with
// supervision on (its policies armed but never firing: hour-scale deadline,
// speculation threshold far beyond any real attempt).  Both pay the lease
// tokens, the 5ms monitor poll and the ready-queue, so the gap is the
// policy tax alone -- deadline scans, median and estimator bookkeeping --
// which must stay within run-to-run noise.
constexpr std::size_t kSupervisorBatchReplicas = 32;

std::uint64_t replica_consensus_steps(const Graph& g, VertexId n, Rng& rng,
                                      const CancelToken* cancel) {
  OpinionState opinions(g, uniform_random_opinions(n, 1, 8, rng));
  DivProcess process(g, SelectionScheme::kEdge);
  RunOptions options;
  options.max_steps = static_cast<std::uint64_t>(n) * n * 1000;
  options.cancel = cancel;
  return run(process, opinions, rng, options).steps;
}

enum class SupervisorBench { kOff, kOn, kAuto };

void run_supervisor_batch(benchmark::State& state, SupervisorBench mode) {
  const auto n = static_cast<VertexId>(state.range(0));
  const Graph& g = shared_regular_graph(n);
  std::vector<std::size_t> ids(kSupervisorBatchReplicas);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = i;
  }
  // Adaptive mode keeps one estimator across iterations (as a campaign
  // would): the confidence gate opens during the first iteration and every
  // later poll pays the quantile-evaluation tax.  The safety factor is huge
  // so the learned deadline, like the fixed one, never actually fires.
  EstimatorOptions est_options;
  est_options.safety_factor = 1e9;
  CompletionEstimator estimator(est_options);
  std::atomic<std::uint64_t> total_steps{0};
  for (auto _ : state) {
    if (mode != SupervisorBench::kOff) {
      SupervisorOptions options;
      options.master_seed = 0xbe7c;
      options.num_threads = 4;
      options.deadline = std::chrono::milliseconds(3'600'000);
      options.straggler_factor = 1e6;
      if (mode == SupervisorBench::kAuto) {
        options.estimator = &estimator;
        options.deadline_auto = true;
      }
      const SupervisorReport report = run_supervised_set(
          ids,
          [&](std::size_t, Rng& rng, const CancelToken& cancel) {
            return std::optional<std::string>(
                std::to_string(replica_consensus_steps(g, n, rng, &cancel)));
          },
          [&](std::size_t, std::string&& payload) {
            total_steps.fetch_add(std::stoull(payload),
                                  std::memory_order_relaxed);
          },
          options);
      benchmark::DoNotOptimize(report.succeeded);
    } else {
      const MonteCarloOptions options{.master_seed = 0xbe7c,
                                      .num_threads = 4};
      run_replica_set_isolated_erased(
          ids,
          [&](std::size_t, Rng& rng) {
            total_steps.fetch_add(replica_consensus_steps(g, n, rng, nullptr),
                                  std::memory_order_relaxed);
          },
          options);
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(total_steps.load(std::memory_order_relaxed)));
}

void BM_SupervisorOffBatch(benchmark::State& state) {
  run_supervisor_batch(state, SupervisorBench::kOff);
}
BENCHMARK(BM_SupervisorOffBatch)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_SupervisorOnBatch(benchmark::State& state) {
  run_supervisor_batch(state, SupervisorBench::kOn);
}
BENCHMARK(BM_SupervisorOnBatch)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_SupervisorAutoBatch(benchmark::State& state) {
  run_supervisor_batch(state, SupervisorBench::kAuto);
}
BENCHMARK(BM_SupervisorAutoBatch)->Arg(256)->Unit(benchmark::kMillisecond);

// Batched replica engine: B lanes of the same topology advanced in lock-step
// over an OpinionPlane vs B sequential scalar run() calls.  A FIXED step
// budget (4n scheduled steps per lane, far below the consensus time) makes
// both sides execute the identical schedule, so items/sec -- replica-steps
// per second -- compares them directly.  Seeds follow the isolated driver
// (retry_seed(master, replica, 0)), so lane r draws the same stream and
// touches the same cells in the same order on either side; only the
// execution strategy differs.  Initialization (opinion draws, plane
// assignment, process construction) happens with the clock paused on both
// sides.
void run_batch_lanes(benchmark::State& state, bool batched) {
  const auto n = static_cast<VertexId>(state.range(0));
  const auto lanes = static_cast<unsigned>(state.range(1));
  const Graph& g = shared_regular_graph(n);
  RunOptions options;
  options.max_steps = static_cast<std::uint64_t>(n) * 4;
  std::uint64_t scheduled = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<Rng> rngs;
    rngs.reserve(lanes);
    for (unsigned r = 0; r < lanes; ++r) {
      rngs.emplace_back(Rng::retry_seed(0xba7c, r, 0));
    }
    if (batched) {
      OpinionPlane plane(g, lanes);
      for (unsigned r = 0; r < lanes; ++r) {
        plane.assign_lane(r, uniform_random_opinions(n, 1, 8, rngs[r]));
      }
      state.ResumeTiming();
      for (const RunResult& result : run_batch(
               g, SelectionScheme::kVertex, plane, std::span<Rng>(rngs),
               options)) {
        scheduled += result.steps;
      }
    } else {
      std::vector<OpinionState> states;
      states.reserve(lanes);
      for (unsigned r = 0; r < lanes; ++r) {
        states.emplace_back(g, uniform_random_opinions(n, 1, 8, rngs[r]));
      }
      DivProcess process(g, SelectionScheme::kVertex);
      state.ResumeTiming();
      for (unsigned r = 0; r < lanes; ++r) {
        scheduled += run(process, states[r], rngs[r], options).steps;
      }
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(scheduled));
}

void BM_DivBatchNaiveRun(benchmark::State& state) {
  run_batch_lanes(state, /*batched=*/false);
}
BENCHMARK(BM_DivBatchNaiveRun)
    ->ArgsProduct({{1 << 10, 1 << 14, 1 << 17}, {1, 4, 16}})
    ->Unit(benchmark::kMillisecond);

void BM_DivBatchRun(benchmark::State& state) {
  run_batch_lanes(state, /*batched=*/true);
}
BENCHMARK(BM_DivBatchRun)
    ->ArgsProduct({{1 << 10, 1 << 14, 1 << 17}, {1, 4, 16}})
    ->Unit(benchmark::kMillisecond);

// Lane jump-chain engine: run_lane_jump on a one-lane plane vs scalar
// run_jump, on the run_batch_lanes protocol (same fixed 4n budget, same
// retry_seed(0xba7c, 0, 0) stream, init with the clock paused).  Both sides
// execute the identical schedule -- the hybrid state machine is
// bit-identical -- so items/sec (replica-steps per second) isolates the
// execution strategy: the lane kernel's inlined plane writes and its naive
// stretches through the pre-drawn, deferred-histogram block kernel vs the
// scalar loop's virtual dispatch.  The second argument is the lane count,
// pinned to 1: lock-step jump groups measured no faster than one lane per
// replica and were removed.
void run_lane_jump_bench(benchmark::State& state, bool lane_kernel) {
  const auto n = static_cast<VertexId>(state.range(0));
  const Graph& g = shared_regular_graph(n);
  RunOptions options;
  options.max_steps = static_cast<std::uint64_t>(n) * 4;
  std::uint64_t scheduled = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(Rng::retry_seed(0xba7c, 0, 0));
    const std::vector<Opinion> opinions = uniform_random_opinions(n, 1, 8, rng);
    if (lane_kernel) {
      OpinionPlane plane(g, 1);
      plane.assign_lane(0, opinions);
      state.ResumeTiming();
      scheduled +=
          run_lane_jump(g, SelectionScheme::kVertex, plane, rng, options).steps;
    } else {
      OpinionState opinion_state(g, opinions);
      DivProcess process(g, SelectionScheme::kVertex);
      state.ResumeTiming();
      scheduled += run_jump(process, opinion_state, rng, options).steps;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(scheduled));
}

void BM_DivBatchJumpNaiveRun(benchmark::State& state) {
  run_lane_jump_bench(state, /*lane_kernel=*/false);
}
BENCHMARK(BM_DivBatchJumpNaiveRun)
    ->ArgsProduct({{1 << 10, 1 << 14, 1 << 17}, {1}})
    ->Unit(benchmark::kMillisecond);

void BM_DivBatchJumpRun(benchmark::State& state) {
  run_lane_jump_bench(state, /*lane_kernel=*/true);
}
BENCHMARK(BM_DivBatchJumpRun)
    ->ArgsProduct({{1 << 10, 1 << 14, 1 << 17}, {1}})
    ->Unit(benchmark::kMillisecond);

void BM_PullVertexStep(benchmark::State& state) {
  run_steps(state, static_cast<VertexId>(state.range(0)), [](const Graph& g) {
    return std::make_unique<PullVoting>(g, SelectionScheme::kVertex);
  });
}
BENCHMARK(BM_PullVertexStep)->Arg(1024);

void BM_PullEdgeStep(benchmark::State& state) {
  run_steps(state, static_cast<VertexId>(state.range(0)), [](const Graph& g) {
    return std::make_unique<PullVoting>(g, SelectionScheme::kEdge);
  });
}
BENCHMARK(BM_PullEdgeStep)->Arg(1024);

void BM_PushVertexStep(benchmark::State& state) {
  run_steps(state, static_cast<VertexId>(state.range(0)), [](const Graph& g) {
    return std::make_unique<PushVoting>(g, SelectionScheme::kVertex);
  });
}
BENCHMARK(BM_PushVertexStep)->Arg(1024);

void BM_PushEdgeStep(benchmark::State& state) {
  run_steps(state, static_cast<VertexId>(state.range(0)), [](const Graph& g) {
    return std::make_unique<PushVoting>(g, SelectionScheme::kEdge);
  });
}
BENCHMARK(BM_PushEdgeStep)->Arg(1024);

void BM_MedianStep(benchmark::State& state) {
  run_steps(state, static_cast<VertexId>(state.range(0)),
            [](const Graph& g) { return std::make_unique<MedianVoting>(g); });
}
BENCHMARK(BM_MedianStep)->Arg(1024);

void BM_LoadBalanceStep(benchmark::State& state) {
  run_steps(state, static_cast<VertexId>(state.range(0)),
            [](const Graph& g) { return std::make_unique<LoadBalancing>(g); });
}
BENCHMARK(BM_LoadBalanceStep)->Arg(1024);

void BM_BestOfTwoStep(benchmark::State& state) {
  run_steps(state, static_cast<VertexId>(state.range(0)),
            [](const Graph& g) { return std::make_unique<BestOfTwo>(g); });
}
BENCHMARK(BM_BestOfTwoStep)->Arg(1024);

// Ablation: aggregate lookup through the maintained O(1) counters vs a naive
// O(n) rescan of the opinion vector (what the engine would pay per stop-
// condition check without the bookkeeping).
void BM_StopCheckMaintained(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  const Graph& g = shared_regular_graph(n);
  Rng rng(7);
  const OpinionState opinions(g, uniform_random_opinions(n, 1, 8, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(opinions.is_two_adjacent());
    benchmark::DoNotOptimize(opinions.min_active());
  }
}
BENCHMARK(BM_StopCheckMaintained)->Arg(16384);

void BM_StopCheckNaiveRescan(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  const Graph& g = shared_regular_graph(n);
  Rng rng(7);
  const OpinionState opinions(g, uniform_random_opinions(n, 1, 8, rng));
  for (auto _ : state) {
    const auto all = opinions.opinions();
    const auto [lo, hi] = std::minmax_element(all.begin(), all.end());
    benchmark::DoNotOptimize(*hi - *lo <= 1);
  }
}
BENCHMARK(BM_StopCheckNaiveRescan)->Arg(16384);

void BM_MakeRandomRegular(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_random_regular(n, 16, rng));
  }
}
BENCHMARK(BM_MakeRandomRegular)->Arg(1024)->Arg(8192);

void BM_SecondEigenvalueDense(benchmark::State& state) {
  const Graph g = make_complete(static_cast<VertexId>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(second_eigenvalue(g));
  }
}
BENCHMARK(BM_SecondEigenvalueDense)->Arg(128)->Arg(256);

void BM_SecondEigenvaluePower(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  const Graph& g = shared_regular_graph(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(second_eigenvalue_power(g));
  }
}
BENCHMARK(BM_SecondEigenvaluePower)->Arg(1024)->Arg(16384);

}  // namespace

BENCHMARK_MAIN();
