#include "engine/jump_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/div_process.hpp"
#include "core/faulty_process.hpp"
#include "core/opinion_plane.hpp"
#include "core/pull_voting.hpp"
#include "engine/batch_engine.hpp"
#include "engine/initial_config.hpp"
#include "exact/div_chain.hpp"
#include "graph/generators.hpp"
#include "graph/random_graphs.hpp"
#include "stats/chi_square.hpp"
#include "stats/summary.hpp"

namespace divlib {
namespace {

// Two-sample chi-square homogeneity test over winner categories.
double two_sample_chi_square_p(const std::vector<std::uint64_t>& a,
                               const std::vector<std::uint64_t>& b) {
  double total_a = 0.0;
  double total_b = 0.0;
  for (const auto count : a) total_a += static_cast<double>(count);
  for (const auto count : b) total_b += static_cast<double>(count);
  const double total = total_a + total_b;
  double statistic = 0.0;
  int used = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double column = static_cast<double>(a[i] + b[i]);
    if (column == 0.0) {
      continue;
    }
    ++used;
    const double expected_a = column * total_a / total;
    const double expected_b = column * total_b / total;
    statistic += (a[i] - expected_a) * (a[i] - expected_a) / expected_a;
    statistic += (b[i] - expected_b) * (b[i] - expected_b) / expected_b;
  }
  return chi_square_survival(statistic, used - 1);
}

// Two-sample Kolmogorov-Smirnov statistic D = sup |F_a - F_b|.
double two_sample_ks_statistic(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  double d = 0.0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] <= b[j]) {
      ++i;
    } else {
      ++j;
    }
    d = std::max(d, std::abs(static_cast<double>(i) / a.size() -
                             static_cast<double>(j) / b.size()));
  }
  return d;
}

struct EngineSamples {
  std::vector<std::uint64_t> winner_counts;  // indexed by value - lo
  std::vector<double> completion_steps;
  std::uint64_t effective_steps = 0;
};

EngineSamples collect(const Graph& graph, SelectionScheme scheme, Opinion lo,
                      Opinion hi, int replicas, std::uint64_t seed,
                      bool jump) {
  EngineSamples samples;
  samples.winner_counts.assign(static_cast<std::size_t>(hi - lo) + 1, 0);
  DivProcess process(graph, scheme);
  RunOptions options;
  options.max_steps = static_cast<std::uint64_t>(graph.num_vertices()) *
                      graph.num_vertices() * 1000;
  for (int replica = 0; replica < replicas; ++replica) {
    Rng rng(Rng::substream_seed(seed, static_cast<std::uint64_t>(replica)));
    OpinionState state(
        graph, uniform_random_opinions(graph.num_vertices(), lo, hi, rng));
    RunResult result;
    if (jump) {
      const JumpRunResult jump_result = run_jump(process, state, rng, options);
      samples.effective_steps += jump_result.effective_steps;
      result = jump_result;
    } else {
      result = run(process, state, rng, options);
    }
    EXPECT_EQ(result.status, RunStatus::kCompleted);
    if (!result.winner.has_value()) {
      ADD_FAILURE() << "replica " << replica << " finished without a winner";
      continue;
    }
    ++samples.winner_counts[static_cast<std::size_t>(*result.winner - lo)];
    samples.completion_steps.push_back(static_cast<double>(result.steps));
  }
  return samples;
}

TEST(JumpEngine, RejectsNonDivProcesses) {
  const Graph graph = make_complete(8);
  Rng rng(1);
  OpinionState state(graph, uniform_random_opinions(8, 1, 3, rng));
  RunOptions options;

  PullVoting pull(graph, SelectionScheme::kEdge);
  EXPECT_THROW(run_jump(pull, state, rng, options), std::invalid_argument);

  FaultyProcess faulty(
      std::make_unique<DivProcess>(graph, SelectionScheme::kEdge),
      /*drop_rate=*/0.5);
  EXPECT_THROW(run_jump(faulty, state, rng, options), std::invalid_argument);

  const JumpRunResult guarded = run_jump_guarded(faulty, state, rng, options);
  EXPECT_EQ(guarded.status, RunStatus::kFaulted);
  EXPECT_NE(guarded.fault.find("step engine"), std::string::npos);
}

TEST(JumpEngine, AlreadySatisfiedStopsAtZeroSteps) {
  const Graph graph = make_cycle(5);
  OpinionState state(graph, std::vector<Opinion>(5, 3));
  DivProcess process(graph, SelectionScheme::kVertex);
  Rng rng(2);
  const JumpRunResult result = run_jump(process, state, rng, RunOptions{});
  EXPECT_EQ(result.status, RunStatus::kCompleted);
  EXPECT_EQ(result.steps, 0u);
  EXPECT_EQ(result.effective_steps, 0u);
  ASSERT_TRUE(result.winner.has_value());
  EXPECT_EQ(*result.winner, 3);
}

TEST(JumpEngine, CapReportsScheduledSteps) {
  Rng rng(3);
  const Graph graph = make_connected_random_regular(64, 4, rng);
  OpinionState state(graph, uniform_random_opinions(64, 1, 6, rng));
  DivProcess process(graph, SelectionScheme::kEdge);
  RunOptions options;
  options.max_steps = 5;
  const JumpRunResult result = run_jump(process, state, rng, options);
  EXPECT_EQ(result.status, RunStatus::kCapped);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.steps, 5u);
  EXPECT_LE(result.effective_steps, result.steps);
}

TEST(JumpEngine, FrozenDisconnectedComponentsCapImmediately) {
  // Two disjoint, internally unanimous edges: no step can ever fire, which
  // the naive loop would discover only after max_steps no-ops.
  const Graph graph(4, {{0, 1}, {2, 3}});
  OpinionState state(graph, {1, 1, 2, 2});
  DivProcess process(graph, SelectionScheme::kEdge);
  Rng rng(4);
  RunOptions options;
  options.max_steps = 1000000;
  const JumpRunResult result = run_jump(process, state, rng, options);
  EXPECT_EQ(result.status, RunStatus::kCapped);
  EXPECT_EQ(result.steps, options.max_steps);
  EXPECT_EQ(result.effective_steps, 0u);
}

// Regression: the frozen-state and watchdog exits used to replay EVERY
// stride point of the terminal lazy stretch into the trace -- with stride 1
// and a 10^9-step cap that is a billion identical samples (a multi-GiB
// allocation burst).  The terminal stretch now records only its first and
// last stride points; a run that would have OOM'd stays within a handful of
// samples.
TEST(JumpEngine, FrozenTailTraceStaysTinyAtHugeStepCaps) {
  const Graph graph(4, {{0, 1}, {2, 3}});
  OpinionState state(graph, {1, 1, 2, 2});
  DivProcess process(graph, SelectionScheme::kEdge);
  Rng rng(4);
  RunOptions options;
  options.max_steps = 1'000'000'000;
  options.trace_stride = 1;  // worst case: every step is a stride point
  const JumpRunResult result = run_jump(process, state, rng, options);
  EXPECT_EQ(result.status, RunStatus::kCapped);
  EXPECT_EQ(result.steps, options.max_steps);
  // step 0, the first frozen stride point (1), and the last (max_steps).
  ASSERT_LE(result.trace.samples().size(), 4u);
  EXPECT_EQ(result.trace.samples().front().step, 0u);
  EXPECT_EQ(result.trace.samples().back().step, options.max_steps);
  // Frozen replay preserves the state in every sample.
  for (const TraceSample& sample : result.trace.samples()) {
    EXPECT_EQ(sample.min_active, 1);
    EXPECT_EQ(sample.max_active, 2);
  }
}

TEST(JumpEngine, TraceSamplesLieOnTheScheduledStrideGrid) {
  Rng rng(5);
  const Graph graph = make_connected_random_regular(48, 4, rng);
  OpinionState state(graph, uniform_random_opinions(48, 1, 4, rng));
  DivProcess process(graph, SelectionScheme::kVertex);
  RunOptions options;
  options.trace_stride = 64;
  const JumpRunResult result = run_jump(process, state, rng, options);
  ASSERT_EQ(result.status, RunStatus::kCompleted);
  ASSERT_FALSE(result.trace.empty());
  const auto& samples = result.trace.samples();
  EXPECT_EQ(samples.front().step, 0u);
  EXPECT_EQ(samples.back().step, result.steps);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i + 1 < samples.size()) {
      // Strictly increasing, and every interior sample is a stride multiple.
      EXPECT_LT(samples[i].step, samples[i + 1].step);
      if (i > 0) {
        EXPECT_EQ(samples[i].step % options.trace_stride, 0u);
      }
    }
  }
  // The lazy stretches are replayed: every stride point up to the final step
  // must be present, exactly as the naive engine would record it.
  const std::uint64_t interior =
      (result.steps - 1) / options.trace_stride;  // multiples in (0, steps)
  EXPECT_GE(samples.size(), interior);
}

TEST(JumpEngine, WinnerDistributionAndTimeMatchNaiveEngine) {
  Rng graph_rng(0x23a);
  const Graph graph = make_connected_random_regular(32, 4, graph_rng);
  constexpr int kReplicas = 400;
  for (const SelectionScheme scheme :
       {SelectionScheme::kVertex, SelectionScheme::kEdge}) {
    const EngineSamples naive =
        collect(graph, scheme, 1, 3, kReplicas, 0xbeef, /*jump=*/false);
    const EngineSamples jump =
        collect(graph, scheme, 1, 3, kReplicas, 0xcafe, /*jump=*/true);

    // The jump engine must actually skip work.
    double scheduled = 0.0;
    for (const double steps : jump.completion_steps) scheduled += steps;
    EXPECT_LT(static_cast<double>(jump.effective_steps), 0.8 * scheduled)
        << to_string(scheme);

    const double chi_p =
        two_sample_chi_square_p(naive.winner_counts, jump.winner_counts);
    EXPECT_GT(chi_p, 1e-3) << "winner distributions diverge, scheme "
                           << to_string(scheme);

    const double d = two_sample_ks_statistic(naive.completion_steps,
                                             jump.completion_steps);
    // KS critical value at alpha = 0.001 for n = m = kReplicas.
    const double critical =
        1.95 * std::sqrt(2.0 / static_cast<double>(kReplicas));
    EXPECT_LT(d, critical) << "completion-time ECDFs diverge, scheme "
                           << to_string(scheme);
  }
}

TEST(JumpEngine, WinnerDistributionMatchesExactChainOnSmallGraphs) {
  struct Case {
    const char* name;
    Graph graph;
    std::vector<Opinion> start;
    SelectionScheme scheme;
  };
  std::vector<Case> cases;
  cases.push_back({"path4/edge", make_path(4), {0, 2, 1, 0},
                   SelectionScheme::kEdge});
  cases.push_back({"cycle4/vertex", make_cycle(4), {0, 1, 2, 1},
                   SelectionScheme::kVertex});
  cases.push_back({"K4/edge", make_complete(4), {0, 1, 2, 2},
                   SelectionScheme::kEdge});

  constexpr int kReplicas = 2000;
  constexpr int kOpinions = 3;
  for (const Case& test_case : cases) {
    const DivChain chain(test_case.graph, kOpinions, test_case.scheme);
    const std::uint64_t encoded = chain.encode(test_case.start);
    const std::vector<double> exact = chain.absorption_distribution(encoded);
    const double exact_time = chain.expected_consensus_time(encoded);

    DivProcess process(test_case.graph, test_case.scheme);
    std::vector<std::uint64_t> winners(kOpinions, 0);
    Summary steps;
    for (int replica = 0; replica < kReplicas; ++replica) {
      Rng rng(Rng::substream_seed(0x17e, static_cast<std::uint64_t>(replica)));
      OpinionState state(test_case.graph, test_case.start);
      const JumpRunResult result =
          run_jump(process, state, rng, RunOptions{});
      ASSERT_EQ(result.status, RunStatus::kCompleted) << test_case.name;
      ++winners[static_cast<std::size_t>(*result.winner)];
      steps.add(static_cast<double>(result.steps));
    }

    const ChiSquareResult chi = chi_square_test(winners, exact);
    EXPECT_GT(chi.p_value, 1e-3) << test_case.name;
    EXPECT_NEAR(steps.mean(), exact_time, 5.0 * steps.stderror())
        << test_case.name;
  }
}

// ---------------------------------------------------------------------------
// Lane jump-chain parity: run_lane_jump on a one-lane plane, seeded like a
// scalar run_jump replica, must be BIT-identical to it -- the full
// JumpRunResult (including effective_steps and mode_switches), the final
// opinion vector, and the rng stream position (checked by comparing the next
// raw output).

void expect_same_jump_result(const JumpRunResult& scalar,
                             const JumpRunResult& lane,
                             const std::string& where) {
  EXPECT_EQ(scalar.status, lane.status) << where;
  EXPECT_EQ(scalar.completed, lane.completed) << where;
  EXPECT_EQ(scalar.steps, lane.steps) << where;
  EXPECT_EQ(scalar.effective_steps, lane.effective_steps) << where;
  EXPECT_EQ(scalar.mode_switches, lane.mode_switches) << where;
  EXPECT_EQ(scalar.min_active, lane.min_active) << where;
  EXPECT_EQ(scalar.max_active, lane.max_active) << where;
  EXPECT_EQ(scalar.num_active, lane.num_active) << where;
  EXPECT_EQ(scalar.final_sum, lane.final_sum) << where;
  EXPECT_DOUBLE_EQ(scalar.final_z, lane.final_z) << where;
  EXPECT_EQ(scalar.winner, lane.winner) << where;
}

// Runs `lanes` scalar run_jump replicas (seed = retry_seed(master, lane, 0),
// initial opinions drawn by `init` from the SAME stream the lane will use)
// and the identical configurations through run_lane_jump, one one-lane plane
// each, then asserts per-replica bit-identity on results, final opinions,
// and stream positions.
void expect_batch_jump_parity(
    const Graph& graph, SelectionScheme scheme, unsigned lanes,
    std::uint64_t master, const RunOptions& options,
    const std::function<std::vector<Opinion>(unsigned, Rng&)>& init) {
  DivProcess process(graph, scheme);
  std::vector<JumpRunResult> scalar(lanes);
  std::vector<std::vector<Opinion>> scalar_final(lanes);
  std::vector<std::uint64_t> scalar_next(lanes);
  for (unsigned lane = 0; lane < lanes; ++lane) {
    Rng rng(Rng::retry_seed(master, lane, 0));
    OpinionState state(graph, init(lane, rng));
    scalar[lane] = run_jump(process, state, rng, options);
    scalar_final[lane].assign(state.opinions().begin(),
                              state.opinions().end());
    scalar_next[lane] = rng.next();
  }

  for (unsigned lane = 0; lane < lanes; ++lane) {
    const std::string where =
        std::string(to_string(scheme)) + " lane " + std::to_string(lane);
    OpinionPlane plane(graph, 1);
    Rng rng(Rng::retry_seed(master, lane, 0));
    plane.assign_lane(0, init(lane, rng));
    const JumpRunResult result =
        run_lane_jump(graph, scheme, plane, rng, options);
    expect_same_jump_result(scalar[lane], result, where);
    const auto lane_view = plane.lane_opinions(0);
    ASSERT_EQ(lane_view.size(), scalar_final[lane].size()) << where;
    EXPECT_TRUE(std::equal(lane_view.begin(), lane_view.end(),
                           scalar_final[lane].begin()))
        << where;
    EXPECT_EQ(rng.next(), scalar_next[lane]) << where;
  }
}

TEST(BatchJump, LanesBitIdenticalToScalarJump) {
  Rng graph_rng(0x6a7d);
  const Graph graph = make_connected_random_regular(48, 4, graph_rng);
  for (const SelectionScheme scheme :
       {SelectionScheme::kVertex, SelectionScheme::kEdge}) {
    expect_batch_jump_parity(
        graph, scheme, /*lanes=*/8, /*master=*/0xabce, RunOptions{},
        [&graph](unsigned, Rng& rng) {
          return uniform_random_opinions(graph.num_vertices(), 1, 4, rng);
        });
  }
}

// Wide opinion ranges put the plane on full-width cells; the lane kernel
// must run wide planes (odd lanes) as bit-identically as byte-packed ones
// (even lanes).
TEST(BatchJump, WidePlaneLanesMatchScalarJump) {
  Rng graph_rng(0x77df);
  const Graph graph = make_connected_random_regular(40, 4, graph_rng);
  for (const SelectionScheme scheme :
       {SelectionScheme::kVertex, SelectionScheme::kEdge}) {
    expect_batch_jump_parity(
        graph, scheme, /*lanes=*/6, /*master=*/0x51df, RunOptions{},
        [&graph](unsigned lane, Rng& rng) {
          const Opinion hi = (lane % 2 == 0) ? 4 : 300;
          return uniform_random_opinions(graph.num_vertices(), 1, hi, rng);
        });
  }
}

// Both mode histories: dense starts (wide uniform start -> hysteresis drops
// them to naive scheduled stepping) and near-consensus starts that stay lazy
// in jump mode.  Each replica's mode history must match its scalar run
// exactly.
TEST(BatchJump, MixedModeLanesStayIndependent) {
  Rng graph_rng(0x3a2e);
  const Graph graph = make_connected_random_regular(64, 4, graph_rng);
  for (const SelectionScheme scheme :
       {SelectionScheme::kVertex, SelectionScheme::kEdge}) {
    expect_batch_jump_parity(
        graph, scheme, /*lanes=*/8, /*master=*/0x8a8a, RunOptions{},
        [&graph](unsigned lane, Rng& rng) {
          if (lane % 2 == 0) {
            // Dense: wide spread, almost every pair discordant.
            return uniform_random_opinions(graph.num_vertices(), 1, 8, rng);
          }
          // Lazy: unanimity except one vertex one level up.
          std::vector<Opinion> opinions(graph.num_vertices(), 2);
          opinions[lane] = 3;
          return opinions;
        });
  }
}

// Frozen lanes (discordance hits zero without the stop rule holding, only
// possible on disconnected graphs) idle straight to the cap, and lanes whose
// components disagree forever cap too -- in both cases bit-identically to
// the scalar watchdog, without consuming stray draws.
TEST(BatchJump, FrozenAndCappedLanesMatchScalarJump) {
  const Graph graph(4, {{0, 1}, {2, 3}});
  RunOptions options;
  options.max_steps = 100000;
  for (const SelectionScheme scheme :
       {SelectionScheme::kVertex, SelectionScheme::kEdge}) {
    expect_batch_jump_parity(
        graph, scheme, /*lanes=*/4, /*master=*/0xf02e, options,
        [](unsigned lane, Rng&) {
          return lane % 2 == 0 ? std::vector<Opinion>{1, 1, 2, 2}
                               : std::vector<Opinion>{1, 2, 2, 1};
        });
  }
}

// A step budget that straddles several naive windows (4096) and draw blocks
// (32) at an odd offset: capped lanes must stop at exactly max_steps with
// the scalar effective_steps/mode_switches tallies.
TEST(BatchJump, StepCapParity) {
  Rng graph_rng(0x9b2);
  const Graph graph = make_connected_random_regular(48, 4, graph_rng);
  RunOptions options;
  options.max_steps = 3 * kNaiveWindow + 17;
  for (const SelectionScheme scheme :
       {SelectionScheme::kVertex, SelectionScheme::kEdge}) {
    expect_batch_jump_parity(
        graph, scheme, /*lanes=*/6, /*master=*/0x5eee, options,
        [&graph](unsigned, Rng& rng) {
          return uniform_random_opinions(graph.num_vertices(), 1, 6, rng);
        });
  }
}

}  // namespace
}  // namespace divlib
