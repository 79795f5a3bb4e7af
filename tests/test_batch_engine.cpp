#include "engine/batch_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/cancel.hpp"
#include "core/discordance_tracker.hpp"
#include "core/div_process.hpp"
#include "core/opinion_plane.hpp"
#include "engine/engine.hpp"
#include "engine/initial_config.hpp"
#include "engine/montecarlo.hpp"
#include "engine/supervisor.hpp"
#include "graph/generators.hpp"
#include "graph/random_graphs.hpp"
#include "stats/chi_square.hpp"

namespace divlib {
namespace {

// Two-sample chi-square homogeneity test over winner categories (the
// test_jump_engine harness).
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

void expect_same_result(const RunResult& scalar, const RunResult& lane,
                        const std::string& where) {
  EXPECT_EQ(scalar.status, lane.status) << where;
  EXPECT_EQ(scalar.completed, lane.completed) << where;
  EXPECT_EQ(scalar.steps, lane.steps) << where;
  EXPECT_EQ(scalar.min_active, lane.min_active) << where;
  EXPECT_EQ(scalar.max_active, lane.max_active) << where;
  EXPECT_EQ(scalar.num_active, lane.num_active) << where;
  EXPECT_EQ(scalar.final_sum, lane.final_sum) << where;
  EXPECT_DOUBLE_EQ(scalar.final_z, lane.final_z) << where;
  EXPECT_EQ(scalar.winner, lane.winner) << where;
}

// The core contract: run_lane, seeded like the scalar isolated driver's
// attempt 0, is BIT-identical to run() on its own OpinionState -- same
// result fields, same final opinion vector, and the rng streams line up
// draw for draw (checked by comparing the next raw output after the run).
TEST(BatchEngine, LanesBitIdenticalToScalarRun) {
  Rng graph_rng(0x6a7c);
  const Graph graph = make_connected_random_regular(48, 4, graph_rng);
  constexpr unsigned kLanes = 8;
  constexpr std::uint64_t kMaster = 0xabcd;
  RunOptions options;

  for (const SelectionScheme scheme :
       {SelectionScheme::kVertex, SelectionScheme::kEdge}) {
    // Scalar reference replicas.
    DivProcess process(graph, scheme);
    std::vector<RunResult> scalar(kLanes);
    std::vector<std::vector<Opinion>> scalar_final(kLanes);
    std::vector<std::uint64_t> scalar_next(kLanes);
    for (unsigned lane = 0; lane < kLanes; ++lane) {
      Rng rng(Rng::retry_seed(kMaster, lane, 0));
      OpinionState state(
          graph, uniform_random_opinions(graph.num_vertices(), 1, 4, rng));
      scalar[lane] = run(process, state, rng, options);
      scalar_final[lane].assign(state.opinions().begin(),
                                state.opinions().end());
      scalar_next[lane] = rng.next();
    }

    // The same replicas, one plane each.
    for (unsigned lane = 0; lane < kLanes; ++lane) {
      const std::string where =
          std::string(to_string(scheme)) + " lane " + std::to_string(lane);
      Rng rng(Rng::retry_seed(kMaster, lane, 0));
      OpinionPlane plane(
          graph, uniform_random_opinions(graph.num_vertices(), 1, 4, rng));
      const RunResult result = run_lane(graph, scheme, plane, rng, options);
      expect_same_result(scalar[lane], result, where);
      const auto lane_view = plane.opinions();
      ASSERT_EQ(lane_view.size(), scalar_final[lane].size()) << where;
      EXPECT_TRUE(std::equal(lane_view.begin(), lane_view.end(),
                             scalar_final[lane].begin()))
          << where;
      // Stream alignment: the lane consumed exactly the scalar draws.
      EXPECT_EQ(rng.next(), scalar_next[lane]) << where;
    }
  }
}

// Opinion ranges wider than a byte put the plane on full-width cells.
// Replicas alternate between narrow (byte-packed) and wide planes, and both
// must stay bit-identical to scalar runs.
TEST(BatchEngine, WideRangeLanesMatchScalarRun) {
  Rng graph_rng(0x77de);
  const Graph graph = make_connected_random_regular(40, 4, graph_rng);
  constexpr unsigned kLanes = 6;
  constexpr std::uint64_t kMaster = 0x51de;
  RunOptions options;
  // Lanes alternate between a narrow range (fits a byte) and a wide one
  // (up to 300 values; wider than 256 on every lane drawn here).
  const auto range_hi = [](unsigned lane) -> Opinion {
    return (lane % 2 == 0) ? 4 : 300;
  };

  for (const SelectionScheme scheme :
       {SelectionScheme::kVertex, SelectionScheme::kEdge}) {
    DivProcess process(graph, scheme);
    std::vector<RunResult> scalar(kLanes);
    std::vector<std::vector<Opinion>> scalar_final(kLanes);
    std::vector<std::uint64_t> scalar_next(kLanes);
    for (unsigned lane = 0; lane < kLanes; ++lane) {
      Rng rng(Rng::retry_seed(kMaster, lane, 0));
      OpinionState state(graph,
                         uniform_random_opinions(graph.num_vertices(), 1,
                                                 range_hi(lane), rng));
      scalar[lane] = run(process, state, rng, options);
      scalar_final[lane].assign(state.opinions().begin(),
                                state.opinions().end());
      scalar_next[lane] = rng.next();
    }

    for (unsigned lane = 0; lane < kLanes; ++lane) {
      const std::string where = std::string(to_string(scheme)) +
                                " wide lane " + std::to_string(lane);
      Rng rng(Rng::retry_seed(kMaster, lane, 0));
      OpinionPlane plane(graph,
                         uniform_random_opinions(graph.num_vertices(), 1,
                                                 range_hi(lane), rng));
      EXPECT_EQ(plane.cell_bytes(),
                lane % 2 == 0 ? 1u : sizeof(Opinion)) << where;
      const RunResult result = run_lane(graph, scheme, plane, rng, options);
      expect_same_result(scalar[lane], result, where);
      const auto lane_view = plane.opinions();
      ASSERT_EQ(lane_view.size(), scalar_final[lane].size()) << where;
      EXPECT_TRUE(std::equal(lane_view.begin(), lane_view.end(),
                             scalar_final[lane].begin()))
          << where;
      EXPECT_EQ(rng.next(), scalar_next[lane]) << where;
    }
  }
}

TEST(BatchEngine, StepCapMatchesScalarPerLane) {
  Rng graph_rng(0x9b1);
  const Graph graph = make_connected_random_regular(32, 4, graph_rng);
  constexpr unsigned kLanes = 4;
  RunOptions options;
  options.max_steps = 17;

  DivProcess process(graph, SelectionScheme::kEdge);
  for (unsigned lane = 0; lane < kLanes; ++lane) {
    Rng rng(Rng::retry_seed(0x5eed, lane, 0));
    OpinionState state(
        graph, uniform_random_opinions(graph.num_vertices(), 1, 9, rng));
    const RunResult scalar = run(process, state, rng, options);

    Rng lane_rng(Rng::retry_seed(0x5eed, lane, 0));
    OpinionPlane plane(graph, uniform_random_opinions(graph.num_vertices(), 1,
                                                      9, lane_rng));
    const RunResult result =
        run_lane(graph, SelectionScheme::kEdge, plane, lane_rng, options);
    EXPECT_EQ(result.status, RunStatus::kCapped);
    expect_same_result(scalar, result, "capped lane " + std::to_string(lane));
  }
}

// run_lane refuses a traced run and a plane built over another graph (the
// kernel draws from `graph` and writes the plane's cells, so the two must
// agree; with one rng per plane the old rng-count mismatch cannot arise).
TEST(BatchEngine, RejectsTracingAndMismatchedRngs) {
  const Graph graph = make_cycle(6);
  Rng rng(Rng::retry_seed(7, 0, 0));
  OpinionPlane plane(graph, uniform_random_opinions(6, 1, 3, rng));
  RunOptions traced;
  traced.trace_stride = 1;
  EXPECT_THROW(run_lane(graph, SelectionScheme::kEdge, plane, rng, traced),
               std::invalid_argument);

  const Graph other = make_cycle(8);
  EXPECT_THROW(
      run_lane(other, SelectionScheme::kEdge, plane, rng, RunOptions{}),
      std::invalid_argument);
}

// A fired options.cancel drains exactly the run it is passed to; runs
// without it reach consensus untouched, and the drained run's state is a
// valid step-boundary configuration (aggregates match a recount).
TEST(BatchEngine, PerLaneCancelDrainsOnlyThatLane) {
  Rng graph_rng(0x77);
  const Graph graph = make_connected_random_regular(32, 4, graph_rng);
  constexpr unsigned kLanes = 3;
  CancelToken mid_token;
  mid_token.request(CancelReason::kUser);
  const CancelToken* cancels[kLanes] = {nullptr, &mid_token, nullptr};
  std::vector<RunResult> results;
  std::vector<std::vector<Opinion>> finals;
  for (unsigned lane = 0; lane < kLanes; ++lane) {
    Rng rng(Rng::retry_seed(0xc0de, lane, 0));
    OpinionPlane plane(
        graph, uniform_random_opinions(graph.num_vertices(), 1, 5, rng));
    RunOptions options;
    options.cancel = cancels[lane];
    results.push_back(
        run_lane(graph, SelectionScheme::kEdge, plane, rng, options));
    finals.push_back(plane.opinions());
  }

  EXPECT_EQ(results[0].status, RunStatus::kCompleted);
  EXPECT_EQ(results[2].status, RunStatus::kCompleted);
  EXPECT_EQ(results[1].status, RunStatus::kCancelled);
  EXPECT_EQ(results[1].steps, 0u);  // pre-fired: drained before any step
  // Lane 1's aggregates still describe its (initial) configuration.
  std::int64_t sum = 0;
  for (const Opinion x : finals[1]) sum += x;
  EXPECT_EQ(sum, results[1].final_sum);
}

// Plain DIV replicas [0, replicas) through the one replica driver, the way
// divsim runs them: run_supervised_set under supervision_off(mc), each
// replica drawing its opinions uniformly in [lo, hi] from its own stream
// and running alone on its own plane -- run_lane for the step engine,
// run_lane_jump for the jump engine (Result = JumpRunResult).  Slot r holds
// replica r's result.
template <typename Result>
IsolatedBatch<Result> run_lane_replicas(const Graph& graph,
                                        SelectionScheme scheme,
                                        std::size_t replicas, Opinion lo,
                                        Opinion hi,
                                        const MonteCarloOptions& mc) {
  IsolatedBatch<Result> batch;
  batch.results.resize(replicas);
  std::vector<std::size_t> ids(replicas);
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  const SupervisorReport report = run_supervised_set(
      ids,
      [&](std::size_t replica, Rng& rng,
          const CancelToken& cancel) -> std::optional<std::string> {
        OpinionPlane plane(
            graph, uniform_random_opinions(graph.num_vertices(), lo, hi, rng));
        RunOptions options;
        options.cancel = &cancel;
        if constexpr (std::is_same_v<Result, JumpRunResult>) {
          batch.results[replica] =
              run_lane_jump(graph, scheme, plane, rng, options);
        } else {
          batch.results[replica] = run_lane(graph, scheme, plane, rng, options);
        }
        return std::string();
      },
      [](std::size_t, std::string&&) {}, supervision_off(mc));
  batch.report = to_batch_report(report);
  return batch;
}

TEST(BatchEngine, WinnerDistributionMatchesScalarEngine) {
  Rng graph_rng(0x23a);
  const Graph graph = make_connected_random_regular(32, 4, graph_rng);
  constexpr int kReplicas = 400;
  constexpr Opinion kLo = 1;
  constexpr Opinion kHi = 3;
  for (const SelectionScheme scheme :
       {SelectionScheme::kVertex, SelectionScheme::kEdge}) {
    // Scalar reference sample on one seed family.
    DivProcess process(graph, scheme);
    std::vector<std::uint64_t> scalar_winners(kHi - kLo + 1, 0);
    std::vector<double> scalar_steps;
    for (int replica = 0; replica < kReplicas; ++replica) {
      Rng rng(Rng::substream_seed(0xbeef, static_cast<std::uint64_t>(replica)));
      OpinionState state(
          graph,
          uniform_random_opinions(graph.num_vertices(), kLo, kHi, rng));
      const RunResult result = run(process, state, rng, RunOptions{});
      ASSERT_EQ(result.status, RunStatus::kCompleted);
      ++scalar_winners[static_cast<std::size_t>(*result.winner - kLo)];
      scalar_steps.push_back(static_cast<double>(result.steps));
    }

    // Lane-kernel sample on an independent seed family.
    MonteCarloOptions mc;
    mc.master_seed = 0xcafe;
    mc.num_threads = 2;
    const auto batch =
        run_lane_replicas<RunResult>(graph, scheme, kReplicas, kLo, kHi, mc);
    ASSERT_TRUE(batch.report.ok());
    std::vector<std::uint64_t> batch_winners(kHi - kLo + 1, 0);
    std::vector<double> batch_steps;
    for (const auto& result : batch.results) {
      ASSERT_TRUE(result.has_value());
      ASSERT_EQ(result->status, RunStatus::kCompleted);
      ++batch_winners[static_cast<std::size_t>(*result->winner - kLo)];
      batch_steps.push_back(static_cast<double>(result->steps));
    }

    const double chi_p =
        two_sample_chi_square_p(scalar_winners, batch_winners);
    EXPECT_GT(chi_p, 1e-3) << "winner distributions diverge, scheme "
                           << to_string(scheme);
    const double d = two_sample_ks_statistic(scalar_steps, batch_steps);
    const double critical =
        1.95 * std::sqrt(2.0 / static_cast<double>(kReplicas));
    EXPECT_LT(d, critical) << "completion-time ECDFs diverge, scheme "
                           << to_string(scheme);
  }
}

// One-lane replicas fill every slot with the scalar isolated driver's
// attempt-0 result across a worker pool.
TEST(BatchDriver, SlotsMatchScalarAttemptZero) {
  Rng graph_rng(0x31);
  const Graph graph = make_connected_random_regular(24, 4, graph_rng);
  constexpr std::size_t kReplicas = 10;
  constexpr std::uint64_t kMaster = 0xfeed;
  RunOptions run_options;

  DivProcess process(graph, SelectionScheme::kVertex);
  std::vector<RunResult> scalar(kReplicas);
  for (std::size_t replica = 0; replica < kReplicas; ++replica) {
    Rng rng(Rng::retry_seed(kMaster, replica, 0));
    OpinionState state(
        graph, uniform_random_opinions(graph.num_vertices(), 1, 4, rng));
    scalar[replica] = run(process, state, rng, run_options);
  }

  MonteCarloOptions mc;
  mc.master_seed = kMaster;
  mc.num_threads = 3;
  const auto batch = run_lane_replicas<RunResult>(
      graph, SelectionScheme::kVertex, kReplicas, 1, 4, mc);

  EXPECT_EQ(batch.report.replicas, kReplicas);
  EXPECT_EQ(batch.report.attempted, kReplicas);
  EXPECT_TRUE(batch.report.ok());
  EXPECT_FALSE(batch.report.cancelled);
  ASSERT_EQ(batch.results.size(), kReplicas);
  for (std::size_t replica = 0; replica < kReplicas; ++replica) {
    ASSERT_TRUE(batch.results[replica].has_value());
    expect_same_result(scalar[replica], *batch.results[replica],
                       "replica " + std::to_string(replica));
  }
}

TEST(BatchDriver, PresetCancelClaimsNothing) {
  const Graph graph = make_cycle(8);
  CancelToken token;
  token.request(CancelReason::kUser);
  MonteCarloOptions mc;
  mc.cancel = &token;
  const auto batch =
      run_lane_replicas<RunResult>(graph, SelectionScheme::kEdge, 8, 1, 3, mc);
  EXPECT_TRUE(batch.report.cancelled);
  EXPECT_EQ(batch.report.attempted, 0u);
  for (const auto& result : batch.results) {
    EXPECT_FALSE(result.has_value());
  }
}

// The frozen alias table samples the same conditional law: updaters are
// always discordant, observeds always disagree with them, and the empirical
// updater marginal matches disc(v)/d(v) (chi-square).  Any move invalidates
// the freeze; the edge scheme's freeze is a documented no-op.
TEST(DiscordanceTrackerAlias, FrozenSamplingMatchesWeights) {
  Rng graph_rng(0xa1);
  const Graph graph = make_connected_random_regular(24, 4, graph_rng);
  Rng init_rng(0xa2);
  OpinionState state(
      graph, uniform_random_opinions(graph.num_vertices(), 1, 3, init_rng));
  DiscordanceTracker tracker(state, SelectionScheme::kVertex);
  ASSERT_FALSE(tracker.frozen());
  EXPECT_FALSE(tracker.alias_frozen());

  tracker.freeze_alias();
  ASSERT_TRUE(tracker.alias_frozen());

  constexpr int kSamples = 20000;
  std::vector<std::uint64_t> counts(graph.num_vertices(), 0);
  Rng rng(0xa3);
  for (int i = 0; i < kSamples; ++i) {
    const SelectedPair pair = tracker.sample_discordant_pair(rng);
    ASSERT_GT(tracker.discordance(pair.updater), 0u);
    ASSERT_NE(state.opinion(pair.updater), state.opinion(pair.observed));
    ++counts[pair.updater];
  }
  std::vector<double> expected(graph.num_vertices(), 0.0);
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    expected[v] = static_cast<double>(tracker.discordance(v)) /
                  static_cast<double>(graph.degree(v));
  }
  const ChiSquareResult chi = chi_square_test(counts, expected);
  EXPECT_GT(chi.p_value, 1e-3);

  // A move invalidates the table; sampling falls back to the Fenwick path.
  const VertexId mover = 0;
  const Opinion before = state.opinion(mover);
  const Opinion moved = before == 1 ? 2 : 1;
  state.set(mover, moved);
  tracker.apply_move(mover, before);
  EXPECT_FALSE(tracker.alias_frozen());
  const SelectedPair after = tracker.sample_discordant_pair(rng);
  EXPECT_NE(state.opinion(after.updater), state.opinion(after.observed));

  // rebuild_counts also invalidates.
  tracker.freeze_alias();
  ASSERT_TRUE(tracker.alias_frozen());
  tracker.rebuild_counts();
  EXPECT_FALSE(tracker.alias_frozen());

  // Edge scheme: freeze is a no-op (already O(1)).
  DiscordanceTracker edge_tracker(state, SelectionScheme::kEdge);
  edge_tracker.freeze_alias();
  EXPECT_FALSE(edge_tracker.alias_frozen());
}

// ---------------------------------------------------------------------------
// Lane jump-chain engine (run_lane_jump) -- refusals, cancel drain,
// distributional equivalence, and the replica driver's slot contract.  The
// draw-for-draw bit-identity suite lives in test_jump_engine.cpp
// (BatchJump.LanesBitIdenticalToScalarJump and friends).

void expect_same_jump_result(const JumpRunResult& scalar,
                             const JumpRunResult& lane,
                             const std::string& where) {
  expect_same_result(scalar, lane, where);
  EXPECT_EQ(scalar.effective_steps, lane.effective_steps) << where;
  EXPECT_EQ(scalar.mode_switches, lane.mode_switches) << where;
}

// The jump kernel refuses a traced run and a plane built over another graph
// (with one rng per plane the old lane-count mismatch cannot arise).
TEST(BatchJump, RejectsTracingAndMismatchedRngs) {
  const Graph graph = make_cycle(6);
  Rng rng(Rng::retry_seed(7, 0, 0));
  OpinionPlane plane(graph, uniform_random_opinions(6, 1, 3, rng));
  RunOptions traced;
  traced.trace_stride = 1;
  EXPECT_THROW(
      run_lane_jump(graph, SelectionScheme::kEdge, plane, rng, traced),
      std::invalid_argument);

  const Graph other = make_cycle(8);
  EXPECT_THROW(run_lane_jump(other, SelectionScheme::kEdge, plane, rng,
                             RunOptions{}),
               std::invalid_argument);
}

// A fired options.cancel drains the lane at its first poll, before any
// step, with the status the token's reason names; the drained lane's
// aggregates still describe its configuration, and an unfired token lets
// the run finish.
TEST(BatchJump, PerLaneCancelDrainsOnlyThatLane) {
  Rng graph_rng(0x78);
  const Graph graph = make_connected_random_regular(32, 4, graph_rng);
  struct Case {
    std::optional<CancelReason> fired;
    RunStatus expected;
  };
  for (const Case& drain :
       {Case{std::nullopt, RunStatus::kCompleted},
        Case{CancelReason::kUser, RunStatus::kCancelled},
        Case{CancelReason::kDeadline, RunStatus::kDeadline}}) {
    Rng rng(Rng::retry_seed(0xc0df, 1, 0));
    OpinionPlane plane(
        graph, uniform_random_opinions(graph.num_vertices(), 1, 5, rng));
    CancelToken token;
    if (drain.fired) {
      token.request(*drain.fired);
    }
    RunOptions options;
    options.cancel = &token;
    const JumpRunResult result =
        run_lane_jump(graph, SelectionScheme::kEdge, plane, rng, options);
    EXPECT_EQ(result.status, drain.expected);
    if (drain.fired) {
      EXPECT_EQ(result.steps, 0u);  // pre-fired: drained before any step
      EXPECT_EQ(result.effective_steps, 0u);
    }
    std::int64_t sum = 0;
    for (const Opinion x : plane.opinions()) sum += x;
    EXPECT_EQ(sum, result.final_sum);
  }
}

// Distributional equivalence on INDEPENDENT seed families (the bit-identity
// suite pins same-seed equality; this pins the ensemble): winner categories
// by chi-square homogeneity, completion times by Kolmogorov-Smirnov, and the
// lane kernel must still actually skip scheduled work.
TEST(BatchJump, WinnerDistributionMatchesScalarJumpEngine) {
  Rng graph_rng(0x23b);
  const Graph graph = make_connected_random_regular(32, 4, graph_rng);
  constexpr int kReplicas = 400;
  constexpr Opinion kLo = 1;
  constexpr Opinion kHi = 3;
  for (const SelectionScheme scheme :
       {SelectionScheme::kVertex, SelectionScheme::kEdge}) {
    DivProcess process(graph, scheme);
    std::vector<std::uint64_t> scalar_winners(kHi - kLo + 1, 0);
    std::vector<double> scalar_steps;
    for (int replica = 0; replica < kReplicas; ++replica) {
      Rng rng(
          Rng::substream_seed(0xbeef, static_cast<std::uint64_t>(replica)));
      OpinionState state(
          graph,
          uniform_random_opinions(graph.num_vertices(), kLo, kHi, rng));
      const JumpRunResult result =
          run_jump(process, state, rng, RunOptions{});
      ASSERT_EQ(result.status, RunStatus::kCompleted);
      ++scalar_winners[static_cast<std::size_t>(*result.winner - kLo)];
      scalar_steps.push_back(static_cast<double>(result.steps));
    }

    MonteCarloOptions mc;
    mc.master_seed = 0xcafe;
    mc.num_threads = 2;
    const auto batch = run_lane_replicas<JumpRunResult>(graph, scheme,
                                                        kReplicas, kLo, kHi, mc);
    ASSERT_TRUE(batch.report.ok());
    std::vector<std::uint64_t> batch_winners(kHi - kLo + 1, 0);
    std::vector<double> batch_steps;
    double scheduled = 0.0;
    double effective = 0.0;
    for (const auto& result : batch.results) {
      ASSERT_TRUE(result.has_value());
      ASSERT_EQ(result->status, RunStatus::kCompleted);
      ++batch_winners[static_cast<std::size_t>(*result->winner - kLo)];
      batch_steps.push_back(static_cast<double>(result->steps));
      scheduled += static_cast<double>(result->steps);
      effective += static_cast<double>(result->effective_steps);
    }
    // The lanes must have spent lazy stretches asleep, not stepped naively
    // throughout.
    EXPECT_LT(effective, 0.8 * scheduled) << to_string(scheme);

    const double chi_p =
        two_sample_chi_square_p(scalar_winners, batch_winners);
    EXPECT_GT(chi_p, 1e-3) << "winner distributions diverge, scheme "
                           << to_string(scheme);
    const double d = two_sample_ks_statistic(scalar_steps, batch_steps);
    const double critical =
        1.95 * std::sqrt(2.0 / static_cast<double>(kReplicas));
    EXPECT_LT(d, critical) << "completion-time ECDFs diverge, scheme "
                           << to_string(scheme);
  }
}

// One-lane jump replicas fill every slot with the scalar run_jump attempt-0
// result across a worker pool.
TEST(BatchDriver, JumpSlotsMatchScalarAttemptZero) {
  Rng graph_rng(0x32);
  const Graph graph = make_connected_random_regular(24, 4, graph_rng);
  constexpr std::size_t kReplicas = 10;
  constexpr std::uint64_t kMaster = 0xfeee;
  RunOptions run_options;

  DivProcess process(graph, SelectionScheme::kVertex);
  std::vector<JumpRunResult> scalar(kReplicas);
  for (std::size_t replica = 0; replica < kReplicas; ++replica) {
    Rng rng(Rng::retry_seed(kMaster, replica, 0));
    OpinionState state(
        graph, uniform_random_opinions(graph.num_vertices(), 1, 4, rng));
    scalar[replica] = run_jump(process, state, rng, run_options);
  }

  MonteCarloOptions mc;
  mc.master_seed = kMaster;
  mc.num_threads = 3;
  const auto batch = run_lane_replicas<JumpRunResult>(
      graph, SelectionScheme::kVertex, kReplicas, 1, 4, mc);

  EXPECT_EQ(batch.report.replicas, kReplicas);
  EXPECT_EQ(batch.report.attempted, kReplicas);
  EXPECT_TRUE(batch.report.ok());
  ASSERT_EQ(batch.results.size(), kReplicas);
  for (std::size_t replica = 0; replica < kReplicas; ++replica) {
    ASSERT_TRUE(batch.results[replica].has_value());
    expect_same_jump_result(scalar[replica], *batch.results[replica],
                            "replica " + std::to_string(replica));
  }
}

// ---------------------------------------------------------------------------
// Lane telemetry: a lane kernel's options.metrics sink must hold what the
// scalar engine writes for the same seed -- every non-wall_* field, entry by
// entry.

void expect_same_metrics(const RunMetrics& scalar, const RunMetrics& lane,
                         const std::string& where) {
  EXPECT_EQ(scalar.scheduled_steps, lane.scheduled_steps) << where;
  EXPECT_EQ(scalar.effective_steps, lane.effective_steps) << where;
  EXPECT_EQ(scalar.lazy_steps_skipped, lane.lazy_steps_skipped) << where;
  EXPECT_EQ(scalar.tracker_rebuilds, lane.tracker_rebuilds) << where;
  EXPECT_EQ(scalar.frozen_tail_steps, lane.frozen_tail_steps) << where;
  EXPECT_EQ(scalar.mode_switches_dropped, lane.mode_switches_dropped)
      << where;
  EXPECT_EQ(scalar.activity_dropped, lane.activity_dropped) << where;
  ASSERT_EQ(scalar.mode_timeline.size(), lane.mode_timeline.size()) << where;
  for (std::size_t i = 0; i < scalar.mode_timeline.size(); ++i) {
    const ModeSwitch& a = scalar.mode_timeline[i];
    const ModeSwitch& b = lane.mode_timeline[i];
    const std::string entry = where + " switch " + std::to_string(i);
    EXPECT_EQ(a.step, b.step) << entry;
    EXPECT_EQ(a.jump_mode, b.jump_mode) << entry;
    EXPECT_EQ(a.active_probability, b.active_probability) << entry;
    EXPECT_EQ(a.discordant_pairs, b.discordant_pairs) << entry;
  }
  ASSERT_EQ(scalar.activity.size(), lane.activity.size()) << where;
  for (std::size_t i = 0; i < scalar.activity.size(); ++i) {
    const ActivitySample& a = scalar.activity[i];
    const ActivitySample& b = lane.activity[i];
    const std::string entry = where + " sample " + std::to_string(i);
    EXPECT_EQ(a.step, b.step) << entry;
    EXPECT_EQ(a.active_probability, b.active_probability) << entry;
    EXPECT_EQ(a.discordant_pairs, b.discordant_pairs) << entry;
  }
}

using LaneInit = std::function<std::vector<Opinion>(unsigned, Rng&)>;
using LaneSinkConfig = std::function<void(unsigned, RunMetrics&)>;

// Runs `lanes` scalar replicas (run, or run_jump when `jump`) with a metrics
// sink each, then the same seeds through the lane engine -- run_lane or
// run_lane_jump, one plane per replica, with options.metrics -- and compares
// results and metrics lane by lane.  Returns the scalar metrics so callers
// can check which cases the configuration exercised.
std::vector<RunMetrics> expect_lane_metrics_match(
    bool jump, const Graph& graph, SelectionScheme scheme, unsigned lanes,
    const RunOptions& options, const LaneInit& init,
    const LaneSinkConfig& configure) {
  constexpr std::uint64_t kMaster = 0x3e7a;
  DivProcess process(graph, scheme);
  std::vector<RunMetrics> scalar(lanes);
  for (unsigned lane = 0; lane < lanes; ++lane) {
    const std::string where =
        std::string(to_string(scheme)) + " lane " + std::to_string(lane);
    configure(lane, scalar[lane]);
    Rng rng(Rng::retry_seed(kMaster, lane, 0));
    OpinionState state(graph, init(lane, rng));
    RunOptions scalar_options = options;
    scalar_options.metrics = &scalar[lane];

    RunMetrics metrics;
    configure(lane, metrics);
    Rng lane_rng(Rng::retry_seed(kMaster, lane, 0));
    OpinionPlane plane(graph, init(lane, lane_rng));
    RunOptions lane_options = options;
    lane_options.metrics = &metrics;
    if (jump) {
      expect_same_result(run_jump(process, state, rng, scalar_options),
                         run_lane_jump(graph, scheme, plane, lane_rng,
                                       lane_options),
                         where);
    } else {
      expect_same_result(
          run(process, state, rng, scalar_options),
          run_lane(graph, scheme, plane, lane_rng, lane_options), where);
    }
    expect_same_metrics(scalar[lane], metrics, where);
  }
  return scalar;
}

std::vector<Opinion> unanimous_but_one(const Graph& graph, unsigned lane) {
  std::vector<Opinion> opinions(graph.num_vertices(), 2);
  opinions[lane % graph.num_vertices()] = 3;
  return opinions;
}

// run_lane's options.metrics sink carries run()'s telemetry: one naive
// timeline entry at step 0 (dropped into mode_switches_dropped under
// max_samples == 0) and the lane's scheduled steps, for lanes satisfied at
// step 0, lanes that complete, and lanes the step cap stops.
TEST(BatchEngine, PerLaneMetricsMatchScalarRun) {
  Rng graph_rng(0x51c);
  const Graph graph = make_connected_random_regular(48, 4, graph_rng);
  RunOptions options;
  options.max_steps = 1000;
  const LaneInit init = [&graph](unsigned lane, Rng& rng) {
    if (lane == 0) {
      return std::vector<Opinion>(graph.num_vertices(), 3);
    }
    if (lane % 2 == 1) {
      return unanimous_but_one(graph, lane);
    }
    return uniform_random_opinions(graph.num_vertices(), 1, 8, rng);
  };
  const LaneSinkConfig configure = [](unsigned lane, RunMetrics& metrics) {
    if (lane == 3) {
      metrics.max_samples = 0;
    }
  };
  for (const SelectionScheme scheme :
       {SelectionScheme::kVertex, SelectionScheme::kEdge}) {
    const std::vector<RunMetrics> scalar = expect_lane_metrics_match(
        /*jump=*/false, graph, scheme, /*lanes=*/8, options, init, configure);
    EXPECT_EQ(scalar[0].scheduled_steps, 0u);
    EXPECT_EQ(scalar[3].mode_switches_dropped, 1u);
    std::size_t capped = 0;
    std::size_t completed = 0;
    for (const RunMetrics& metrics : scalar) {
      if (metrics.scheduled_steps == options.max_steps) {
        ++capped;
      } else if (metrics.scheduled_steps > 0) {
        ++completed;
      }
    }
    EXPECT_GT(capped, 0u);
    EXPECT_GT(completed, 0u);
  }
}

// run_lane_jump's options.metrics sink carries run_jump()'s telemetry across
// every exit and mode path: lanes satisfied at step 0 (whose scalar tracker
// still stamps the launch entry, with non-zero activity under the
// two-adjacent rule), a zero budget, mixed dense and lazy lanes on a barbell
// (mode switches, rebuilds, activity samples on jump-mode steps where the
// cumulative effective count, naive changes included, hits the stride),
// tiny max_samples (the *_dropped counters), frozen-capped lanes on a
// disconnected graph and watchdog-capped lanes under a tight budget (both
// booking the remaining stretch as frozen-tail and lazy-skipped steps).
TEST(BatchJump, PerLaneMetricsMatchScalarJump) {
  // Two 24-cliques joined by one edge: clique-internal dense phases
  // alternate with lazy stretches where only the bridge disagrees, so lanes
  // switch modes and resync their trackers many times.
  const Graph graph = make_barbell(24);
  const Graph split(4, {{0, 1}, {2, 3}});
  const VertexId n = graph.num_vertices();
  const LaneInit mixed = [n](unsigned lane, Rng& rng) {
    std::vector<Opinion> opinions(n, 1);
    if (lane == 0) {
      // Satisfied at step 0 under the two-adjacent rule, yet discordant.
      for (VertexId v = 0; v < n; v += 2) {
        opinions[v] = 2;
      }
      return opinions;
    }
    if (lane % 2 == 1) {
      // Lazy: each clique unanimous, the cliques far apart.
      std::fill(opinions.begin() + n / 2, opinions.end(), 8);
      return opinions;
    }
    return uniform_random_opinions(n, 1, 8, rng);
  };
  const LaneSinkConfig sampled = [](unsigned lane, RunMetrics& metrics) {
    metrics.activity_stride = 8;
    if (lane == 3) {
      metrics.max_samples = 2;
    }
  };

  RunOptions consensus;
  RunOptions two_adjacent;
  two_adjacent.stop = StopKind::kTwoAdjacent;
  RunOptions tight;
  tight.max_steps = 20;
  RunOptions capped;
  capped.max_steps = 100000;
  RunOptions no_budget;
  no_budget.max_steps = 0;

  // Totals that show the configurations reached the paths named above.
  std::uint64_t watchdog_tails = 0;
  std::uint64_t frozen_tails = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t dropped = 0;
  std::size_t samples = 0;
  double launch_activity = 0.0;
  const auto tally = [&](const std::vector<RunMetrics>& lanes_metrics) {
    for (const RunMetrics& metrics : lanes_metrics) {
      rebuilds += metrics.tracker_rebuilds;
      dropped += metrics.activity_dropped;
      samples += metrics.activity.size();
    }
  };
  const LaneInit split_init = [](unsigned lane, Rng&) {
    return lane % 2 == 0 ? std::vector<Opinion>{1, 1, 2, 2}
                         : std::vector<Opinion>{1, 2, 2, 1};
  };
  std::uint64_t zero_budget_entries = 0;
  for (const SelectionScheme scheme :
       {SelectionScheme::kVertex, SelectionScheme::kEdge}) {
    tally(expect_lane_metrics_match(/*jump=*/true, graph, scheme, 8,
                                    consensus, mixed, sampled));
    const std::vector<RunMetrics> adjacent = expect_lane_metrics_match(
        /*jump=*/true, graph, scheme, 4, two_adjacent, mixed, sampled);
    tally(adjacent);
    launch_activity += adjacent[0].mode_timeline.at(0).active_probability;
    for (const RunMetrics& metrics :
         expect_lane_metrics_match(/*jump=*/true, graph, scheme, 8,
                                   tight, mixed, sampled)) {
      watchdog_tails += metrics.frozen_tail_steps;
    }
    for (const RunMetrics& metrics :
         expect_lane_metrics_match(/*jump=*/true, split, scheme, 4,
                                   capped, split_init, sampled)) {
      frozen_tails += metrics.frozen_tail_steps;
    }
    for (const RunMetrics& metrics :
         expect_lane_metrics_match(/*jump=*/true, graph, scheme, 4,
                                   no_budget, mixed, sampled)) {
      EXPECT_EQ(metrics.scheduled_steps, 0u);
      zero_budget_entries += metrics.mode_timeline.size();
    }
  }
  EXPECT_GT(watchdog_tails, 0u);
  EXPECT_GT(frozen_tails, 0u);
  EXPECT_GT(rebuilds, 0u);
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(samples, 0u);
  EXPECT_GT(launch_activity, 0.0);
  EXPECT_GT(zero_budget_entries, 0u);
}

// ---------------------------------------------------------------------------
// Seeded randomized parity: both lane kernels against their scalar oracles
// over fuzzed configurations, modelled on SchedulerPropertyTest.  Each round
// draws a small graph (n <= 64), a scheme, a stop rule, an opinion count
// k <= 300 (so some planes hold full-width cells), a start (uniform, one
// vertex off unanimity, or unanimous) and a step cap from {0, 1, 31, 32, 33,
// random} -- the fixed caps straddle the 32-step draw block -- then asserts
// run_lane == run(DivProcess) and run_lane_jump == run_jump on every result
// field, the final opinions and the next rng word.

// Two disjoint cliques: discordance can die out with the stop rule unmet,
// so jump rounds reach the frozen cap.
Graph disjoint_cliques(VertexId half) {
  std::vector<Edge> edges;
  for (VertexId base : {VertexId{0}, half}) {
    for (VertexId u = 0; u < half; ++u) {
      for (VertexId v = u + 1; v < half; ++v) {
        edges.push_back({base + u, base + v});
      }
    }
  }
  return Graph(2 * half, std::move(edges));
}

Graph fuzzed_graph(Rng& rng) {
  const auto below = [&rng](std::uint64_t bound) {
    return static_cast<VertexId>(rng.uniform_below(bound));
  };
  switch (rng.uniform_below(12)) {
    case 0:
      return make_complete(2 + below(63));
    case 1:
      return make_cycle(3 + below(62));
    case 2:
      return make_path(2 + below(63));
    case 3:
      return make_star(2 + below(63));
    case 4:
      return make_hypercube(1 + static_cast<unsigned>(below(6)));
    case 5:
      return make_barbell(2 + below(31));
    case 6:
      return make_grid(2 + below(7), 2 + below(7), false);
    case 7:
      return make_margulis(3 + below(6));
    case 8: {
      const VertexId n = 8 + 2 * below(29);  // even, so any degree fits
      return make_connected_random_regular(n, 3 + below(6), rng);
    }
    case 9:
      return make_connected_gnp(8 + below(57), 0.25 + 0.5 * rng.uniform01(),
                                rng);
    case 10:
      return make_barabasi_albert(4 + below(61), 1 + below(3), rng);
    default:
      return disjoint_cliques(2 + below(31));
  }
}

// Half the rounds take a random cap, long enough for the jump engine's
// 4096-step naive windows to switch modes both ways.
std::uint64_t fuzzed_cap(Rng& rng) {
  constexpr std::uint64_t kFixed[] = {0, 1, 31, 32, 33};
  const std::uint64_t pick = rng.uniform_below(10);
  return pick < 5 ? kFixed[pick] : rng.uniform_below(1 << 18);
}

std::vector<Opinion> fuzzed_start(VertexId n, Opinion k, Rng& rng) {
  switch (rng.uniform_below(6)) {
    case 0: {  // one vertex one level above an otherwise unanimous graph
      std::vector<Opinion> opinions(n, 1);
      opinions[static_cast<VertexId>(rng.uniform_below(n))] = 2;
      return opinions;
    }
    case 1:
      return std::vector<Opinion>(n, k);
    case 2: {  // two unanimous halves: lazy until the boundary churns
      std::vector<Opinion> opinions(n, 1);
      std::fill(opinions.begin() + n / 2, opinions.end(), k);
      return opinions;
    }
    default:
      return uniform_random_opinions(n, 1, k, rng);
  }
}

// Every RunResult field, the trace and fault included.
void expect_identical_runs(const RunResult& scalar, const RunResult& lane) {
  expect_same_result(scalar, lane, "result");
  EXPECT_EQ(scalar.fault, lane.fault);
  EXPECT_EQ(scalar.trace.samples().size(), lane.trace.samples().size());
}

TEST(LaneKernelPropertyTest, SeededRoundsMatchScalarEngines) {
  std::size_t mid_block_stops = 0;
  std::size_t capped = 0;
  std::size_t wide = 0;
  std::size_t round_trips = 0;  // jump rounds that left jump mode and came back
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    SCOPED_TRACE("round seed " + std::to_string(seed));
    Rng round(seed);
    const Graph graph = fuzzed_graph(round);
    const SelectionScheme scheme = round.uniform_below(2) == 0
                                       ? SelectionScheme::kVertex
                                       : SelectionScheme::kEdge;
    RunOptions options;
    options.stop = round.uniform_below(3) == 0 ? StopKind::kTwoAdjacent
                                               : StopKind::kConsensus;
    constexpr Opinion kBands[][2] = {{1, 3}, {2, 9}, {10, 69}, {257, 300}};
    const auto& band = kBands[round.uniform_below(4)];
    const Opinion k = band[0] + static_cast<Opinion>(round.uniform_below(
                                    static_cast<std::uint64_t>(
                                        band[1] - band[0] + 1)));
    options.max_steps = fuzzed_cap(round);
    const std::vector<Opinion> start =
        fuzzed_start(graph.num_vertices(), k, round);
    const std::uint64_t stream = round.next();
    DivProcess process(graph, scheme);

    // The step engine.
    Rng scalar_rng(stream);
    OpinionState state(graph, start);
    const RunResult scalar = run(process, state, scalar_rng, options);
    Rng lane_rng(stream);
    OpinionPlane plane(graph, start);
    const RunResult lane = run_lane(graph, scheme, plane, lane_rng, options);
    expect_identical_runs(scalar, lane);
    const std::vector<Opinion> lane_final = plane.opinions();
    EXPECT_TRUE(std::equal(state.opinions().begin(), state.opinions().end(),
                           lane_final.begin()));
    EXPECT_EQ(scalar_rng.next(), lane_rng.next());
    if (lane.completed && lane.steps % 32 != 0 &&
        lane.steps != options.max_steps) {
      ++mid_block_stops;
    }
    capped += lane.status == RunStatus::kCapped;
    wide += plane.cell_bytes() == sizeof(Opinion);

    // The jump engine on the same configuration and stream.
    Rng jump_rng(stream);
    OpinionState jump_state(graph, start);
    const JumpRunResult scalar_jump =
        run_jump(process, jump_state, jump_rng, options);
    Rng lane_jump_rng(stream);
    OpinionPlane jump_plane(graph, start);
    const JumpRunResult lane_jump =
        run_lane_jump(graph, scheme, jump_plane, lane_jump_rng, options);
    expect_identical_runs(scalar_jump, lane_jump);
    EXPECT_EQ(scalar_jump.effective_steps, lane_jump.effective_steps);
    EXPECT_EQ(scalar_jump.mode_switches, lane_jump.mode_switches);
    const std::vector<Opinion> jump_final = jump_plane.opinions();
    EXPECT_TRUE(std::equal(jump_state.opinions().begin(),
                           jump_state.opinions().end(), jump_final.begin()));
    EXPECT_EQ(jump_rng.next(), lane_jump_rng.next());
    capped += lane_jump.status == RunStatus::kCapped;
    round_trips += lane_jump.mode_switches >= 2;
    if (HasFailure()) {
      return;  // the trace above names the first failing round
    }
  }
  // The rounds must reach the paths the kernels special-case.
  EXPECT_GE(mid_block_stops, 100u);
  EXPECT_GE(capped, 100u);
  EXPECT_GE(wide, 50u);
  EXPECT_GE(round_trips, 10u);
}

}  // namespace
}  // namespace divlib
