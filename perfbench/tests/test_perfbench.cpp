// The benchmark's own tests: seeded inputs, trace arithmetic, the oracle.
//
//   python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "inputs.h"
#include "oracle.h"
#include "sampling/dataset_view.h"
#include "serve/model_v3.h"
#include "server/protocol.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace sv = spire::server;

/// The whole collected suite, once per test binary.
const Suite& suite() {
  static const Suite collected = collect_suite(4);
  return collected;
}

TEST(Inputs, SuiteCollectionDoesNotDependOnThreads) {
  const Suite a = collect_suite(3, 1'000'000, 3);
  const Suite b = collect_suite(1, 1'000'000, 3);
  ASSERT_EQ(a.members.size(), 3u);
  for (std::size_t m = 0; m < a.members.size(); ++m) {
    EXPECT_EQ(to_csv(a.members[m]), to_csv(b.members[m])) << "member " << m;
  }
  EXPECT_EQ(a.training, b.training);
}

TEST(Inputs, SameSeedGivesByteIdenticalInputs) {
  for (const char* name : {"bin-distinct", "text-hot", "swap-churn"}) {
    SCOPED_TRACE(name);
    const WorkloadSpec* spec = find_workload(name);
    ASSERT_NE(spec, nullptr);
    const Inputs a = make_inputs(*spec, suite(), 7, 2, 4);
    const Inputs b = make_inputs(*spec, suite(), 7, 2, 1);
    EXPECT_EQ(a.bodies, b.bodies);
    EXPECT_EQ(a.pairs, b.pairs);
    EXPECT_EQ(a.schedule, b.schedule);
    ASSERT_EQ(a.models.size(), b.models.size());
    for (std::size_t m = 0; m < a.models.size(); ++m) {
      EXPECT_EQ(spire::serve::model_v3_bytes(a.models[m]),
                spire::serve::model_v3_bytes(b.models[m]));
    }
  }
}

TEST(Inputs, DifferentSeedGivesDifferentInputs) {
  const WorkloadSpec* spec = find_workload("text-hot");
  ASSERT_NE(spec, nullptr);
  const Inputs a = make_inputs(*spec, suite(), 7, 0, 4);
  const Inputs b = make_inputs(*spec, suite(), 8, 0, 4);
  ASSERT_EQ(a.bodies.size(), b.bodies.size());
  std::size_t same = 0;
  for (std::size_t i = 0; i < a.bodies.size(); ++i) {
    same += a.bodies[i] == b.bodies[i];
  }
  // Two seeds may draw the same windows of a small member now and then.
  EXPECT_LT(same, a.bodies.size() / 20);
  EXPECT_NE(a.schedule, b.schedule);
  EXPECT_NE(spire::serve::model_v3_bytes(a.models[0]),
            spire::serve::model_v3_bytes(b.models[0]));
}

TEST(Inputs, ProfileDrawsAreDistinctWindowRunsOfSuiteMembers) {
  const std::vector<WindowDraw> draws = draw_profiles(suite(), 3, 600);
  std::set<std::string> bodies;
  for (std::size_t i = 0; i < draws.size(); ++i) {
    const WindowDraw& draw = draws[i];
    EXPECT_EQ(draw.member, i % 27);  // members take turns, in suite order
    const spire::sampling::Dataset& member = suite().members[draw.member];
    const spire::sampling::Dataset profile = make_profile(suite(), draw);
    const std::size_t windows = member.size() / member.metrics().size();
    EXPECT_EQ(profile.metrics(), member.metrics());
    EXPECT_EQ(profile.size(), draw.windows * member.metrics().size());
    EXPECT_LE(draw.windows, windows);
    EXPECT_GE(draw.windows + std::max<std::size_t>(2, windows / 8), windows);
    bodies.insert(to_csv(profile));
  }
  EXPECT_EQ(bodies.size(), draws.size());
  EXPECT_THROW(draw_profiles(suite(), 3, 1'000'000), std::invalid_argument);
}

TEST(Inputs, TheSuiteHasTheCollectedShape) {
  ASSERT_EQ(suite().members.size(), 27u);
  std::size_t samples = 0;
  for (const auto& member : suite().members) {
    EXPECT_EQ(member.metrics().size(), 85u);
    samples += member.size();
  }
  EXPECT_GT(samples / 27, 6500u);
  EXPECT_LT(samples / 27, 8500u);
  const spire::model::Ensemble model = make_model(suite(), 3, 0);
  EXPECT_EQ(model.metric_count(), 85u);
}

TEST(Inputs, RequestHeadAndBodyFormTheEncodedPayload) {
  const std::string csv =
      to_csv(make_profile(suite(), draw_profiles(suite(), 3, 1)[0]));
  const RequestKind kind = make_kind(false, "0123456789abcdef", csv);
  const sv::EstimateRequest decoded = sv::decode_estimate_request(
      kind.head + std::string(kind.body), sv::Limits{});
  EXPECT_EQ(decoded.model_id, "0123456789abcdef");
  ASSERT_EQ(decoded.workload_csvs.size(), 1u);
  EXPECT_EQ(decoded.workload_csvs[0], csv);
}

TEST(Trace, PercentileIsNearestRank) {
  const std::vector<double> v = {5, 1, 4, 2, 3, 10, 9, 8, 7, 6};
  EXPECT_EQ(percentile(v, 50), 5);
  EXPECT_EQ(percentile(v, 90), 9);
  EXPECT_EQ(percentile(v, 99), 10);
  EXPECT_EQ(percentile(v, 100), 10);
  EXPECT_EQ(percentile(v, 1), 1);
  EXPECT_EQ(percentile({}, 50), 0);
  EXPECT_EQ(percentile({42}, 99), 42);
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren) {
  Trace t;
  const std::size_t root = t.add({"request", 1, -1, 1000, 2000});
  // Children overlap each other and one sticks out past the parent.
  t.add({"a", 1, static_cast<std::int64_t>(root), 1100, 1300});
  t.add({"b", 1, static_cast<std::int64_t>(root), 1200, 1400});
  t.add({"c", 1, static_cast<std::int64_t>(root), 1900, 2500});
  // Covered: [1100, 1400) and [1900, 2000) -> 400 of 1000.
  EXPECT_EQ(t.self_ns(root), 600);
  EXPECT_EQ(t.self_ns(1), 200);
}

TEST(Trace, ReplayedStagesGiveTheResidual) {
  Trace t;
  const std::size_t r1 = t.add({"request", 1, -1, 0, 1000});
  t.add_replayed(r1, "decode", 100);
  t.add_replayed(r1, "kernel", 300);
  t.add_replayed(r1, "encode", 50);
  const std::size_t r2 = t.add({"request", 2, -1, 5000, 5400});
  t.add_replayed(r2, "decode", 100);
  t.add_replayed(r2, "kernel", 500);  // replay slower than the request
  // Stages are laid end to end from the root's start.
  EXPECT_EQ(t.spans()[2].start_ns, 100);
  EXPECT_EQ(t.spans()[3].start_ns, 400);
  // The roots' self times are the residuals.
  EXPECT_EQ(t.self_ns(r1), 550);
  EXPECT_EQ(t.self_ns(r2), 0);
  EXPECT_EQ(t.self_us("kernel"), (std::vector<double>{0.3, 0.5}));
  EXPECT_EQ(percentile(t.self_us("decode"), 50), 0.1);
}

TEST(Oracle, AcceptsTheExactReply) {
  const auto model = make_model(suite(), 5, 0);
  const auto profile = make_profile(suite(), draw_profiles(suite(), 5, 1)[0]);
  const sv::WorkloadResult want =
      expected_result(model, spire::sampling::DatasetView(profile));
  ASSERT_EQ(want.status, sv::ErrorCode::kOk);
  EXPECT_EQ(want.ranking.size(), sv::Limits{}.max_ranking);
  const sv::WorkloadResult got = sv::decode_workload_result(
      sv::encode_workload_result(want, sv::Limits{}), sv::Limits{});
  EXPECT_EQ(compare_result(got, want), "");
}

TEST(Oracle, RejectsAReplyWithOneFlippedBit) {
  const auto model = make_model(suite(), 5, 1);
  const auto profile = make_profile(suite(), draw_profiles(suite(), 5, 2)[1]);
  const sv::WorkloadResult want =
      expected_result(model, spire::sampling::DatasetView(profile));
  const std::string bytes = sv::encode_workload_result(want, sv::Limits{});
  std::size_t undecodable = 0;
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    std::string flipped = bytes;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    sv::WorkloadResult got;
    try {
      got = sv::decode_workload_result(flipped, sv::Limits{});
    } catch (const sv::ProtocolError&) {
      ++undecodable;  // the run rejects an undecodable reply as well
      continue;
    }
    EXPECT_NE(compare_result(got, want), "") << "bit " << bit;
  }
  EXPECT_LT(undecodable, bytes.size() * 8);
}

TEST(Oracle, ComparesThroughputBitsNotValues) {
  sv::WorkloadResult want;
  want.throughput = 0.0;
  sv::WorkloadResult got = want;
  got.throughput = -0.0;  // equal as doubles, different bits
  EXPECT_NE(compare_result(got, want), "");
}

}  // namespace
}  // namespace perfbench
