#include "sampling/collector.h"
#include "sampling/dataset.h"
#include "sampling/sample.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "workloads/profile_stream.h"

namespace spire::sampling {
namespace {

using counters::Event;

TEST(Sample, DerivedQuantities) {
  const Sample s{100.0, 250.0, 50.0};
  EXPECT_DOUBLE_EQ(s.throughput(), 2.5);
  EXPECT_DOUBLE_EQ(s.intensity(), 5.0);
}

TEST(Sample, ZeroMetricGivesInfiniteIntensity) {
  const Sample s{100.0, 250.0, 0.0};
  EXPECT_TRUE(std::isinf(s.intensity()));
}

TEST(Dataset, AddAndQuery) {
  Dataset d;
  EXPECT_TRUE(d.empty());
  d.add(Event::kIdqDsbUops, {1.0, 2.0, 3.0});
  d.add(Event::kIdqDsbUops, {4.0, 5.0, 6.0});
  d.add(Event::kLsdUops, {7.0, 8.0, 9.0});
  EXPECT_EQ(d.size(), 3u);
  EXPECT_EQ(d.samples(Event::kIdqDsbUops).size(), 2u);
  EXPECT_TRUE(d.samples(Event::kBaclearsAny).empty());
  EXPECT_EQ(d.metrics().size(), 2u);
}

TEST(Dataset, MetricsInCatalogOrder) {
  Dataset d;
  d.add(Event::kLsdUops, {1.0, 1.0, 1.0});
  d.add(Event::kIdqDsbUops, {1.0, 1.0, 1.0});
  const auto metrics = d.metrics();
  ASSERT_EQ(metrics.size(), 2u);
  EXPECT_EQ(metrics[0], Event::kIdqDsbUops);  // earlier in the catalog
  EXPECT_EQ(metrics[1], Event::kLsdUops);
}

TEST(Dataset, MergeCombines) {
  Dataset a;
  a.add(Event::kIdqDsbUops, {1.0, 1.0, 1.0});
  Dataset b;
  b.add(Event::kIdqDsbUops, {2.0, 2.0, 2.0});
  b.add(Event::kLsdUops, {3.0, 3.0, 3.0});
  a.merge(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.samples(Event::kIdqDsbUops).size(), 2u);
}

TEST(Dataset, CsvRoundTrip) {
  Dataset d;
  d.add(Event::kIdqDsbUops, {100.5, 250.25, 50.125});
  d.add(Event::kBaclearsAny, {1e9, 2.5e9, 0.0});
  std::stringstream buf;
  d.save_csv(buf);
  const Dataset loaded = Dataset::load_csv(buf);
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.samples(Event::kIdqDsbUops)[0], (Sample{100.5, 250.25, 50.125}));
  EXPECT_EQ(loaded.samples(Event::kBaclearsAny)[0], (Sample{1e9, 2.5e9, 0.0}));
}

TEST(Dataset, LoadRejectsBadInput) {
  std::istringstream bad_header("nope\n1,2,3,4\n");
  EXPECT_THROW(Dataset::load_csv(bad_header), std::runtime_error);
  std::istringstream unknown_metric("metric,t,w,m\nfake.event,1,2,3\n");
  EXPECT_THROW(Dataset::load_csv(unknown_metric), std::runtime_error);
  std::istringstream bad_number("metric,t,w,m\nidq.dsb_uops,abc,2,3\n");
  EXPECT_THROW(Dataset::load_csv(bad_number), std::runtime_error);
  std::istringstream short_row("metric,t,w,m\nidq.dsb_uops,1,2\n");
  EXPECT_THROW(Dataset::load_csv(short_row), std::runtime_error);
}

std::string load_error(std::string_view csv) {
  try {
    (void)Dataset::load_csv(csv);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "(loaded)";
}

TEST(Dataset, LoadErrorsNameTheFaultExactly) {
  EXPECT_EQ(load_error("nope\n1,2,3,4\n"), "dataset: unexpected header 'nope'");
  EXPECT_EQ(load_error("metric,t,w,m\nfake.event,1,2,3\n"),
            "dataset: unknown metric 'fake.event'");
  EXPECT_EQ(load_error("metric,t,w,m\nidq.dsb_uops,1,2\n"),
            "dataset: short row 'idq.dsb_uops,1,2'");
  EXPECT_EQ(load_error("metric,t,w,m\nidq.dsb_uops,1,2,3,4\n"),
            "dataset: long row 'idq.dsb_uops,1,2,3,4'");
  EXPECT_EQ(load_error("metric,t,w,m\nidq.dsb_uops,abc,2,3\n"),
            "dataset: bad t value 'abc' in row 'idq.dsb_uops,abc,2,3'");
  EXPECT_EQ(load_error("metric,t,w,m\nidq.dsb_uops,1,2x,3\n"),
            "dataset: bad w value '2x' in row 'idq.dsb_uops,1,2x,3'");
  EXPECT_EQ(load_error("metric,t,w,m\nidq.dsb_uops,1,2,\r\n"),
            "dataset: bad m value '' in row 'idq.dsb_uops,1,2,'");
  // A fault past the first row, inside a run of a known metric.
  EXPECT_EQ(
      load_error("metric,t,w,m\nidq.dsb_uops,1,2,3\nidq.dsb_uops,1,+2,3\n"),
      "dataset: bad w value '+2' in row 'idq.dsb_uops,1,+2,3'");
  EXPECT_EQ(load_error("metric,t,w,m\nidq.dsb_uops,1,2,3\nidq.dsb_uops,1,2\n"),
            "dataset: short row 'idq.dsb_uops,1,2'");
  // A row with several faults reports its shape, then its metric, then
  // its first bad value.
  EXPECT_EQ(load_error("metric,t,w,m\nfake.event,1,2\n"),
            "dataset: short row 'fake.event,1,2'");
  EXPECT_EQ(load_error("metric,t,w,m\nidq.dsb_uops,x,2,3,4\n"),
            "dataset: long row 'idq.dsb_uops,x,2,3,4'");
  EXPECT_EQ(load_error("metric,t,w,m\nfake.event,x,2,3\n"),
            "dataset: unknown metric 'fake.event'");
  EXPECT_EQ(load_error("metric,t,w,m\nidq.dsb_uops,x,y,z\n"),
            "dataset: bad t value 'x' in row 'idq.dsb_uops,x,y,z'");
  EXPECT_EQ(load_error("metric,t,w,m\n\r\r\n"), "dataset: short row '\r'");
}

void expect_exact_capacity(const Dataset& d) {
  for (const auto& info : counters::event_catalog()) {
    const auto& series = d.samples(info.event);
    EXPECT_EQ(series.capacity(), series.size()) << info.name;
  }
}

TEST(Dataset, LoadTakesCrlfBlankLinesAndAFinalRowWithoutNewline) {
  const Dataset d = Dataset::load_csv(std::string_view(
      "metric,t,w,m\r\n"
      "\n"
      "idq.dsb_uops,1,2,3\r\n"
      "\r\n"
      "idq.dsb_uops,4.5,-6,0.25\n"
      "\n"
      "lsd.uops,7,8,9"));
  ASSERT_EQ(d.size(), 3u);
  const auto& dsb = d.samples(Event::kIdqDsbUops);
  ASSERT_EQ(dsb.size(), 2u);
  EXPECT_EQ(dsb[0], (Sample{1.0, 2.0, 3.0}));
  EXPECT_EQ(dsb[1], (Sample{4.5, -6.0, 0.25}));
  EXPECT_EQ(d.samples(Event::kLsdUops)[0], (Sample{7.0, 8.0, 9.0}));
  expect_exact_capacity(d);
  EXPECT_TRUE(Dataset::load_csv(std::string_view("")).empty());
  EXPECT_TRUE(Dataset::load_csv(std::string_view("metric,t,w,m")).empty());
}

TEST(Dataset, LoadAppendsAMetricWhoseRowsArriveInTwoRuns) {
  const Dataset d = Dataset::load_csv(std::string_view(
      "metric,t,w,m\n"
      "idq.dsb_uops,1,1,1\n"
      "idq.dsb_uops,2,2,2\n"
      "lsd.uops,3,3,3\n"
      "idq.dsb_uops,4,4,4\n"
      "idq.dsb_uops,5,5,1e3\n"));
  const auto& dsb = d.samples(Event::kIdqDsbUops);
  ASSERT_EQ(dsb.size(), 4u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(dsb[i].t, static_cast<double>(i < 2 ? i + 1 : i + 2));
  }
  EXPECT_EQ(dsb[3], (Sample{5.0, 5.0, 1000.0}));
  EXPECT_EQ(d.samples(Event::kLsdUops).size(), 1u);
  expect_exact_capacity(d);
}

TEST(Dataset, IstreamLoadEqualsInPlaceLoadAcrossReadChunks) {
  // Large enough that the stream is read in several chunks.
  Dataset d;
  for (int i = 0; i < 20000; ++i) {
    d.add(i % 3 == 0 ? Event::kLsdUops : Event::kIdqDsbUops,
          {50000.0, 1.0 + i, i * 0.125});
  }
  std::stringstream buf;
  d.save_csv(buf);
  const std::string text = buf.str();
  ASSERT_GT(text.size(), 3u * 64 * 1024);
  const Dataset from_stream = Dataset::load_csv(buf);
  const Dataset in_place = Dataset::load_csv(std::string_view(text));
  for (const Event e : {Event::kLsdUops, Event::kIdqDsbUops}) {
    EXPECT_EQ(from_stream.samples(e), d.samples(e));
    EXPECT_EQ(in_place.samples(e), d.samples(e));
  }
  expect_exact_capacity(from_stream);
  expect_exact_capacity(in_place);
}

TEST(Collector, ConfigValidation) {
  CollectorConfig bad;
  bad.window_cycles = 0;
  EXPECT_THROW(SampleCollector{bad}, std::invalid_argument);
  CollectorConfig bad2;
  bad2.group_size = 0;
  EXPECT_THROW(SampleCollector{bad2}, std::invalid_argument);
}

workloads::WorkloadProfile test_profile() {
  workloads::WorkloadProfile p;
  p.instruction_count = 400000;
  p.load_fraction = 0.2;
  p.branch_fraction = 0.1;
  p.seed = 42;
  return p;
}

TEST(Collector, ProducesOneSamplePerMetricPerWindow) {
  workloads::ProfileStream stream(test_profile());
  sim::Core core(sim::CoreConfig{}, stream);
  CollectorConfig cc;
  cc.window_cycles = 20000;
  cc.slice_cycles = 1000;
  cc.metrics = {Event::kIdqDsbUops, Event::kBrMispRetiredAllBranches,
                Event::kCycleActivityStallsTotal};
  cc.group_size = 1;
  SampleCollector collector(cc);
  Dataset d;
  const auto stats = collector.collect(core, d, 100000);
  EXPECT_EQ(stats.windows, 5u);
  EXPECT_EQ(d.samples(Event::kIdqDsbUops).size(), 5u);
  EXPECT_EQ(d.samples(Event::kBrMispRetiredAllBranches).size(), 5u);
  EXPECT_EQ(stats.samples, 15u);
  EXPECT_GT(stats.group_switches, 0u);
  EXPECT_GT(stats.overhead_fraction(), 0.0);
  EXPECT_LT(stats.overhead_fraction(), 0.2);
}

TEST(Collector, SamplesShareWindowTimeAndWork) {
  workloads::ProfileStream stream(test_profile());
  sim::Core core(sim::CoreConfig{}, stream);
  CollectorConfig cc;
  cc.window_cycles = 30000;
  cc.metrics = {Event::kIdqDsbUops, Event::kLsdUops, Event::kBaclearsAny};
  cc.group_size = 1;
  SampleCollector collector(cc);
  Dataset d;
  collector.collect(core, d, 90000);
  const auto& a = d.samples(Event::kIdqDsbUops);
  const auto& b = d.samples(Event::kLsdUops);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].t, b[i].t);
    EXPECT_DOUBLE_EQ(a[i].w, b[i].w);
    EXPECT_DOUBLE_EQ(a[i].t, 30000.0);
  }
}

TEST(Collector, MultiplexScalingApproximatesFullCounts) {
  // Collect the same workload twice: once with the metric always enabled
  // (one group) and once multiplexed across dummy groups. The scaled
  // estimates should track the dedicated measurement within noise.
  const auto run = [](int group_size, std::vector<Event> metrics) {
    workloads::ProfileStream stream(test_profile());
    sim::Core core(sim::CoreConfig{}, stream);
    CollectorConfig cc;
    cc.window_cycles = 50000;
    cc.slice_cycles = 1000;
    cc.metrics = std::move(metrics);
    cc.group_size = group_size;
    SampleCollector collector(cc);
    Dataset d;
    collector.collect(core, d, 400000);
    double total = 0.0;
    for (const Sample& s : d.samples(Event::kBrInstRetiredAllBranches)) {
      total += s.m;
    }
    return total;
  };
  const double dedicated =
      run(3, {Event::kBrInstRetiredAllBranches, Event::kIdqDsbUops,
              Event::kLsdUops});
  const double multiplexed =
      run(1, {Event::kBrInstRetiredAllBranches, Event::kIdqDsbUops,
              Event::kLsdUops});
  ASSERT_GT(dedicated, 0.0);
  EXPECT_NEAR(multiplexed / dedicated, 1.0, 0.1);
}

TEST(Collector, StopsWhenWorkloadFinishes) {
  auto profile = test_profile();
  profile.instruction_count = 20000;
  workloads::ProfileStream stream(profile);
  sim::Core core(sim::CoreConfig{}, stream);
  SampleCollector collector((CollectorConfig()));
  Dataset d;
  const auto stats = collector.collect(core, d, 100'000'000);
  EXPECT_TRUE(core.done());
  EXPECT_EQ(stats.instructions, 20000u);
}

TEST(Collector, DefaultsToAllMetricEvents) {
  workloads::ProfileStream stream(test_profile());
  sim::Core core(sim::CoreConfig{}, stream);
  SampleCollector collector((CollectorConfig()));
  Dataset d;
  collector.collect(core, d, 120000);
  EXPECT_EQ(d.metrics().size(), counters::metric_events().size());
}

TEST(Dataset, LoadReservesEverySeriesOfACollectedProfileExactly) {
  workloads::ProfileStream stream(test_profile());
  sim::Core core(sim::CoreConfig{}, stream);
  SampleCollector collector((CollectorConfig()));
  Dataset collected;
  collector.collect(core, collected, 400000);
  std::stringstream buf;
  collected.save_csv(buf);
  const Dataset d = Dataset::load_csv(std::string_view(buf.str()));
  EXPECT_EQ(d.size(), collected.size());
  EXPECT_GT(d.metrics().size(), 10u);
  expect_exact_capacity(d);
}

}  // namespace
}  // namespace spire::sampling
