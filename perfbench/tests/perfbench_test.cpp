// Unit tests of the harness's own arithmetic: rank percentiles and their
// sample guard, the seeded service schedule, and span self time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

#include "harness.h"
#include "schedule.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(RankPercentile, NearestRankIsCeilingOfQTimesN) {
  EXPECT_EQ(nearest_rank(100, 50), 50u);
  EXPECT_EQ(nearest_rank(101, 50), 51u);
  EXPECT_EQ(nearest_rank(1000, 99), 990u);
  EXPECT_EQ(nearest_rank(999, 99), 990u);  // ceil(989.01)
  EXPECT_EQ(nearest_rank(7, 100), 7u);
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(samples_beyond(999, 99), 9u);
  EXPECT_THROW(nearest_rank(10, 0), std::invalid_argument);
  EXPECT_THROW(nearest_rank(10, 101), std::invalid_argument);
}

TEST(RankPercentile, PicksTheRankedSampleRegardlessOfOrder) {
  std::vector<double> v = one_to(200);
  std::reverse(v.begin(), v.end());
  const Percentile p50 = rank_percentile(v, 50, "x");
  EXPECT_EQ(p50.value, 100.0);
  EXPECT_EQ(p50.samples, 200u);
  EXPECT_EQ(p50.beyond, 100u);
  const Percentile p90 = rank_percentile(v, 90, "x");
  EXPECT_EQ(p90.value, 180.0);
  EXPECT_EQ(p90.beyond, 20u);
}

TEST(RankPercentile, RefusesFewerThanTenSamplesBeyond) {
  // p99 over 1000 samples leaves exactly 10 beyond: allowed.
  EXPECT_EQ(rank_percentile(one_to(1000), 99, "x").value, 990.0);
  // Over 999 only 9 lie beyond: refused, like p90 over 99 samples.
  EXPECT_THROW(rank_percentile(one_to(999), 99, "x"), TooFewSamples);
  EXPECT_THROW(rank_percentile(one_to(99), 90, "x"), TooFewSamples);
  EXPECT_EQ(rank_percentile(one_to(100), 90, "x").value, 90.0);
  EXPECT_THROW(rank_percentile({}, 50, "x"), TooFewSamples);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(ServiceSchedule, SameSeedSameSchedule) {
  const auto a = make_service_schedule(7, 900, 64);
  const auto b = make_service_schedule(7, 900, 64);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << i;
    EXPECT_EQ(a[i].doc, b[i].doc) << i;
  }
  const auto c = make_service_schedule(8, 900, 64);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i)
    differs = differs || a[i].kind != c[i].kind || a[i].doc != c[i].doc;
  EXPECT_TRUE(differs);
}

TEST(ServiceSchedule, ExactQuotasAndFreshOrdinals) {
  const auto schedule = make_service_schedule(3, 900, 64);
  std::size_t count[kRequestKinds] = {};
  std::set<std::uint64_t> fresh;
  for (const ScheduledRequest& r : schedule) {
    ++count[static_cast<std::size_t>(r.kind)];
    if (r.kind == RequestKind::hit) {
      EXPECT_LT(r.doc, 64u);
    } else if (r.kind != RequestKind::status) {
      EXPECT_TRUE(fresh.insert(r.doc).second) << "fresh doc sent twice";
    }
  }
  EXPECT_EQ(count[0], 400u);  // hit
  EXPECT_EQ(count[1], 200u);  // compute
  EXPECT_EQ(count[2], 100u);  // job
  EXPECT_EQ(count[3], 200u);  // status
  EXPECT_EQ(fresh_documents(schedule), 300u);
  EXPECT_EQ(*fresh.rbegin(), 299u);
}

TEST(ServiceSchedule, QuotasAddUpForAnyCount) {
  for (std::size_t n : {1u, 8u, 10u, 901u}) {
    const auto schedule = make_service_schedule(1, n, 4);
    EXPECT_EQ(schedule.size(), n);
  }
  EXPECT_THROW(make_service_schedule(1, 10, 0), std::invalid_argument);
}

Span make_span(int parent, std::uint64_t start, std::uint64_t end,
               const char* name = "s") {
  Span s;
  s.name = name;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SpanSelfTime, SubtractsTheUnionOfChildrenClippedToTheParent) {
  const std::vector<Span> spans = {
      make_span(-1, 0, 100, "root"),
      make_span(0, 10, 30, "a"),    // overlaps the next child
      make_span(0, 20, 50, "b"),
      make_span(0, 90, 120, "c"),   // runs past the parent: clipped
      make_span(2, 25, 45, "leaf"),
  };
  const std::vector<double> self = self_seconds(spans);
  // Children cover [10,50) and [90,100): 50 ns of the root's 100.
  EXPECT_NEAR(self[0], 50e-9, 1e-15);
  EXPECT_NEAR(self[1], 20e-9, 1e-15);
  EXPECT_NEAR(self[2], 10e-9, 1e-15);  // 30 minus its 20 ns leaf
  EXPECT_NEAR(self[3], 30e-9, 1e-15);
  EXPECT_NEAR(self[4], 20e-9, 1e-15);
}

TEST(SpanSelfTime, RecorderNestsAndAppendReindexesParents) {
  SpanRecorder a(true, 0);
  {
    SpanRecorder::Scope outer(a, "outer");
    SpanRecorder::Scope inner(a, "inner");
  }
  SpanRecorder b(true, 1);
  {
    SpanRecorder::Scope outer(b, "outer");
    SpanRecorder::Scope done(b, "done");
  }
  a.append(b);
  const std::vector<Span>& spans = a.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, -1);
  EXPECT_EQ(spans[3].parent, 2);
  EXPECT_EQ(spans[3].thread, 1);
  const auto by_name = self_seconds_by_name(spans);
  EXPECT_EQ(by_name.count("outer"), 1u);
  EXPECT_EQ(by_name.count("inner"), 1u);

  SpanRecorder off(false);
  EXPECT_EQ(off.begin("x"), -1);
  off.end(-1);
  EXPECT_TRUE(off.spans().empty());
}

TEST(DeriveSeed, StreamsDiffer) {
  EXPECT_EQ(derive_seed(5, 1), derive_seed(5, 1));
  EXPECT_NE(derive_seed(5, 1), derive_seed(5, 2));
  EXPECT_NE(derive_seed(5, 1), derive_seed(6, 1));
}

}  // namespace
}  // namespace perfbench
