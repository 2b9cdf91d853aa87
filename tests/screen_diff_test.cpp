// Differential tests of the screened judgements against the dense
// references (tests/reference/dense.h) on all eight paper circuits, at
// reduced counts: 300 period chips, 200 evaluation chips, the three
// Table I settings and plans from a 200-sample insertion run.  Every
// comparison is exact:
//
//   * the period MC's moments bit for bit, and its hold-failure count, at
//     one and at four threads;
//   * each chip's verdict against its dense period and hold flags;
//   * the passing counts of Yo, our plan, top-K and allbuf, at one and at
//     four threads, and the top-K incidence vectors;
//   * at periods on and around chips' own P_k, where the period MC's and
//     arc_slack's term orders round apart, Yo and a tuned yield.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/baselines.h"
#include "core/engine.h"
#include "core/insertion_config.h"
#include "feas/yield_eval.h"
#include "mc/period_mc.h"
#include "mc/sampler.h"
#include "netlist/generator.h"
#include "netlist/paper_circuits.h"
#include "reference/dense.h"
#include "ssta/seq_graph.h"

namespace clktune {
namespace {

constexpr std::uint64_t kPeriodChips = 300;
constexpr std::uint64_t kEvalChips = 200;
constexpr std::uint64_t kInsertChips = 200;
constexpr std::uint64_t kPeriodSeed = 20160314;
constexpr std::uint64_t kEvalSeed = 0xE7A1;
constexpr std::uint64_t kInsertSeed = 7;

/// One paper circuit with its period distribution and, per Table I
/// setting, the plans under test.
struct Circuit {
  std::string name;
  netlist::Design design;
  ssta::SeqGraph graph;
  mc::PeriodStats period;

  struct Setting {
    double period_ps = 0.0;
    feas::TuningPlan ours, topk, allbuf;
    std::vector<std::uint64_t> incidence;
  };
  std::vector<Setting> settings;
};

Circuit prepare(const netlist::SyntheticSpec& spec) {
  Circuit c;
  c.name = spec.name;
  c.design = netlist::generate(spec);
  c.graph = ssta::extract_seq_graph(c.design);
  c.period = mc::sample_min_period(mc::Sampler(c.graph, kPeriodSeed),
                                   kPeriodChips, 4);
  const mc::Sampler insert_sampler(c.graph, kInsertSeed);
  for (int sigmas = 0; sigmas <= 2; ++sigmas) {
    Circuit::Setting s;
    s.period_ps = c.period.mu() + sigmas * c.period.sigma();
    core::InsertionConfig config;
    config.num_samples = kInsertChips;
    config.sample_seed = kInsertSeed;
    config.threads = 4;
    const core::InsertionResult res =
        core::BufferInsertionEngine(c.design, c.graph, s.period_ps, config)
            .run();
    s.ours = res.plan;
    s.incidence = core::criticality_incidence(c.graph, insert_sampler,
                                              s.period_ps, kInsertChips, 4);
    s.topk = core::plan_from_incidence(c.graph, s.incidence,
                                       res.plan.physical_buffers(),
                                       config.steps, res.step_ps);
    s.allbuf = core::oracle_plan(c.graph, config.steps, res.step_ps);
    c.settings.push_back(std::move(s));
  }
  return c;
}

/// The eight circuits, prepared on first use and shared by every test.
const Circuit& circuit(int index) {
  static const std::vector<Circuit> all = [] {
    std::vector<Circuit> out;
    for (const netlist::SyntheticSpec& spec : netlist::paper_circuit_specs())
      out.push_back(prepare(spec));
    return out;
  }();
  return all.at(static_cast<std::size_t>(index));
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

class PaperCircuitTest : public ::testing::TestWithParam<int> {};

TEST_P(PaperCircuitTest, PeriodMcMatchesDenseBitwise) {
  const Circuit& c = circuit(GetParam());
  const mc::Sampler sampler(c.graph, kPeriodSeed);
  for (const int threads : {1, 4}) {
    const mc::PeriodStats screened =
        mc::sample_min_period(sampler, kPeriodChips, threads);
    const mc::PeriodStats dense =
        reference::dense_min_period(sampler, kPeriodChips, threads);
    EXPECT_TRUE(same_bits(screened.mu(), dense.mu())) << threads;
    EXPECT_TRUE(same_bits(screened.sigma(), dense.sigma())) << threads;
    EXPECT_TRUE(same_bits(screened.period.min(), dense.period.min()))
        << threads;
    EXPECT_TRUE(same_bits(screened.period.max(), dense.period.max()))
        << threads;
    EXPECT_EQ(screened.hold_failures, dense.hold_failures) << threads;
    EXPECT_EQ(screened.samples, dense.samples) << threads;
  }
}

TEST_P(PaperCircuitTest, VerdictsMatchDenseChips) {
  const Circuit& c = circuit(GetParam());
  const mc::Sampler sampler(c.graph, kEvalSeed);
  const mc::ChipVerdicts verdicts(sampler, kEvalChips, 4);
  mc::ArcSample sample;
  for (std::uint64_t k = 0; k < kEvalChips; ++k) {
    sampler.evaluate(k, sample);
    EXPECT_TRUE(
        same_bits(verdicts[k].period, reference::dense_period(c.graph, sample)))
        << "chip " << k;
    EXPECT_EQ(verdicts[k].hold_fail,
              reference::dense_hold_fail(c.graph, sample))
        << "chip " << k;
    EXPECT_EQ(verdicts[k].period_hold_fail,
              reference::dense_period_hold_fail(c.graph, sample))
        << "chip " << k;
  }
}

TEST_P(PaperCircuitTest, YieldsMatchDenseAtTableSettings) {
  const Circuit& c = circuit(GetParam());
  const mc::Sampler sampler(c.graph, kEvalSeed);
  const mc::Sampler insert_sampler(c.graph, kInsertSeed);
  const mc::ChipVerdicts one(sampler, kEvalChips, 1);
  const mc::ChipVerdicts four(sampler, kEvalChips, 4);
  for (const Circuit::Setting& s : c.settings) {
    const double t = s.period_ps;
    EXPECT_EQ(s.incidence, reference::dense_incidence(c.graph, insert_sampler,
                                                      t, kInsertChips))
        << "T=" << t;

    const feas::YieldEvaluator original(c.graph, reference::no_buffers(), t);
    const std::uint64_t yo = reference::dense_passing(original, sampler,
                                                      kEvalChips);
    EXPECT_EQ(feas::original_yield(c.graph, t, one, 1).passing, yo)
        << "Yo T=" << t;
    EXPECT_EQ(feas::original_yield(c.graph, t, four, 4).passing, yo)
        << "Yo T=" << t;

    for (const auto& [label, plan] :
         {std::pair<const char*, const feas::TuningPlan*>{"ours", &s.ours},
          {"topK", &s.topk},
          {"allbuf", &s.allbuf}}) {
      const feas::YieldEvaluator eval(c.graph, *plan, t);
      const std::uint64_t dense =
          reference::dense_passing(eval, sampler, kEvalChips);
      EXPECT_EQ(eval.evaluate(one, 1).passing, dense) << label << " T=" << t;
      EXPECT_EQ(eval.evaluate(four, 4).passing, dense)
          << label << " T=" << t;
      EXPECT_GE(dense, yo) << label << " T=" << t;
    }
  }
}

TEST_P(PaperCircuitTest, PeriodsAtChipBoundariesMatchDense) {
  const Circuit& c = circuit(GetParam());
  const mc::Sampler sampler(c.graph, kEvalSeed);
  constexpr std::uint64_t kChips = 24;
  const mc::ChipVerdicts verdicts(sampler, kChips, 1);
  const feas::TuningPlan& plan = c.settings.front().ours;
  int boundaries = 0;
  for (std::uint64_t k = 0; k < kChips && boundaries < 4; ++k) {
    if (verdicts[k].hold_fail) continue;
    ++boundaries;
    const double p = verdicts[k].period;
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (const double t : {p, std::nextafter(p, kInf), std::nextafter(p, -kInf),
                           p + 1e-10, p - 1e-10}) {
      const feas::YieldEvaluator original(c.graph, reference::no_buffers(),
                                          t);
      EXPECT_EQ(feas::original_yield(c.graph, t, verdicts, 1).passing,
                reference::dense_passing(original, sampler, kChips))
          << "Yo chip " << k << " T=P_k" << std::showpos << t - p;
      const feas::YieldEvaluator tuned(c.graph, plan, t);
      EXPECT_EQ(tuned.evaluate(verdicts, 1).passing,
                reference::dense_passing(tuned, sampler, kChips))
          << "Y chip " << k << " T=P_k" << std::showpos << t - p;
    }
  }
  EXPECT_EQ(boundaries, 4);
}

INSTANTIATE_TEST_SUITE_P(
    AllEight, PaperCircuitTest, ::testing::Range(0, 8),
    [](const ::testing::TestParamInfo<int>& info) {
      return netlist::paper_circuit_specs()
          .at(static_cast<std::size_t>(info.param))
          .name;
    });

}  // namespace
}  // namespace clktune
