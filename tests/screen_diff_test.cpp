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
//   * the local-repair verdict of every chip those evaluations judge, chip
//     by chip, for our plan, top-K and allbuf;
//   * at periods on and around chips' own P_k, where the period MC's and
//     arc_slack's term orders round apart, Yo and a tuned yield;
//   * the step-1 violated lists and the verdicts on the insertion chips
//     and on chips from every width-table bucket up to radius 6, and the
//     width tables themselves against the bound at each bucket's worst
//     global draw.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
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
#include "mc/arc_constants.h"
#include "mc/arc_screen.h"
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
/// Chips scanned past the insertion chips for the outer width-table
/// buckets, and how many of each bucket the tests keep.
constexpr std::uint64_t kScanChips = 40000;
constexpr int kChipsPerBucket = 3;
/// The outermost bucket radius the scan fills; beyond it chips are about
/// one in 10^7, and the tables are checked directly.
constexpr double kScanRadius = 6.0;

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

// A count can hide a false pass offset by a false fail, so every chip that
// evaluate() judges is held to the dense check on its own.
TEST_P(PaperCircuitTest, JudgeMatchesDenseOnEveryFlaggedChip) {
  const Circuit& c = circuit(GetParam());
  const mc::Sampler sampler(c.graph, kEvalSeed);
  const mc::ChipVerdicts verdicts(sampler, kEvalChips, 4);
  std::uint64_t judged = 0, rescued = 0;
  for (const Circuit::Setting& s : c.settings) {
    for (const auto& [label, plan] :
         {std::pair<const char*, const feas::TuningPlan*>{"ours", &s.ours},
          {"topK", &s.topk},
          {"allbuf", &s.allbuf}}) {
      const feas::YieldEvaluator eval(c.graph, *plan, s.period_ps);
      const mc::ArcScreen screen(sampler, s.period_ps, plan->step_ps);
      for (std::uint64_t k = 0; k < kEvalChips; ++k) {
        const mc::ChipVerdict& v = verdicts[k];
        if (v.untuned_at(s.period_ps, screen.rounding_band()) ==
            mc::ChipVerdict::Untuned::passes)
          continue;
        ++judged;
        const bool dense = eval.sample_feasible(sampler, k);
        EXPECT_EQ(eval.judge(screen, k, v), dense)
            << label << " T=" << s.period_ps << " chip " << k;
        rescued += dense ? 1 : 0;
      }
    }
  }
  // Both verdicts occur on every circuit.
  EXPECT_GT(rescued, 0u);
  EXPECT_LT(rescued, judged);
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

double norm(const std::array<double, ssta::kParams>& z) {
  double sum = 0.0;
  for (const double x : z) sum += x * x;
  return std::sqrt(sum);
}

/// The insertion chips, then kChipsPerBucket chips of each bucket whose
/// radius is at most kScanRadius, by their own ||z||_2.
std::vector<std::uint64_t> chips_of_every_bucket(const mc::ArcScreen& screen) {
  std::vector<std::uint64_t> chips;
  for (std::uint64_t k = 0; k < kInsertChips; ++k) chips.push_back(k);
  std::array<int, mc::ArcScreen::kBuckets> found{};
  for (std::uint64_t k = kInsertChips; k < kScanChips; ++k) {
    const auto z = screen.sampler().globals(k);
    const double r = norm(z);
    std::size_t b = 0;
    while (b + 1 < mc::ArcScreen::kBuckets && screen.bucket_radius(b) < r) ++b;
    if (screen.bucket_radius(b) > kScanRadius || found[b] == kChipsPerBucket)
      continue;
    ++found[b];
    chips.push_back(k);
  }
  for (std::size_t b = 0; screen.bucket_radius(b) <= kScanRadius; ++b)
    EXPECT_EQ(found[b], kChipsPerBucket) << "bucket " << b;
  return chips;
}

TEST_P(PaperCircuitTest, ScreenedPassesMatchDenseInEveryBucket) {
  const Circuit& c = circuit(GetParam());
  const mc::Sampler sampler(c.graph, kInsertSeed);
  const mc::ArcScreen verdicts(sampler, 0.0, 1.0,
                               mc::ArcScreen::Pass::verdict);
  const std::vector<std::uint64_t> chips = chips_of_every_bucket(verdicts);
  std::vector<mc::ArcScreen> step1;
  for (const Circuit::Setting& s : c.settings)
    step1.emplace_back(sampler, s.period_ps, s.ours.step_ps,
                       mc::ArcScreen::Pass::violated_arcs);

  mc::ArcSample sample;
  mc::ArcConstants dense;
  std::vector<int> violated;
  std::uint64_t violated_total = 0;
  for (const std::uint64_t k : chips) {
    sampler.evaluate(k, sample);
    // The chip's bucket is the first whose radius reaches ||z||_2.
    const auto z = sampler.globals(k);
    const std::size_t b = verdicts.bucket_of(z);
    EXPECT_LE(norm(z), verdicts.bucket_radius(b)) << "chip " << k;
    if (b > 0) {
      EXPECT_GT(norm(z), verdicts.bucket_radius(b - 1)) << "chip " << k;
    }

    for (const mc::ArcScreen& screen : step1) {
      mc::quantize_arc_constants(c.graph, sample, screen.clock_period_ps(),
                                 screen.step_ps(), dense);
      screen.violated_arcs(k, violated);
      EXPECT_EQ(violated, reference::dense_violated(dense))
          << "chip " << k << " T=" << screen.clock_period_ps();
      violated_total += violated.size();
    }
    const mc::ChipVerdict v = verdicts.verdict(k);
    EXPECT_TRUE(same_bits(v.period, reference::dense_period(c.graph, sample)))
        << "chip " << k;
    EXPECT_EQ(v.hold_fail, reference::dense_hold_fail(c.graph, sample))
        << "chip " << k;
    EXPECT_EQ(v.period_hold_fail,
              reference::dense_period_hold_fail(c.graph, sample))
        << "chip " << k;
  }
  EXPECT_GT(violated_total, 0u);
}

/// `r` times the unit vector along `a`; 0 when a = 0.
std::array<double, ssta::kParams> along(
    const std::array<double, ssta::kParams>& a, double r) {
  const double n = norm(a);
  std::array<double, ssta::kParams> z{};
  if (n == 0.0) return z;
  for (std::size_t p = 0; p < z.size(); ++p) z[p] = a[p] / n * r;
  return z;
}

/// Appends a self-loop on flip-flop 0 without local variation: its skews
/// cancel, so its slacks are set by the delays alone.  Returns its index.
std::size_t add_self_loop(ssta::SeqGraph& g, double late_mu,
                          const std::array<double, ssta::kParams>& late_a,
                          double early_mu,
                          const std::array<double, ssta::kParams>& early_a) {
  g.arcs.push_back(ssta::SeqArc{0, 0, ssta::Canon{late_mu, late_a, 0.0},
                                ssta::Canon{early_mu, early_a, 0.0}});
  g.arcs_of_ff[0].push_back(static_cast<int>(g.arcs.size()) - 1);
  return g.arcs.size() - 1;
}

/// The least slack, over the ball of bucket b, of arc e's hold half and,
/// `with_setup`, its setup half, with |z_loc| <= Z[w]: the bound at its
/// worst global draws, one per delay on the bucket's sphere.
double least_slack(const mc::ArcScreen& screen, bool with_setup,
                   std::size_t e, std::size_t b, int w) {
  const ssta::SeqArc& arc = screen.sampler().graph().arcs[e];
  const double r = screen.bucket_radius(b);
  const double z_loc = screen.local_bound(w);
  double setup = 0.0, hold = 0.0;
  screen.bound_slacks(e, along(arc.dmax.a, r), z_loc, setup, hold);
  double least = with_setup ? setup : std::numeric_limits<double>::infinity();
  screen.bound_slacks(e, along(arc.dmax.a, -r), z_loc, setup, hold);
  least = std::min(least, hold);
  screen.bound_slacks(e, along(arc.dmin.a, -r), z_loc, setup, hold);
  return std::min(least, hold);
}

// Chips past radius 6 are too rare to sample, so the tables are checked
// directly: at its width W every entry must clear its arc under the bound
// at the bucket's worst global draws, and at W - 1 the worst draw must come
// within the 2 delta margin, so no narrower width would do.  Appended arcs
// whose least slack over one bucket lies inside the margin, for setup at
// the first setting's period and for hold, must not clear at any width.
TEST_P(PaperCircuitTest, WidthTablesClearOnlyWhatTheBoundClears) {
  const Circuit& c = circuit(GetParam());
  const double t = c.settings.front().period_ps;
  const double step = c.settings.front().ours.step_ps;
  constexpr double kSens = 2.0;
  ssta::SeqGraph g = c.graph;
  std::vector<std::size_t> margin_arcs;  // bucket b's pair at 2b, 2b + 1
  {
    const mc::Sampler sampler(c.graph, kInsertSeed);
    const mc::ArcScreen probe(sampler, t, step);
    for (std::size_t b = 0; b < mc::ArcScreen::kBuckets; ++b) {
      const double r = probe.bucket_radius(b);
      std::array<double, ssta::kParams> u{};
      u[b % u.size()] = kSens;
      // Setup: least slack 0 at radius r; hold clears by a picosecond.
      margin_arcs.push_back(add_self_loop(g, t - g.setup_ps[0] - kSens * r,
                                          u, g.hold_ps[0] + 1.0, {}));
      // Hold: least slack 0 at radius r; setup clears.
      const double early = g.hold_ps[0] + kSens * r;
      margin_arcs.push_back(
          add_self_loop(g, early + kSens * r + 1.0, {}, early, u));
    }
  }
  // Move each appended arc's least slack to half its margin.
  {
    const mc::Sampler sampler(g, kInsertSeed);
    const mc::ArcScreen setup_probe(sampler, t, step);
    const mc::ArcScreen hold_probe(sampler, 0.0, 1.0);
    for (std::size_t i = 0; i < margin_arcs.size(); ++i) {
      const std::size_t e = margin_arcs[i];
      const bool setup = i % 2 == 0;
      const mc::ArcScreen& probe = setup ? setup_probe : hold_probe;
      const double shift = least_slack(probe, setup, e, i / 2, 0) -
                           0.5 * probe.clear_margin(e);
      if (setup)
        g.arcs[e].dmax.mu += shift;
      else
        g.arcs[e].dmin.mu -= shift;
    }
  }

  const mc::Sampler sampler(g, kInsertSeed);
  std::vector<mc::ArcScreen> screens;
  for (const Circuit::Setting& s : c.settings)
    screens.emplace_back(sampler, s.period_ps, s.ours.step_ps,
                         mc::ArcScreen::Pass::violated_arcs);
  // The verdict pass's screen runs at T = 0 and reads its hold-only table.
  screens.emplace_back(sampler, 0.0, 1.0, mc::ArcScreen::Pass::verdict);
  for (std::size_t i = 0; i < margin_arcs.size(); ++i) {
    const bool setup = i % 2 == 0;
    const mc::ArcScreen& screen = setup ? screens.front() : screens.back();
    const std::size_t e = margin_arcs[i];
    const double least = least_slack(screen, setup, e, i / 2, 0);
    EXPECT_GE(least, 0.0) << "appended arc " << i;
    EXPECT_LT(least, screen.clear_margin(e)) << "appended arc " << i;
    EXPECT_EQ(screen.width_threshold(i / 2, e), mc::ArcScreen::kNoWidth)
        << "appended arc " << i;
  }

  std::uint64_t entries = 0, cleared = 0, unsound = 0, loose = 0;
  std::string first_unsound;
  for (const mc::ArcScreen& screen : screens) {
    const bool with_setup = &screen != &screens.back();
    for (std::size_t e = 0; e < g.arcs.size(); ++e) {
      const double delta = screen.clear_margin(e);
      for (std::size_t b = 0; b < mc::ArcScreen::kBuckets; ++b) {
        const int width = screen.width_threshold(b, e);
        ++entries;
        if (width < mc::ArcScreen::kNoWidth) {
          ++cleared;
          if (!(least_slack(screen, with_setup, e, b, width) >= delta) &&
              unsound++ == 0) {
            first_unsound = "arc ";
            first_unsound += std::to_string(e);
            first_unsound += " bucket ";
            first_unsound += std::to_string(b);
          }
        }
        if (width > 0 &&
            !(least_slack(screen, with_setup, e, b, std::min(width, 54) - 1) <
              2.0 * delta))
          ++loose;
      }
    }
  }
  EXPECT_EQ(unsound, 0u) << "first: " << first_unsound;
  EXPECT_EQ(loose, 0u) << "of " << entries;
  // Most entries clear at some width.
  EXPECT_GT(cleared, entries / 2);
}

// Each pass must read the table of the chip's own bucket.  For one chip of
// each bucket up to radius 6, two appended arcs point their global
// sensitivity along the chip's draw, with slack zero halfway between the
// chip's radius and the next bucket radius inside it: the chip violates
// the first's setup and the second's hold, though the next smaller
// bucket's table clears both.
TEST_P(PaperCircuitTest, PassesReadEachChipsOwnBucket) {
  const Circuit& c = circuit(GetParam());
  const Circuit::Setting& s = c.settings.front();
  constexpr double kSens = 2.0;
  ssta::SeqGraph g = c.graph;
  const mc::Sampler probe_sampler(c.graph, kInsertSeed);
  const mc::ArcScreen probe(probe_sampler, s.period_ps, s.ours.step_ps);
  struct Probe {
    std::uint64_t chip;
    std::size_t setup_arc, hold_arc;
  };
  std::vector<Probe> probes;
  for (std::size_t b = 1; probe.bucket_radius(b) <= kScanRadius; ++b) {
    const double inner = probe.bucket_radius(b - 1);
    std::uint64_t k = 0;
    for (; k < kScanChips; ++k) {
      const double r = norm(probe_sampler.globals(k));
      if (r > inner + 0.01 && r <= probe.bucket_radius(b)) break;
    }
    ASSERT_LT(k, kScanChips) << "bucket " << b;
    const auto z = probe_sampler.globals(k);
    const double r = norm(z);
    const auto u = along(z, kSens);
    const double mid = kSens * (inner + r) / 2.0;
    Probe p{k, 0, 0};
    p.setup_arc = add_self_loop(g, s.period_ps - g.setup_ps[0] - mid, u,
                                g.hold_ps[0] + 1.0, {});
    p.hold_arc = add_self_loop(
        g, g.hold_ps[0] + mid + kSens * probe.bucket_radius(b) + 1.0, {},
        g.hold_ps[0] + mid, along(z, -kSens));
    probes.push_back(p);
  }
  ASSERT_EQ(probes.size(), 6u);

  const mc::Sampler sampler(g, kInsertSeed);
  const mc::ArcScreen step1(sampler, s.period_ps, s.ours.step_ps,
                            mc::ArcScreen::Pass::violated_arcs);
  const mc::ArcScreen verdicts(sampler, 0.0, 1.0,
                               mc::ArcScreen::Pass::verdict);
  mc::ArcSample sample;
  mc::ArcConstants dense;
  std::vector<int> violated;
  for (const Probe& p : probes) {
    sampler.evaluate(p.chip, sample);
    mc::quantize_arc_constants(g, sample, s.period_ps, s.ours.step_ps, dense);
    step1.violated_arcs(p.chip, violated);
    EXPECT_EQ(violated, reference::dense_violated(dense)) << p.chip;
    EXPECT_TRUE(std::binary_search(violated.begin(), violated.end(),
                                   static_cast<int>(p.setup_arc)))
        << "chip " << p.chip;
    const mc::ChipVerdict v = verdicts.verdict(p.chip);
    EXPECT_TRUE(same_bits(v.period, reference::dense_period(g, sample)))
        << "chip " << p.chip;
    EXPECT_EQ(v.hold_fail, reference::dense_hold_fail(g, sample)) << p.chip;
    EXPECT_EQ(v.period_hold_fail, reference::dense_period_hold_fail(g, sample))
        << "chip " << p.chip;
    EXPECT_TRUE(v.hold_fail) << "chip " << p.chip;
  }
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
