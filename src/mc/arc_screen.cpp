#include "mc/arc_screen.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numbers>
#include <utility>

#include "util/assert.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace clktune::mc {

namespace {

/// Smallest slack the screen accepts as proof that an arc is satisfied.
constexpr double kMinClearSlackPs = 1e-6;
/// Bound on double rounding relative to the largest term a slack sums.
constexpr double kRoundingPerMagnitude = 1e-12;
/// Arcs verdict() draws before its sweep to lift the running maximum.
constexpr std::size_t kVerdictSeeds = 4;
/// Radii of the width tables' chip buckets but the last.
constexpr std::array<double, ArcScreen::kBuckets - 1> kBucketRadii = {
    1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0};
/// Rounds a computed 2-norm up past its rounding error.
constexpr double kNormRoundUp = 1.0 + 1e-12;
/// Fewest arcs per chunk of a width table built on the compute pool.
constexpr std::size_t kArcsPerChunk = 1024;
constexpr double kInf = std::numeric_limits<double>::infinity();

double norm2(const std::array<double, ssta::kParams>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x * x;
  return std::sqrt(sum) * kNormRoundUp;
}

}  // namespace

inline double ArcScreen::margin(double period_magnitude, double magnitude) {
  return std::max(kMinClearSlackPs,
                  kRoundingPerMagnitude * (period_magnitude + magnitude));
}

double ArcScreen::clear_margin(std::size_t e) const {
  return margin(period_magnitude_, core_->bounds[e].magnitude);
}

ArcScreen::ArcScreen(const Sampler& sampler, double clock_period_ps,
                     double step_ps, Pass pass, int threads)
    : ArcScreen(make_core(sampler, pass == Pass::verdict, threads),
                clock_period_ps, step_ps, pass, threads) {}

ArcScreen ArcScreen::at(double clock_period_ps, double step_ps, Pass pass,
                        int threads) const {
  return ArcScreen(core_, clock_period_ps, step_ps, pass, threads);
}

ArcScreen::ArcScreen(std::shared_ptr<const Core> core, double clock_period_ps,
                     double step_ps, Pass pass, int threads)
    : core_(std::move(core)),
      sampler_(core_->sampler),
      clock_period_ps_(clock_period_ps),
      step_ps_(step_ps),
      period_magnitude_(std::abs(clock_period_ps)),
      pass_(pass) {
  CLKTUNE_EXPECTS(step_ps > 0.0);
  CLKTUNE_EXPECTS(pass != Pass::verdict ||
                  core_->hold_widths.size() == kBuckets * num_arcs());
  // Rounding is monotone, so the largest m_e gives the largest margin.
  rounding_band_ = margin(period_magnitude_, core_->max_magnitude);
  for (std::size_t e = 0; e < core_->risk.size(); ++e) {
    const ArcRisk& r = core_->risk[e];
    if (r.reach_base + 2.0 * margin(period_magnitude_, r.magnitude) >
        clock_period_ps)
      setup_risk_.push_back(static_cast<int>(e));
  }
  if (pass == Pass::violated_arcs)
    widths_ = build_widths(*core_, clock_period_ps, true, threads);
}

std::shared_ptr<const ArcScreen::Core> ArcScreen::make_core(
    const Sampler& sampler, bool verdict_table, int threads) {
  auto core = std::make_shared<Core>();
  core->sampler = &sampler;
  for (std::size_t w = 0; w < core->local_bound.size(); ++w)
    core->local_bound[w] =
        std::sqrt(2.0 * std::numbers::ln2 * static_cast<double>(54 - w)) *
        (1.0 + 1e-9);
  // Every normal the sampler draws, global or local, has u1 >= 2^-53.
  const double z_cap = core->local_bound[0];
  std::copy(kBucketRadii.begin(), kBucketRadii.end(),
            core->bucket_radius.begin());
  core->bucket_radius.back() = std::sqrt(double{ssta::kParams}) * z_cap;

  const ssta::SeqGraph& g = sampler.graph();
  core->bounds.resize(g.arcs.size());
  core->reach.resize(g.arcs.size());
  core->risk.resize(g.arcs.size());
  // The kVerdictSeeds arcs of highest nominal reach so far, descending.
  std::array<std::pair<double, int>, kVerdictSeeds> top;
  top.fill({-std::numeric_limits<double>::infinity(), -1});
  for (std::size_t e = 0; e < g.arcs.size(); ++e) {
    const ssta::SeqArc& arc = g.arcs[e];
    const auto i = static_cast<std::size_t>(arc.src_ff);
    const auto j = static_cast<std::size_t>(arc.dst_ff);
    ArcBound& b = core->bounds[e];
    ArcReach& r = core->reach[e];
    b.setup_base = -g.setup_ps[j] + g.skew_ps[j] - g.skew_ps[i];
    b.hold_base = -g.hold_ps[j] + g.skew_ps[i] - g.skew_ps[j];
    r.period_base = g.setup_ps[j] + g.skew_ps[i] - g.skew_ps[j];
    b.late_mu = arc.dmax.mu;
    b.early_mu = arc.dmin.mu;
    b.late_a = arc.dmax.a;
    b.early_a = arc.dmin.a;
    b.late_loc = std::abs(arc.dmax.aloc);
    b.early_loc = std::abs(arc.dmin.aloc);
    double late_sens = b.late_loc, early_sens = b.early_loc;
    for (int p = 0; p < ssta::kParams; ++p) {
      late_sens += std::abs(b.late_a[static_cast<std::size_t>(p)]);
      early_sens += std::abs(b.early_a[static_cast<std::size_t>(p)]);
    }
    b.magnitude = std::abs(g.setup_ps[j]) + std::abs(g.hold_ps[j]) +
                  std::abs(g.skew_ps[i]) + std::abs(g.skew_ps[j]) +
                  std::abs(b.late_mu) + std::abs(b.early_mu) +
                  z_cap * (late_sens + early_sens);
    core->max_magnitude = std::max(core->max_magnitude, b.magnitude);
    // The verdict pass reads neither the period nor the step: its margins
    // are those at T = 0.
    const double delta = margin(0.0, b.magnitude);

    // Bounds over every chip: every draw, global or local, lies in
    // [-z_cap, z_cap].
    const double late_max = std::max(b.late_mu + z_cap * late_sens, 0.0);
    const double late_min = std::max(b.late_mu - z_cap * late_sens, 0.0);
    const double early_min =
        std::min(std::max(b.early_mu - z_cap * early_sens, 0.0), late_min);
    core->risk[e] = {late_max + r.period_base, b.magnitude};
    r.reach = core->risk[e].reach_base + 2.0 * delta;
    r.hold_risk = b.hold_base + early_min < delta;
    std::pair<double, int> entry{std::max(b.late_mu, 0.0) + r.period_base,
                                 static_cast<int>(e)};
    for (auto& slot : top)
      if (entry.first > slot.first) std::swap(entry, slot);
  }
  for (const auto& [nominal, e] : top)
    if (e >= 0) core->verdict_seeds.push_back(e);
  if (verdict_table)
    core->hold_widths = build_widths(*core, 0.0, false, threads);
  return core;
}

std::vector<std::uint8_t> ArcScreen::build_widths(const Core& core, double T,
                                                  bool with_setup,
                                                  int threads) {
  const std::size_t n = core.bounds.size();
  std::vector<std::uint8_t> widths(kBuckets * n);
  const double period_magnitude = std::abs(T);
  const std::size_t chunks = std::min(
      util::resolve_thread_count(
          threads <= 0 ? 0 : static_cast<std::size_t>(threads)),
      std::max<std::size_t>(1, n / kArcsPerChunk));
  util::parallel_chunks(n, chunks, [&](std::size_t, std::size_t begin,
                                       std::size_t end) {
    for (std::size_t e = begin; e < end; ++e) {
      const ArcBound& b = core.bounds[e];
      const double late_norm = norm2(b.late_a);
      const double early_norm = norm2(b.early_a);
      const double late_per_loc = b.late_loc == 0.0 ? 0.0 : 1.0 / b.late_loc;
      const double early_per_loc =
          b.early_loc == 0.0 ? 0.0 : 1.0 / b.early_loc;
      // The largest |z_loc| at which `room` stays >= loc |z_loc|; +-inf for
      // an arc without local variation.
      const auto local_room = [](double room, double loc, double per_loc) {
        if (loc == 0.0) return room >= 0.0 ? kInf : -kInf;
        return room * per_loc;
      };
      // Both halves must clear by 2 delta; see the header comment.
      const double margin2 = 2.0 * margin(period_magnitude, b.magnitude);
      const double hold_need = margin2 - b.hold_base;
      const double setup_room = T + b.setup_base - margin2;
      const bool setup_clamp_fails = with_setup && setup_room < 0.0;
      // W grows with the radius: once no width clears, none does further
      // on.
      std::uint8_t width = setup_clamp_fails ? kNoWidth : 0;
      for (std::size_t bucket = 0; bucket < kBuckets; ++bucket) {
        if (width != kNoWidth) {
          const double radius = core.bucket_radius[bucket];
          double z_loc = kInf;
          if (hold_need > 0.0)
            z_loc = std::min(
                local_room(b.early_mu - early_norm * radius - hold_need,
                           b.early_loc, early_per_loc),
                local_room(b.late_mu - late_norm * radius - hold_need,
                           b.late_loc, late_per_loc));
          if (with_setup)
            z_loc = std::min(
                z_loc, local_room(setup_room - b.late_mu - late_norm * radius,
                                  b.late_loc, late_per_loc));
          width = width_for(core, z_loc);
        }
        widths[bucket * n + e] = width;
      }
    }
  });
  return widths;
}

std::uint8_t ArcScreen::width_for(const Core& core, double z_loc) {
  const std::array<double, 54>& bound = core.local_bound;
  // Z[w] falls as w grows; a NaN z_loc finds no width.
  if (!(z_loc >= bound.back())) return kNoWidth;
  if (z_loc >= bound.front()) return 0;
  // Z[w] = sqrt(2 ln2 (54 - w)) up to its safety factor: start from the
  // inverse, then step onto the exact answer.
  constexpr double kPerStep = 1.0 / (2.0 * std::numbers::ln2);
  const double steps = z_loc * z_loc * kPerStep;
  std::size_t w = static_cast<std::size_t>(
      std::clamp(std::ceil(54.0 - steps), 0.0, 53.0));
  while (w > 0 && bound[w - 1] <= z_loc) --w;
  while (bound[w] > z_loc) ++w;
  return static_cast<std::uint8_t>(w);
}

std::size_t ArcScreen::bucket_of(
    const std::array<double, ssta::kParams>& z) const {
  const double radius = norm2(z);
  std::size_t b = 0;
  while (b + 1 < kBuckets && core_->bucket_radius[b] < radius) ++b;
  return b;
}

inline void ArcScreen::delay_bounds(const ArcBound& b,
                                    const std::array<double, ssta::kParams>& z,
                                    double z_loc, double& late_hi,
                                    double& early_lo) {
  double late = b.late_mu;
  double early = b.early_mu;
  for (int p = 0; p < ssta::kParams; ++p) {
    const auto ps = static_cast<std::size_t>(p);
    late += b.late_a[ps] * z[ps];
    early += b.early_a[ps] * z[ps];
  }
  // Sampler::arc_delays: late' = max(late, 0), early' = clamp(early, 0,
  // late'); both are monotone, so the box bounds carry through.
  late_hi = std::max(late + b.late_loc * z_loc, 0.0);
  const double late_lo = std::max(late - b.late_loc * z_loc, 0.0);
  early_lo = std::min(std::max(early - b.early_loc * z_loc, 0.0), late_lo);
}

inline int ArcScreen::local_width(std::uint64_t seed, std::uint64_t k,
                                  std::size_t e) {
  // The top 53 bits of this hash are u1 of the arc's local draw.
  const std::uint64_t h = util::hash_u64(seed, k, 0x10000 + e);
  return std::bit_width(h >> 11);
}

void ArcScreen::bound_slacks(std::size_t e,
                             const std::array<double, ssta::kParams>& z,
                             double z_loc, double& setup,
                             double& hold) const {
  const ArcBound& b = core_->bounds[e];
  double late_hi = 0.0, early_lo = 0.0;
  delay_bounds(b, z, z_loc, late_hi, early_lo);
  setup = clock_period_ps_ + b.setup_base - late_hi;
  hold = b.hold_base + early_lo;
}

void ArcScreen::violated_arcs(std::uint64_t k,
                              std::vector<int>& violated) const {
  CLKTUNE_EXPECTS(pass_ == Pass::violated_arcs);
  violated.clear();
  const Core& core = *core_;
  const std::array<double, ssta::kParams> z = sampler().globals(k);
  const std::uint64_t seed = sampler().seed();
  const std::uint8_t* widths = width_row(widths_, z);
  for (std::size_t e = 0; e < core.bounds.size(); ++e) {
    const int w = local_width(seed, k, e);
    if (w >= widths[e]) continue;
    double setup_slack = 0.0, hold_slack = 0.0;
    bound_slacks(e, z, core.local_bound[static_cast<std::size_t>(w)],
                 setup_slack, hold_slack);
    const double delta = margin(period_magnitude_, core.bounds[e].magnitude);
    if (setup_slack >= delta && hold_slack >= delta) continue;
    std::int32_t setup = 0, hold = 0;
    constants(k, z, e, setup, hold);
    if (setup < 0 || hold < 0) violated.push_back(static_cast<int>(e));
  }
}

void ArcScreen::draw_into(std::uint64_t k,
                          const std::array<double, ssta::kParams>& z,
                          std::size_t e, ChipVerdict& v) const {
  double late = 0.0, early = 0.0;
  sampler().arc_delays(k, e, z, late, early);
  const ssta::SeqGraph& g = sampler().graph();
  const ssta::SeqArc& arc = g.arcs[e];
  const auto i = static_cast<std::size_t>(arc.src_ff);
  const auto j = static_cast<std::size_t>(arc.dst_ff);
  // The period MC's historic term order.
  v.period = std::max(v.period,
                      late + g.setup_ps[j] + g.skew_ps[i] - g.skew_ps[j]);
  double setup_c = 0.0, hold_c = 0.0;
  arc_slack(g, e, late, early, 0.0, setup_c, hold_c);
  v.hold_fail = v.hold_fail || hold_c < 0.0;
}

ChipVerdict ArcScreen::verdict(std::uint64_t k) const {
  CLKTUNE_EXPECTS(pass_ == Pass::verdict);
  const Core& core = *core_;
  const std::array<double, ssta::kParams> z = sampler().globals(k);
  const std::uint64_t seed = sampler().seed();
  const std::uint8_t* hold_widths = width_row(core.hold_widths, z);
  ChipVerdict v;
  for (const int e : core.verdict_seeds)
    draw_into(k, z, static_cast<std::size_t>(e), v);
  for (std::size_t e = 0; e < core.bounds.size(); ++e) {
    const ArcReach& r = core.reach[e];
    const bool setup_clear = r.reach <= v.period;
    // Neither half can matter: skip without a hash.
    if (setup_clear && !r.hold_risk) continue;
    const int w = local_width(seed, k, e);
    // Only hold can matter, and the width clears it.
    if (setup_clear && w >= hold_widths[e]) continue;
    const ArcBound& b = core.bounds[e];
    const double delta = margin(0.0, b.magnitude);
    double late_hi = 0.0, early_lo = 0.0;
    delay_bounds(b, z, core.local_bound[static_cast<std::size_t>(w)],
                 late_hi, early_lo);
    if (late_hi + r.period_base + delta <= v.period &&
        b.hold_base + early_lo >= delta)
      continue;
    draw_into(k, z, e, v);
  }
  return v;
}

void ArcScreen::hold_violated_arcs(std::uint64_t k,
                                   std::vector<int>& out) const {
  CLKTUNE_EXPECTS(pass_ == Pass::verdict);
  const Core& core = *core_;
  const std::array<double, ssta::kParams> z = sampler().globals(k);
  const std::uint64_t seed = sampler().seed();
  const std::uint8_t* hold_widths = width_row(core.hold_widths, z);
  for (std::size_t e = 0; e < core.bounds.size(); ++e) {
    if (!core.reach[e].hold_risk) continue;
    const int w = local_width(seed, k, e);
    if (w >= hold_widths[e]) continue;
    const ArcBound& b = core.bounds[e];
    double late_hi = 0.0, early_lo = 0.0;
    delay_bounds(b, z, core.local_bound[static_cast<std::size_t>(w)],
                 late_hi, early_lo);
    if (b.hold_base + early_lo >= margin(0.0, b.magnitude)) continue;
    double late = 0.0, early = 0.0;
    sampler().arc_delays(k, e, z, late, early);
    double setup_c = 0.0, hold_c = 0.0;
    arc_slack(sampler().graph(), e, late, early, 0.0, setup_c, hold_c);
    if (hold_c < 0.0) out.push_back(static_cast<int>(e));
  }
}

bool ArcScreen::setup_violated(std::uint64_t k,
                               const std::array<double, ssta::kParams>& z,
                               std::size_t e) const {
  double setup_slack = 0.0, hold_slack = 0.0;
  bound_slacks(e, z, local_bound(local_width(sampler().seed(), k, e)),
               setup_slack, hold_slack);
  if (setup_slack >= clear_margin(e)) return false;
  double late = 0.0, early = 0.0;
  sampler().arc_delays(k, e, z, late, early);
  double setup_c = 0.0, hold_c = 0.0;
  arc_slack(sampler().graph(), e, late, early, clock_period_ps_, setup_c,
            hold_c);
  return setup_c < 0.0;
}

void ArcScreen::constants(std::uint64_t k,
                          const std::array<double, ssta::kParams>& z,
                          std::size_t e, std::int32_t& setup,
                          std::int32_t& hold) const {
  double late = 0.0, early = 0.0;
  sampler().arc_delays(k, e, z, late, early);
  double setup_c = 0.0, hold_c = 0.0;
  arc_slack(sampler().graph(), e, late, early, clock_period_ps_, setup_c,
            hold_c);
  setup = floor_steps(setup_c, step_ps_);
  hold = floor_steps(hold_c, step_ps_);
}

void ArcConstantMemo::next_epoch(std::size_t num_arcs) {
  ++epoch_;
  if (stamp_.size() < num_arcs) {
    stamp_.resize(num_arcs, 0);
    setup_.resize(num_arcs);
    hold_.resize(num_arcs);
  }
}

void ArcConstantMemo::begin(const ArcScreen& screen, std::uint64_t k) {
  next_epoch(screen.num_arcs());
  screen_ = &screen;
  k_ = k;
  have_globals_ = false;
}

void ArcConstantMemo::begin(const ArcConstants& dense) {
  const std::size_t n = dense.setup_steps.size();
  next_epoch(n);
  screen_ = nullptr;
  std::copy(dense.setup_steps.begin(), dense.setup_steps.end(),
            setup_.begin());
  std::copy(dense.hold_steps.begin(), dense.hold_steps.end(), hold_.begin());
  std::fill_n(stamp_.begin(), n, epoch_);
}

void ArcConstantMemo::compute(std::size_t e) {
  CLKTUNE_ASSERT(screen_ != nullptr);
  if (!have_globals_) {
    z_ = screen_->sampler().globals(k_);
    have_globals_ = true;
  }
  screen_->constants(k_, z_, e, setup_[e], hold_[e]);
}

}  // namespace clktune::mc
