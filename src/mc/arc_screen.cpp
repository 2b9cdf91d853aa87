#include "mc/arc_screen.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numbers>
#include <utility>

#include "util/assert.h"
#include "util/rng.h"

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
constexpr double kInf = std::numeric_limits<double>::infinity();

double norm2(const std::array<double, ssta::kParams>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x * x;
  return std::sqrt(sum) * kNormRoundUp;
}

}  // namespace

ArcScreen::ArcScreen(const Sampler& sampler, double clock_period_ps,
                     double step_ps, Pass pass)
    : sampler_(&sampler),
      clock_period_ps_(clock_period_ps),
      step_ps_(step_ps),
      pass_(pass),
      rounding_band_(kMinClearSlackPs) {
  CLKTUNE_EXPECTS(step_ps > 0.0);
  for (std::size_t w = 0; w < local_bound_.size(); ++w)
    local_bound_[w] =
        std::sqrt(2.0 * std::numbers::ln2 * static_cast<double>(54 - w)) *
        (1.0 + 1e-9);
  // Every normal the sampler draws, global or local, has u1 >= 2^-53.
  const double z_cap = local_bound_[0];
  std::copy(kBucketRadii.begin(), kBucketRadii.end(), bucket_radius_.begin());
  bucket_radius_.back() = std::sqrt(double{ssta::kParams}) * z_cap;

  const ssta::SeqGraph& g = sampler.graph();
  bounds_.resize(g.arcs.size());
  reach_.resize(g.arcs.size());
  // The kVerdictSeeds arcs of highest nominal reach so far, descending.
  std::array<std::pair<double, int>, kVerdictSeeds> top;
  top.fill({-std::numeric_limits<double>::infinity(), -1});
  for (std::size_t e = 0; e < g.arcs.size(); ++e) {
    const ssta::SeqArc& arc = g.arcs[e];
    const auto i = static_cast<std::size_t>(arc.src_ff);
    const auto j = static_cast<std::size_t>(arc.dst_ff);
    ArcBound& b = bounds_[e];
    ArcReach& r = reach_[e];
    b.setup_base = clock_period_ps - g.setup_ps[j] + g.skew_ps[j] -
                   g.skew_ps[i];
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
    const double magnitude =
        std::abs(clock_period_ps) + std::abs(g.setup_ps[j]) +
        std::abs(g.hold_ps[j]) + std::abs(g.skew_ps[i]) +
        std::abs(g.skew_ps[j]) + std::abs(b.late_mu) + std::abs(b.early_mu) +
        z_cap * (late_sens + early_sens);
    b.delta = std::max(kMinClearSlackPs, kRoundingPerMagnitude * magnitude);
    rounding_band_ = std::max(rounding_band_, b.delta);

    // Bounds over every chip: every draw, global or local, lies in
    // [-z_cap, z_cap].
    const double late_max = std::max(b.late_mu + z_cap * late_sens, 0.0);
    const double late_min = std::max(b.late_mu - z_cap * late_sens, 0.0);
    const double early_min =
        std::min(std::max(b.early_mu - z_cap * early_sens, 0.0), late_min);
    r.reach = late_max + r.period_base + 2.0 * b.delta;
    r.hold_risk = b.hold_base + early_min < b.delta;
    if (r.reach > clock_period_ps) setup_risk_.push_back(static_cast<int>(e));
    if (r.hold_risk) hold_risk_.push_back(static_cast<int>(e));
    std::pair<double, int> entry{std::max(b.late_mu, 0.0) + r.period_base,
                                 static_cast<int>(e)};
    for (auto& slot : top)
      if (entry.first > slot.first) std::swap(entry, slot);
  }
  for (const auto& [nominal, e] : top)
    if (e >= 0) verdict_seeds_.push_back(e);
  if (pass_ != Pass::none) build_widths();
}

void ArcScreen::build_widths() {
  const std::size_t n = bounds_.size();
  widths_.resize(kBuckets * n);
  for (std::size_t e = 0; e < n; ++e) {
    const ArcBound& b = bounds_[e];
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
    const double margin = 2.0 * b.delta;
    const double hold_need = margin - b.hold_base;
    const double setup_room = b.setup_base - margin;
    const bool setup_clamp_fails =
        pass_ == Pass::violated_arcs && setup_room < 0.0;
    // W grows with the radius: once no width clears, none does further on.
    std::uint8_t width = setup_clamp_fails ? kNoWidth : 0;
    for (std::size_t bucket = 0; bucket < kBuckets; ++bucket) {
      if (width != kNoWidth) {
        const double radius = bucket_radius_[bucket];
        double z_loc = kInf;
        if (hold_need > 0.0)
          z_loc = std::min(
              local_room(b.early_mu - early_norm * radius - hold_need,
                         b.early_loc, early_per_loc),
              local_room(b.late_mu - late_norm * radius - hold_need,
                         b.late_loc, late_per_loc));
        if (pass_ == Pass::violated_arcs)
          z_loc = std::min(
              z_loc, local_room(setup_room - b.late_mu - late_norm * radius,
                                b.late_loc, late_per_loc));
        width = width_for(z_loc);
      }
      widths_[bucket * n + e] = width;
    }
  }
}

std::uint8_t ArcScreen::width_for(double z_loc) const {
  // Z[w] falls as w grows; a NaN z_loc finds no width.
  if (!(z_loc >= local_bound_.back())) return kNoWidth;
  if (z_loc >= local_bound_.front()) return 0;
  // Z[w] = sqrt(2 ln2 (54 - w)) up to its safety factor: start from the
  // inverse, then step onto the exact answer.
  constexpr double kPerStep = 1.0 / (2.0 * std::numbers::ln2);
  const double steps = z_loc * z_loc * kPerStep;
  std::size_t w = static_cast<std::size_t>(
      std::clamp(std::ceil(54.0 - steps), 0.0, 53.0));
  while (w > 0 && local_bound_[w - 1] <= z_loc) --w;
  while (local_bound_[w] > z_loc) ++w;
  return static_cast<std::uint8_t>(w);
}

std::size_t ArcScreen::bucket_of(
    const std::array<double, ssta::kParams>& z) const {
  const double radius = norm2(z);
  std::size_t b = 0;
  while (b + 1 < kBuckets && bucket_radius_[b] < radius) ++b;
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
  const ArcBound& b = bounds_[e];
  double late_hi = 0.0, early_lo = 0.0;
  delay_bounds(b, z, z_loc, late_hi, early_lo);
  setup = b.setup_base - late_hi;
  hold = b.hold_base + early_lo;
}

void ArcScreen::violated_arcs(std::uint64_t k,
                              std::vector<int>& violated) const {
  CLKTUNE_EXPECTS(pass_ == Pass::violated_arcs);
  violated.clear();
  const std::array<double, ssta::kParams> z = sampler_->globals(k);
  const std::uint64_t seed = sampler_->seed();
  const std::uint8_t* widths = width_row(z);
  for (std::size_t e = 0; e < bounds_.size(); ++e) {
    const int w = local_width(seed, k, e);
    if (w >= widths[e]) continue;
    double setup_slack = 0.0, hold_slack = 0.0;
    bound_slacks(e, z, local_bound(w), setup_slack, hold_slack);
    if (setup_slack >= bounds_[e].delta && hold_slack >= bounds_[e].delta)
      continue;
    std::int32_t setup = 0, hold = 0;
    constants(k, z, e, setup, hold);
    if (setup < 0 || hold < 0) violated.push_back(static_cast<int>(e));
  }
}

void ArcScreen::draw_into(std::uint64_t k,
                          const std::array<double, ssta::kParams>& z,
                          std::size_t e, ChipVerdict& v) const {
  double late = 0.0, early = 0.0;
  sampler_->arc_delays(k, e, z, late, early);
  const ssta::SeqGraph& g = sampler_->graph();
  const ssta::SeqArc& arc = g.arcs[e];
  const auto i = static_cast<std::size_t>(arc.src_ff);
  const auto j = static_cast<std::size_t>(arc.dst_ff);
  // The period MC's historic term order.
  v.period = std::max(v.period,
                      late + g.setup_ps[j] + g.skew_ps[i] - g.skew_ps[j]);
  double setup_c = 0.0, hold_c = 0.0;
  arc_slack(g, e, late, early, clock_period_ps_, setup_c, hold_c);
  v.hold_fail = v.hold_fail || hold_c < 0.0;
}

ChipVerdict ArcScreen::verdict(std::uint64_t k) const {
  CLKTUNE_EXPECTS(pass_ == Pass::verdict);
  const std::array<double, ssta::kParams> z = sampler_->globals(k);
  const std::uint64_t seed = sampler_->seed();
  const std::uint8_t* hold_widths = width_row(z);
  ChipVerdict v;
  for (const int e : verdict_seeds_)
    draw_into(k, z, static_cast<std::size_t>(e), v);
  for (std::size_t e = 0; e < bounds_.size(); ++e) {
    const ArcReach& r = reach_[e];
    const bool setup_clear = r.reach <= v.period;
    // Neither half can matter: skip without a hash.
    if (setup_clear && !r.hold_risk) continue;
    const int w = local_width(seed, k, e);
    // Only hold can matter, and the width clears it.
    if (setup_clear && w >= hold_widths[e]) continue;
    const ArcBound& b = bounds_[e];
    double late_hi = 0.0, early_lo = 0.0;
    delay_bounds(b, z, local_bound(w), late_hi, early_lo);
    if (late_hi + r.period_base + b.delta <= v.period &&
        b.hold_base + early_lo >= b.delta)
      continue;
    draw_into(k, z, e, v);
  }
  return v;
}

bool ArcScreen::setup_violated(std::uint64_t k,
                               const std::array<double, ssta::kParams>& z,
                               std::size_t e) const {
  double setup_slack = 0.0, hold_slack = 0.0;
  bound_slacks(e, z, local_bound(local_width(sampler_->seed(), k, e)),
               setup_slack, hold_slack);
  if (setup_slack >= bounds_[e].delta) return false;
  double late = 0.0, early = 0.0;
  sampler_->arc_delays(k, e, z, late, early);
  double setup_c = 0.0, hold_c = 0.0;
  arc_slack(sampler_->graph(), e, late, early, clock_period_ps_, setup_c,
            hold_c);
  return setup_c < 0.0;
}

bool ArcScreen::hold_violated(std::uint64_t k,
                              const std::array<double, ssta::kParams>& z,
                              std::size_t e) const {
  double setup_slack = 0.0, hold_slack = 0.0;
  bound_slacks(e, z, local_bound(local_width(sampler_->seed(), k, e)),
               setup_slack, hold_slack);
  if (hold_slack >= bounds_[e].delta) return false;
  double late = 0.0, early = 0.0;
  sampler_->arc_delays(k, e, z, late, early);
  double setup_c = 0.0, hold_c = 0.0;
  arc_slack(sampler_->graph(), e, late, early, clock_period_ps_, setup_c,
            hold_c);
  return hold_c < 0.0;
}

void ArcScreen::constants(std::uint64_t k,
                          const std::array<double, ssta::kParams>& z,
                          std::size_t e, std::int32_t& setup,
                          std::int32_t& hold) const {
  double late = 0.0, early = 0.0;
  sampler_->arc_delays(k, e, z, late, early);
  double setup_c = 0.0, hold_c = 0.0;
  arc_slack(sampler_->graph(), e, late, early, clock_period_ps_, setup_c,
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
