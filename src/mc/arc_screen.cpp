#include "mc/arc_screen.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>

#include "util/assert.h"
#include "util/rng.h"

namespace clktune::mc {

namespace {

/// Smallest slack the screen accepts as proof that an arc is satisfied.
constexpr double kMinClearSlackPs = 1e-6;
/// Bound on double rounding relative to the largest term a slack sums.
constexpr double kRoundingPerMagnitude = 1e-12;

}  // namespace

ArcScreen::ArcScreen(const Sampler& sampler, double clock_period_ps,
                     double step_ps)
    : sampler_(&sampler),
      clock_period_ps_(clock_period_ps),
      step_ps_(step_ps) {
  CLKTUNE_EXPECTS(step_ps > 0.0);
  for (std::size_t w = 0; w < local_bound_.size(); ++w)
    local_bound_[w] =
        std::sqrt(2.0 * std::numbers::ln2 * static_cast<double>(54 - w)) *
        (1.0 + 1e-9);
  // Every normal the sampler draws, global or local, has u1 >= 2^-53.
  const double z_cap = local_bound_[0];

  const ssta::SeqGraph& g = sampler.graph();
  bounds_.resize(g.arcs.size());
  for (std::size_t e = 0; e < g.arcs.size(); ++e) {
    const ssta::SeqArc& arc = g.arcs[e];
    const auto i = static_cast<std::size_t>(arc.src_ff);
    const auto j = static_cast<std::size_t>(arc.dst_ff);
    ArcBound& b = bounds_[e];
    b.setup_base = clock_period_ps - g.setup_ps[j] + g.skew_ps[j] -
                   g.skew_ps[i];
    b.hold_base = -g.hold_ps[j] + g.skew_ps[i] - g.skew_ps[j];
    b.late_mu = arc.dmax.mu;
    b.early_mu = arc.dmin.mu;
    b.late_a = arc.dmax.a;
    b.early_a = arc.dmin.a;
    b.late_loc = std::abs(arc.dmax.aloc);
    b.early_loc = std::abs(arc.dmin.aloc);
    double sensitivity = b.late_loc + b.early_loc;
    for (int p = 0; p < ssta::kParams; ++p)
      sensitivity += std::abs(b.late_a[static_cast<std::size_t>(p)]) +
                     std::abs(b.early_a[static_cast<std::size_t>(p)]);
    const double magnitude =
        std::abs(clock_period_ps) + std::abs(g.setup_ps[j]) +
        std::abs(g.hold_ps[j]) + std::abs(g.skew_ps[i]) +
        std::abs(g.skew_ps[j]) + std::abs(b.late_mu) + std::abs(b.early_mu) +
        z_cap * sensitivity;
    b.delta = std::max(kMinClearSlackPs, kRoundingPerMagnitude * magnitude);
  }
}

void ArcScreen::violated_arcs(std::uint64_t k,
                              std::vector<int>& violated) const {
  violated.clear();
  const std::array<double, ssta::kParams> z = sampler_->globals(k);
  const std::uint64_t seed = sampler_->seed();
  for (std::size_t e = 0; e < bounds_.size(); ++e) {
    const ArcBound& b = bounds_[e];
    // The top 53 bits of this hash are u1 of the arc's local draw.
    const std::uint64_t h = util::hash_u64(seed, k, 0x10000 + e);
    const double z_loc =
        local_bound_[static_cast<std::size_t>(std::bit_width(h >> 11))];
    double late = b.late_mu;
    double early = b.early_mu;
    for (int p = 0; p < ssta::kParams; ++p) {
      const auto ps = static_cast<std::size_t>(p);
      late += b.late_a[ps] * z[ps];
      early += b.early_a[ps] * z[ps];
    }
    // Sampler::arc_delays: late' = max(late, 0), early' = clamp(early, 0,
    // late'); both are monotone, so the box bounds carry through.
    const double late_hi = std::max(late + b.late_loc * z_loc, 0.0);
    const double late_lo = std::max(late - b.late_loc * z_loc, 0.0);
    const double early_lo =
        std::min(std::max(early - b.early_loc * z_loc, 0.0), late_lo);
    if (b.setup_base - late_hi >= b.delta && b.hold_base + early_lo >= b.delta)
      continue;
    std::int32_t setup = 0, hold = 0;
    constants(k, z, e, setup, hold);
    if (setup < 0 || hold < 0) violated.push_back(static_cast<int>(e));
  }
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
