// Standard-cell library with a first-order process-variation model.
//
// The paper maps its benchmark circuits to "a library from an industry
// partner" with transistor-length / oxide-thickness / threshold-voltage
// standard deviations of 15.7 % / 5.3 % / 4.4 % of nominal.  That library is
// not public, so this module provides an industry-like synthetic equivalent:
// each cell arc has a nominal rise-max delay and a min (early) delay, both
// scaled by a common variation factor
//
//   f(g) = 1 + a_L z_L + a_tox z_tox + a_vth z_vth + a_loc z_loc(g)
//
// where z_L, z_tox, z_vth are chip-global standard normals and z_loc is an
// independent per-gate term.  The a_* coefficients fold the parameter sigmas
// into delay space via first-order sensitivities.
#pragma once

#include <array>
#include <string>
#include <string_view>
#include <vector>

namespace clktune::netlist {

/// Number of global (chip-wide) process parameters: L, tox, Vth.
inline constexpr int kNumGlobalParams = 3;

struct CellType {
  std::string name;
  int num_inputs = 1;
  double delay_ps = 10.0;      ///< nominal max (late) propagation delay
  double min_delay_ps = 6.0;   ///< nominal min (early) propagation delay
  double load_ps = 1.0;        ///< extra delay per fanout beyond the first
};

/// Delay sensitivities shared by all cells (relative units per sigma).
///
/// The parameter sigmas follow the paper (sigma(L)=15.7 %, sigma(tox)=5.3 %,
/// sigma(Vth)=4.4 % of nominal); the delay sensitivities are chosen so that
/// die-to-die (global) and within-die (local mismatch) delay variation end
/// up comparable, which is the documented regime at such nodes and the one
/// in which post-silicon *rebalancing* can rescue chips at all: a purely
/// chip-wide slowdown shifts every stage equally and no clock tuning can
/// buy it back.
struct VariationModel {
  std::array<double, kNumGlobalParams> global_sens = {0.35 * 0.157,
                                                      0.30 * 0.053,
                                                      0.50 * 0.044};
  /// Independent per-gate mismatch sigma (relative); RSS-attenuated along
  /// paths, so the per-path local spread is local_sigma / sqrt(depth).
  double local_sigma = 0.25;

  /// Spatially-correlated within-die sigma at path granularity (relative).
  /// Unlike per-gate mismatch it does NOT attenuate with path depth (all
  /// gates of a cone sit in the same region), so it dominates the per-path
  /// spread of long paths.  This is what makes a slice of failures exceed
  /// the tuning windows' reach -- the rescued-yield ceiling of Table I.
  double regional_sigma = 0.12;

  /// Standard deviation of the combined relative variation factor.
  double total_sigma() const;
};

class CellLibrary {
 public:
  /// Builds the default library (INV/BUF/NAND/NOR/AND/OR/XOR/XNOR + DFF).
  static CellLibrary standard();

  int add_cell(CellType cell);

  const CellType& cell(int id) const {
    return cells_[static_cast<std::size_t>(id)];
  }
  int num_cells() const { return static_cast<int>(cells_.size()); }

  /// Lookup by name; -1 if missing.  Matching is case-insensitive.
  int find(std::string_view name) const;

  const VariationModel& variation() const { return variation_; }
  VariationModel& variation() { return variation_; }

  /// Flip-flop timing: setup / hold nominal values (ps).
  double setup_ps() const { return setup_ps_; }
  double hold_ps() const { return hold_ps_; }

  int dff_cell() const { return dff_cell_; }

 private:
  std::vector<CellType> cells_;
  VariationModel variation_;
  double setup_ps_ = 12.0;
  double hold_ps_ = 4.0;
  int dff_cell_ = -1;
};

}  // namespace clktune::netlist
