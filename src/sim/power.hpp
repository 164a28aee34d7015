// Platform power model — reproduces the measurement columns of Table 2.
//
// Three power domains, as on the PULPv3 silicon (§2.2, §4.2):
//  * FLL / clock generation — constant 1.45 mW on PULPv3 ("not optimized
//    for low-power operation ... dominating the overall power at low
//    voltage"); a next-generation FLL [1] cuts it by 4x.
//  * SoC domain (L2 + peripherals) — scales with the SoC clock.
//  * Cluster domain — dynamic power (base interconnect/TCDM + per-active-
//    core) scaling with f and V^alpha; alpha ~= 2.2 absorbs the mild
//    super-quadratic voltage dependence (leakage + DIBL) observed between
//    the 0.7 V and 0.5 V rows of Table 2.
//
// The ARM Cortex-M4 reference is a flat per-MHz coefficient measured on the
// STM32F4-DISCOVERY at 1.85 V; it has no separately reported domains.
#pragma once

#include <cstdint>
#include <string>

namespace pulphd::sim {

struct OperatingPoint {
  double voltage = 0.7;   ///< cluster supply [V]
  double freq_mhz = 50.0; ///< cluster & SoC clock [MHz]
};

struct PowerBreakdown {
  double fll_mw = 0.0;
  double soc_mw = 0.0;
  double cluster_mw = 0.0;
  double total_mw() const noexcept { return fll_mw + soc_mw + cluster_mw; }
};

class PowerModel {
 public:
  /// PULPv3 fit (Table 2): FLL 1.45 mW; SoC 16.3 uW/MHz; cluster
  /// (27.0 + 8.6 * n_cores) uW/MHz at 0.7 V, voltage exponent 2.2.
  static PowerModel pulpv3();

  /// Same cluster coefficients with the next-generation low-power FLL [1]
  /// (4x lower clock-generation power) — the "would reduce ... leading to a
  /// further 2x reduction of system power" projection of §4.2.
  static PowerModel pulpv3_lowpower_fll();

  /// Wolf: same 28 nm-class coefficients as PULPv3's cluster scaled to the
  /// 8-core configuration; used for feasibility/latency checks (the paper
  /// reports no Wolf power table).
  static PowerModel wolf();

  /// STM32F407 @ 1.85 V: 474.5 uW/MHz, single domain.
  static PowerModel arm_cortex_m4();

  PowerBreakdown power(std::uint32_t active_cores, const OperatingPoint& op) const;

  /// Energy of running `cycles` at `op` with `active_cores`, in microjoule.
  double energy_uj(std::uint64_t cycles, std::uint32_t active_cores,
                   const OperatingPoint& op) const;

  /// Frequency (MHz) needed to finish `cycles` within `latency_ms`.
  static double required_freq_mhz(std::uint64_t cycles, double latency_ms);

  double max_freq_mhz() const noexcept { return max_freq_mhz_; }
  const std::string& name() const noexcept { return name_; }

 private:
  std::string name_;
  double fll_mw_ = 0.0;
  double soc_mw_per_mhz_ = 0.0;
  double cluster_base_mw_per_mhz_ = 0.0;  ///< at nominal voltage
  double cluster_core_mw_per_mhz_ = 0.0;  ///< per active core, at nominal voltage
  double nominal_voltage_ = 0.7;
  double voltage_exponent_ = 2.2;
  double max_freq_mhz_ = 500.0;
};

}  // namespace pulphd::sim
