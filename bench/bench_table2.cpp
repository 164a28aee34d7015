// Table 2: power comparison of the HD algorithm on the ARM Cortex-M4 and
// PULPv3 at the 10 ms detection latency (10,000-D, N = 1, 4 channels).
//
// For each platform row: run the chain on the cycle model, derive the
// clock frequency that meets 10 ms, evaluate the power model at that
// operating point, and report the boost factor versus the M4 — exactly the
// procedure of §4.2.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "common/table.hpp"

int main() {
  using namespace pulphd;
  using sim::OperatingPoint;
  using sim::PowerModel;

  std::puts("Reproducing Table 2: power of the HD chain at 10 ms latency, 10,000-D\n");

  const hd::HdClassifier model = bench::trained_model(10000);
  constexpr double kLatencyMs = 10.0;

  struct Row {
    const char* name;
    std::uint64_t cycles;
    double voltage;
    std::uint32_t cores;
    PowerModel power;
    // paper reference values
    double paper_cyc_k, paper_freq, paper_tot_mw, paper_boost;
  };

  const std::uint64_t m4_cycles =
      bench::run_chain(sim::ClusterConfig::arm_cortex_m4(), model).total();
  const std::uint64_t p1_cycles =
      bench::run_chain(sim::ClusterConfig::pulpv3(1), model).total();
  const std::uint64_t p4_cycles =
      bench::run_chain(sim::ClusterConfig::pulpv3(4), model).total();

  std::vector<Row> rows = {
      {"ARM CORTEX M4 @1.85V", m4_cycles, 1.85, 1, PowerModel::arm_cortex_m4(), 439,
       43.90, 20.83, 1.0},
      {"PULPv3 1 CORE @0.7V", p1_cycles, 0.7, 1, PowerModel::pulpv3(), 533, 53.30, 4.22,
       4.9},
      {"PULPv3 4 CORES @0.7V", p4_cycles, 0.7, 4, PowerModel::pulpv3(), 143, 14.30, 2.56,
       8.1},
      {"PULPv3 4 CORES @0.5V", p4_cycles, 0.5, 4, PowerModel::pulpv3(), 143, 14.30, 2.10,
       9.9},
  };

  double m4_total_mw = 0.0;
  TextTable table("Table 2 — cycles (CYC), frequency and power at 10 ms latency");
  table.set_header({"Platform", "CYC[k]", "FREQ[MHz]", "FLL[mW]", "SOC[mW]", "CLUSTER[mW]",
                    "TOT[mW]", "BOOST", "paper TOT", "delta"});
  for (const Row& row : rows) {
    const double freq = PowerModel::required_freq_mhz(row.cycles, kLatencyMs);
    const OperatingPoint op{.voltage = row.voltage, .freq_mhz = freq};
    const sim::PowerBreakdown p = row.power.power(row.cores, op);
    if (m4_total_mw == 0.0) m4_total_mw = p.total_mw();
    table.add_row({row.name, fmt_cycles_k(static_cast<double>(row.cycles)),
                   fmt_double(freq, 2), fmt_mw(p.fll_mw), fmt_mw(p.soc_mw),
                   fmt_mw(p.cluster_mw), fmt_mw(p.total_mw()),
                   fmt_speedup(m4_total_mw / p.total_mw()), fmt_mw(row.paper_tot_mw),
                   bench::delta_pct(p.total_mw(), row.paper_tot_mw)});
  }
  std::fputs(table.render().c_str(), stdout);

  // Headline derived claims.
  const PowerModel pulp = PowerModel::pulpv3();
  const double f1 = PowerModel::required_freq_mhz(p1_cycles, kLatencyMs);
  const double f4 = PowerModel::required_freq_mhz(p4_cycles, kLatencyMs);
  const double e1 = pulp.energy_uj(p1_cycles, 1, {.voltage = 0.7, .freq_mhz = f1});
  const double e4 = pulp.energy_uj(p4_cycles, 4, {.voltage = 0.5, .freq_mhz = f4});
  std::printf("\n4-core vs 1-core PULPv3: %.2fx speed-up, %.2fx energy saving"
              " (paper: 3.7x, 2x)\n",
              static_cast<double>(p1_cycles) / static_cast<double>(p4_cycles), e1 / e4);

  // §4.2's low-power-FLL projection.
  const PowerModel next = PowerModel::pulpv3_lowpower_fll();
  const double base_mw = pulp.power(4, {.voltage = 0.5, .freq_mhz = f4}).total_mw();
  const double next_mw = next.power(4, {.voltage = 0.5, .freq_mhz = f4}).total_mw();
  std::printf("Next-gen FLL projection: %.2f mW -> %.2f mW (%.1fx vs M4; paper: ~20x)\n",
              base_mw, next_mw, m4_total_mw / next_mw);
  return 0;
}
