// On-device learning cost (§3: the AM "can be continuously updated for
// on-line learning"). Prices one online AM update (accumulate an encoded
// example + re-threshold the prototype) on every platform and compares it
// with one classification — the update must fit the same real-time budget
// for online learning to be viable.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "kernels/training.hpp"

int main() {
  using namespace pulphd;

  std::puts("On-device online-learning cost: one AM update vs one classification,"
            " 10,000-D\n");

  const hd::HdClassifier model = bench::trained_model(10000);
  Xoshiro256StarStar rng(1);
  const hd::Hypervector example = hd::Hypervector::random(10000, rng);

  TextTable table("Online update vs classification (cycles)");
  table.set_header({"Platform", "update acc(k)", "update thr(k)", "update total(k)",
                    "classify(k)", "update/classify"});

  const std::vector<sim::ClusterConfig> clusters = {
      sim::ClusterConfig::arm_cortex_m4(),
      sim::ClusterConfig::pulpv3(1),
      sim::ClusterConfig::pulpv3(4),
      sim::ClusterConfig::wolf(1, true),
      sim::ClusterConfig::wolf(8, true),
  };
  for (const sim::ClusterConfig& cluster : clusters) {
    std::vector<std::int16_t> counters(10000, 0);
    std::vector<Word> prototype(words_for_dim(10000), 0u);
    const kernels::TrainingRun run =
        kernels::online_update(cluster, 10000, example.words(), counters, prototype);
    const std::uint64_t classify = bench::run_chain(cluster, model).total();
    table.add_row({cluster.name,
                   fmt_cycles_k(static_cast<double>(run.accumulate_cycles)),
                   fmt_cycles_k(static_cast<double>(run.threshold_cycles)),
                   fmt_cycles_k(static_cast<double>(run.total())),
                   fmt_cycles_k(static_cast<double>(classify)),
                   fmt_double(static_cast<double>(run.total()) /
                                  static_cast<double>(classify),
                              2)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::puts("\nShape check: an online update costs the same order as a classification\n"
            "and parallelizes the same way, so a labeled example can be absorbed\n"
            "within one or two detection periods — online learning is viable at mW\n"
            "power, as the paper asserts.");
  return 0;
}
