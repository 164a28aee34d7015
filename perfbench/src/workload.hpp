// The benchmark's workloads: synthetic EMG from the run seed, per-workload
// models saved to disk for the daemon, and every request pre-encoded with
// the exact response the daemon must give (the offline oracle).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "client.hpp"

namespace perfbench {

struct ModelFile {
  std::string name;
  std::string path;
};

struct Workload {
  std::string name;
  std::size_t depth = 0;  ///< requests in flight per connection
  std::vector<ModelFile> models;
  std::vector<Script> scripts;  ///< one per connection

  /// One pass of every script, as the oracle answers it.
  std::size_t pass_requests = 0;  ///< decision-carrying requests
  std::size_t pass_decisions = 0;
  std::size_t pass_correct = 0;   ///< oracle decisions equal to the generator's label

  /// Per decision-carrying request, for the computed per-layer counts.
  std::size_t samples_per_request = 0;
  std::size_t queries_per_request = 0;
  std::size_t channels = 0;
  std::size_t dim = 0;
};

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Builds workload `name` from `seed`: generates the EMG data, trains and
/// saves the models under `dir`, and encodes every request and its oracle
/// response. Oracles come from the models as re-loaded from their files,
/// which is exactly what the daemon serves. Throws on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed, const std::string& dir);

}  // namespace perfbench
