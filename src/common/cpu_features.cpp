#include "common/cpu_features.hpp"

namespace pulphd {

namespace {

CpuFeatures detect() noexcept {
  CpuFeatures f;
#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
  f.avx2 = __builtin_cpu_supports("avx2") != 0;
#endif
  return f;
}

}  // namespace

const CpuFeatures& cpu_features() noexcept {
  static const CpuFeatures features = detect();
  return features;
}

std::string cpu_feature_summary() {
  const CpuFeatures& f = cpu_features();
  return f.avx2 ? "avx2" : "none";
}

}  // namespace pulphd
