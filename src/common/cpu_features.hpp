// Host CPU feature detection for the runtime kernel-backend dispatch.
//
// Queried exactly once per process (the result never changes); the kernel
// backend registry uses it to decide which compiled SIMD backends are
// actually runnable on this machine before the first hot-path call.
#pragma once

#include <string>

namespace pulphd {

struct CpuFeatures {
  bool avx2 = false;  ///< x86-64 AVX2 (256-bit integer SIMD)
};

/// Features of the CPU this process is running on; detected on first call
/// (CPUID on x86; none elsewhere) and cached.
const CpuFeatures& cpu_features() noexcept;

/// Human-readable summary, e.g. "avx2" or "none" (diagnostics/bench output).
std::string cpu_feature_summary();

}  // namespace pulphd
