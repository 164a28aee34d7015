#include "kernels/backend.hpp"

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "kernels/backend_registry.hpp"

namespace pulphd::kernels {

namespace {

const Backend* const g_compiled[] = {
    &detail::kPortableBackend,
#if defined(PULPHD_HAVE_AVX2)
    &detail::kAvx2Backend,
#endif
};

// The names the dispatcher understands, whether or not they were compiled
// into this binary — error messages distinguish "never heard of it" from
// "not available here".
constexpr const char* kKnownNames[] = {"portable", "avx2"};

bool is_known_name(std::string_view name) noexcept {
  for (const char* known : kKnownNames) {
    if (name == known) return true;
  }
  return false;
}

std::string available_names() {
  std::string out;
  for (const Backend* b : g_compiled) {
    if (!b->supported()) continue;
    if (!out.empty()) out += ", ";
    out += b->name;
  }
  return out;
}

const Backend& widest_supported() noexcept {
  const Backend* best = &detail::kPortableBackend;
  for (const Backend* b : g_compiled) {
    if (b->supported() && b->vector_bits > best->vector_bits) best = b;
  }
  return *best;
}

std::atomic<const Backend*> g_active{nullptr};

}  // namespace

const Backend& portable_backend() noexcept { return detail::kPortableBackend; }

std::span<const Backend* const> compiled_backends() noexcept { return g_compiled; }

const Backend* find_backend(std::string_view name) noexcept {
  for (const Backend* b : g_compiled) {
    if (name == b->name) return b;
  }
  return nullptr;
}

const Backend& resolve_backend_choice(std::string_view name) {
  const Backend* b = find_backend(name);
  if (b == nullptr) {
    if (is_known_name(name)) {
      throw std::runtime_error("PULPHD_BACKEND: backend '" + std::string(name) +
                               "' is not compiled into this binary (available: " +
                               available_names() + ")");
    }
    throw std::runtime_error("PULPHD_BACKEND: unknown backend '" + std::string(name) +
                             "' (valid values: portable, avx2; available here: " +
                             available_names() + ")");
  }
  if (!b->supported()) {
    throw std::runtime_error("PULPHD_BACKEND: backend '" + std::string(name) +
                             "' is compiled in but not supported by this CPU (available: " +
                             available_names() + ")");
  }
  return *b;
}

const Backend& active_backend() {
  const Backend* cached = g_active.load(std::memory_order_acquire);
  if (cached != nullptr) return *cached;
  // First use (or first use after force_backend(nullptr)): an explicit env
  // override wins and a bad value fails loudly; otherwise pick the widest
  // backend the CPU supports. Concurrent first calls race benignly — both
  // resolve to the same descriptor.
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only getenv; nothing in the
  // process calls setenv/putenv, so there is no writer to race with.
  const char* env = std::getenv("PULPHD_BACKEND");
  const Backend& chosen =
      (env != nullptr && *env != '\0') ? resolve_backend_choice(env) : widest_supported();
  g_active.store(&chosen, std::memory_order_release);
  return chosen;
}

void force_backend(const Backend* backend) noexcept {
  g_active.store(backend, std::memory_order_release);
}

}  // namespace pulphd::kernels
