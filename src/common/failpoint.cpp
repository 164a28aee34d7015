#include "common/failpoint.hpp"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "common/sync.hpp"

namespace pulphd::failpoint {
namespace {

/// The closed world of probe-able points. Adding a probe to production code
/// means adding its name here AND documenting it in docs/operations.md —
/// tools/check_docs.py enforces the doc half in both directions.
constexpr std::string_view kRegisteredFailpoints[] = {
    "io.open",       // open(2) of a data file (model checkpoint, CSV)
    "io.read",       // read(2) from a data file
    "io.write",      // write(2) to a data file (supports short(N))
    "io.fsync",      // fsync(2) of a data file or its parent directory
    "io.rename",     // rename(2) publishing a checkpoint temp sibling
    "io.close",      // close(2) of a data file
    "serve.accept",  // accept4(2) on a server listener
    "serve.adopt",   // a shard's epoll registration of a newly accepted connection
    "serve.classify",  // worker-side classify execution (stall for timeouts)
};

bool is_registered(std::string_view name) {
  for (const std::string_view known : kRegisteredFailpoints) {
    if (known == name) return true;
  }
  return false;
}

/// Symbolic errno tokens accepted by err(...) — the ones the reliability
/// layer's error paths actually distinguish.
int parse_errno_token(const std::string& token) {
  static const std::unordered_map<std::string, int> kNames = {
      {"ENOSPC", ENOSPC}, {"EIO", EIO},
      {"EMFILE", EMFILE}, {"ENFILE", ENFILE},
      {"EINTR", EINTR},   {"ECONNABORTED", ECONNABORTED},
      {"ENOMEM", ENOMEM}, {"ENOBUFS", ENOBUFS},
      {"EACCES", EACCES}, {"EAGAIN", EAGAIN},
      {"ENOENT", ENOENT}, {"EDQUOT", EDQUOT},
  };
  const auto it = kNames.find(token);
  if (it != kNames.end()) return it->second;
  if (!token.empty() && token.find_first_not_of("0123456789") == std::string::npos) {
    return std::stoi(token);
  }
  throw std::runtime_error("failpoint: unknown errno token \"" + token +
                           "\" (use a symbolic name like ENOSPC or a decimal value)");
}

/// One armed point: the injection template plus its firing trigger.
struct Point {
  Injection injection;
  enum class Trigger : std::uint8_t { kAlways, kCountdown, kProbability } trigger =
      Trigger::kAlways;
  std::uint64_t remaining = 0;  // kCountdown: evaluations left that fire
  double probability = 1.0;     // kProbability
  std::uint64_t trips = 0;      // times this point actually fired
};

struct State {
  Mutex mutex;
  std::unordered_map<std::string, Point> points PULPHD_GUARDED_BY(mutex);
  // Deterministic xorshift64* stream for p= triggers: chaos runs must be
  // reproducible, so no std::random_device here.
  std::uint64_t rng PULPHD_GUARDED_BY(mutex) = 0x9e3779b97f4a7c15ull;
};

State& state() {
  static State* s = new State;  // leaked: probes may outlive static dtors
  return *s;
}

double next_uniform_locked(State& s) PULPHD_REQUIRES(s.mutex) {
  s.rng ^= s.rng >> 12;
  s.rng ^= s.rng << 25;
  s.rng ^= s.rng >> 27;
  const std::uint64_t x = s.rng * 0x2545f4914f6cdd1dull;
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// Parses one `name=action[:trigger]` entry into the map.
void parse_entry(const std::string& entry, std::unordered_map<std::string, Point>& points) {
  const std::size_t eq = entry.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw std::runtime_error("failpoint: entry \"" + entry + "\" is not name=action");
  }
  const std::string name = entry.substr(0, eq);
  if (!is_registered(name)) {
    std::string known;
    for (const std::string_view k : kRegisteredFailpoints) {
      if (!known.empty()) known += ", ";
      known += k;
    }
    throw std::runtime_error("failpoint: unknown point \"" + name + "\" (registered: " + known +
                             ")");
  }
  std::string action = entry.substr(eq + 1);
  Point point;
  const std::size_t colon = action.rfind(':');
  // A ':' inside parentheses would be part of the action; the grammar has
  // none, so the last ':' after the closing ')' separates the trigger.
  if (colon != std::string::npos && colon > action.find(')')) {
    const std::string trigger = action.substr(colon + 1);
    action.resize(colon);
    if (trigger == "once") {
      point.trigger = Point::Trigger::kCountdown;
      point.remaining = 1;
    } else if (trigger.rfind("times=", 0) == 0) {
      point.trigger = Point::Trigger::kCountdown;
      point.remaining = std::stoull(trigger.substr(6));
    } else if (trigger.rfind("p=", 0) == 0) {
      point.trigger = Point::Trigger::kProbability;
      point.probability = std::stod(trigger.substr(2));
      if (!(point.probability >= 0.0 && point.probability <= 1.0)) {
        throw std::runtime_error("failpoint: probability out of [0,1] in \"" + entry + "\"");
      }
    } else {
      throw std::runtime_error("failpoint: unknown trigger \"" + trigger + "\" in \"" + entry +
                               "\" (want once, times=N, or p=X)");
    }
  }
  const std::size_t open = action.find('(');
  if (open == std::string::npos || action.back() != ')') {
    throw std::runtime_error("failpoint: action \"" + action + "\" in \"" + entry +
                             "\" is not err(E), short(N), or stall(MS)");
  }
  const std::string verb = action.substr(0, open);
  const std::string arg = action.substr(open + 1, action.size() - open - 2);
  if (verb == "err") {
    point.injection.kind = Injection::Kind::kError;
    point.injection.error = parse_errno_token(arg);
  } else if (verb == "short") {
    point.injection.kind = Injection::Kind::kShortWrite;
    point.injection.bytes = static_cast<std::size_t>(std::stoull(arg));
    point.injection.error = ENOSPC;
  } else if (verb == "stall") {
    point.injection.kind = Injection::Kind::kStall;
    point.injection.stall_ms = static_cast<std::uint32_t>(std::stoull(arg));
  } else {
    throw std::runtime_error("failpoint: unknown action \"" + verb + "\" in \"" + entry +
                             "\" (want err, short, or stall)");
  }
  if (!points.emplace(name, point).second) {
    throw std::runtime_error("failpoint: point \"" + name + "\" configured twice");
  }
}

}  // namespace

namespace detail {

std::atomic<int> g_active{0};

Injection evaluate_active(std::string_view name) noexcept {
  Injection fired;
  State& s = state();
  {
    const MutexLock lock(s.mutex);
    const auto it = s.points.find(std::string(name));
    if (it == s.points.end()) return {};
    Point& point = it->second;
    switch (point.trigger) {
      case Point::Trigger::kAlways:
        break;
      case Point::Trigger::kCountdown:
        if (point.remaining == 0) return {};
        --point.remaining;
        break;
      case Point::Trigger::kProbability:
        if (next_uniform_locked(s) >= point.probability) return {};
        break;
    }
    ++point.trips;
    fired = point.injection;
  }
  if (fired.kind == Injection::Kind::kStall) {
    // Sleep outside the lock so a stalled point never serializes others.
    std::this_thread::sleep_for(std::chrono::milliseconds(fired.stall_ms));
    return {};
  }
  return fired;
}

}  // namespace detail

void configure(const std::string& spec) {
  std::unordered_map<std::string, Point> fresh;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::size_t end = comma == std::string::npos ? spec.size() : comma;
    const std::string entry = spec.substr(start, end - start);
    if (!entry.empty()) parse_entry(entry, fresh);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  State& s = state();
  const MutexLock lock(s.mutex);
  s.points = std::move(fresh);
  detail::g_active.store(s.points.empty() ? 0 : 1, std::memory_order_relaxed);
}

void configure_from_env() {
  const char* spec = std::getenv(kEnvVar);
  if (spec != nullptr && spec[0] != '\0') configure(spec);
}

void clear() noexcept {
  State& s = state();
  const MutexLock lock(s.mutex);
  s.points.clear();
  detail::g_active.store(0, std::memory_order_relaxed);
}

std::vector<std::string_view> registered_names() {
  return {std::begin(kRegisteredFailpoints), std::end(kRegisteredFailpoints)};
}

std::uint64_t trip_count(std::string_view name) noexcept {
  State& s = state();
  const MutexLock lock(s.mutex);
  const auto it = s.points.find(std::string(name));
  return it == s.points.end() ? 0 : it->second.trips;
}

}  // namespace pulphd::failpoint
