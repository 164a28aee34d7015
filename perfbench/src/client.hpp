// Closed-loop load client: one thread multiplexing a few connections to the
// daemon, each replaying a fixed request script with a bounded number of
// requests in flight, byte-comparing every response with its oracle.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One request on the wire and the exact bytes the daemon must answer.
struct WireRequest {
  std::string bytes;
  std::string expected;       ///< oracle response, computed offline
  std::size_t decisions = 0;  ///< decisions carried; 0 = session control, not timed
  std::size_t correct = 0;    ///< oracle decisions equal to the generator's label
};

/// What one connection sends in one pass.
struct Script {
  std::string preamble;  ///< sent once after connect (the phd2 magic, or empty)
  std::vector<WireRequest> requests;
};

/// Totals over the decision-carrying requests of one or more passes.
struct PassTotals {
  std::size_t attempted = 0;
  std::size_t ok = 0;         ///< responses byte-equal to the oracle
  std::size_t decisions = 0;  ///< decisions attempted
  std::size_t correct = 0;    ///< decisions answered correctly and equal to the label
  std::vector<double> latency_ms;  ///< send -> complete response, ok requests only
};

class LoadClient {
 public:
  /// Opens one connection per script and sends each preamble. `depth`
  /// bounds the requests in flight per connection.
  LoadClient(const std::string& socket_path, const std::vector<Script>& scripts,
             std::size_t depth);
  ~LoadClient();

  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  /// Calls `tick` about every `period` while passes run (from this thread,
  /// between socket events); an empty `tick` stops the calls.
  void set_ticker(Clock::duration period, std::function<void(Clock::time_point)> tick);

  /// Replays every script once, all connections concurrently, and returns
  /// when each has its last response. A connection that answers a byte
  /// other than its oracle's, closes, or stalls for 10 s is closed; its
  /// remaining requests, in this pass and later ones, count as failed.
  void run_pass(PassTotals& totals);

 private:
  struct Conn {
    int fd = -1;
    const Script* script = nullptr;
    bool dead = false;
    std::size_t queued = 0;     ///< requests handed to the socket this pass
    std::size_t written = 0;    ///< requests fully written
    std::size_t write_off = 0;  ///< bytes of request `written` already written
    std::size_t done = 0;       ///< responses complete
    std::size_t match_off = 0;  ///< bytes of response `done` matched so far
    std::vector<Clock::time_point> sent_at;
  };

  void flush(Conn& conn);
  void receive(Conn& conn, Clock::time_point now, PassTotals& totals);
  void fail(Conn& conn);

  std::vector<Conn> conns_;
  std::size_t depth_;
  std::vector<char> buffer_;
  Clock::duration tick_period_{};
  Clock::time_point next_tick_{};
  std::function<void(Clock::time_point)> tick_;
};

}  // namespace perfbench
