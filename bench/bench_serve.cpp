// bench_serve — serve-path load generator: text (phd1) vs binary (phd2).
//
// Starts a real ClassifyServer (acceptor + run-to-completion shards) on a Unix
// socket, drives it with pipelined bulk-trial classify requests from N
// concurrent connections, and writes BENCH_serve.json in the same
// pulphd-bench-v1 schema family as BENCH_hd_ops.json:
//
//   {"mode": "binary", "connections": 4, "pipeline": 8,
//    "trials_per_request": 32, "requests": 1200, "bytes_per_request": 10496,
//    "requests_per_s": 911.0, "p50_ms": 8.6, "p99_ms": 14.2}
//
// The interesting comparison is the wire, not the classifier: the model is
// deliberately small (dim 256) and the trials wide (32 channels, a
// dense-array EMG shape) so request decode + response encode are a visible
// share of the work, which is exactly the cost the phd2 binary framing
// removes (raw float32 bits instead of %.9g parse/format).
//
// Before any timing, both transports are checked byte-for-byte against the
// offline HdClassifier::predict_batch path: the expected response is
// encoded with the same ResponseEncoder the server uses, so any
// wire-introduced difference — one float, one byte — fails the run.
//
// After the throughput rows, an overload scenario exercises the client
// retry policy (serve/retry.hpp): a max_connections=1 server refuses the
// other clients with `err code=overloaded`, and they back off and retry
// until served. The observed retry counters land in the JSON under
// "retry" — a degraded run is visible in the artifact, never silent.
//
// A streaming scenario opens one phd2 stream session per connection and
// replays hop-sized pushes, each waiting for its decision frame: the
// mode="stream" rows report windows decided ("requests") and per-window
// send→decision latency (p50/p99) — the window→decision number the
// streaming protocol exists to bound. Every decision frame is compared
// byte-for-byte against the offline predict_batch path.
//
// Flags: --quick (CI smoke: fewer connections/requests), --out=PATH.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "hd/classifier.hpp"
#include "serve/registry.hpp"
#include "serve/retry.hpp"
#include "serve/server.hpp"

namespace {

using namespace pulphd;
using Clock = std::chrono::steady_clock;

// --- workload --------------------------------------------------------------

constexpr std::size_t kTrialsPerRequest = 32;
constexpr std::size_t kSamplesPerTrial = 20;
constexpr std::size_t kPipelineDepth = 8;
constexpr std::size_t kStreamWindow = 20;  ///< samples per decision window
constexpr std::size_t kStreamHop = 5;      ///< samples between decisions
const char kModelName[] = "bench";

hd::HdClassifier bench_classifier() {
  hd::ClassifierConfig cfg;
  cfg.dim = 256;  // small, but 32-channel spatial encode still dominates classify
  cfg.channels = 32;  // dense-array EMG: the bulk-trial wire workload
  cfg.levels = 8;
  cfg.max_value = 7.0;
  cfg.classes = 5;
  cfg.ngram = 3;
  cfg.seed = 0x5e47e;
  hd::HdClassifier clf(cfg);
  Xoshiro256StarStar rng(0x7a41);
  for (std::size_t c = 0; c < cfg.classes; ++c) {
    hd::Trial trial;
    for (std::size_t s = 0; s < 16; ++s) {
      hd::Sample sample(cfg.channels);
      for (auto& v : sample) {
        v = static_cast<float>((rng.next() + 997 * c) % 7000u) / 1000.0f;
      }
      trial.push_back(std::move(sample));
    }
    clf.train(trial, c);
  }
  return clf;
}

std::vector<hd::Trial> bench_trials() {
  Xoshiro256StarStar rng(0xb3c4);
  std::vector<hd::Trial> trials(kTrialsPerRequest);
  for (auto& trial : trials) {
    for (std::size_t s = 0; s < kSamplesPerTrial; ++s) {
      hd::Sample sample(32);
      for (auto& v : sample) v = static_cast<float>(rng.next() % 7000u) / 1000.0f;
      trial.push_back(std::move(sample));
    }
  }
  return trials;
}

/// A continuous sample stream long enough for `windows` hop-spaced decisions.
std::vector<hd::Sample> bench_stream(std::size_t windows) {
  const std::size_t total = kStreamWindow + (windows - 1) * kStreamHop;
  Xoshiro256StarStar rng(0x57e4);
  std::vector<hd::Sample> stream(total);
  for (auto& sample : stream) {
    sample.resize(32);
    for (auto& v : sample) v = static_cast<float>(rng.next() % 7000u) / 1000.0f;
  }
  return stream;
}

// --- blocking client plumbing ---------------------------------------------

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("bench_serve: socket failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("bench_serve: connect failed: " + path);
  }
  return fd;
}

void send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("bench_serve: send failed");
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
}

std::string read_exact(int fd, std::size_t bytes) {
  std::string out(bytes, '\0');
  std::size_t got = 0;
  while (got < bytes) {
    const ssize_t n = ::read(fd, out.data() + got, bytes - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("bench_serve: read failed");
    }
    if (n == 0) throw std::runtime_error("bench_serve: server closed mid-response");
    got += static_cast<std::size_t>(n);
  }
  return out;
}

// --- rows ------------------------------------------------------------------

struct ServeRow {
  std::string mode;  ///< "text", "binary", or "stream" (per-window latency)
  std::size_t connections = 1;
  std::size_t pipeline = 1;
  std::size_t requests = 0;  ///< total across all connections
  std::size_t bytes_per_request = 0;
  double requests_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

double percentile(std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(sorted_ms.size() - 1));
  return sorted_ms[idx];
}

/// One connection's share of a load row: a sliding window of `depth`
/// outstanding requests, every response checked against the expected bytes
/// (all requests are identical, so all responses are too — verified
/// byte-for-byte in the preflight).
void drive_connection(const std::string& socket_path, bool binary,
                      const std::string& request, const std::string& expected_response,
                      std::size_t total, std::size_t depth,
                      std::vector<double>& latencies_ms, std::atomic<int>& failures) {
  try {
    const int fd = connect_unix(socket_path);
    if (binary) send_all(fd, serve::kBinaryMagic);
    std::deque<Clock::time_point> sent_at;
    std::size_t sent = 0;
    std::size_t done = 0;
    while (done < total) {
      while (sent < total && sent - done < depth) {
        send_all(fd, request);
        sent_at.push_back(Clock::now());
        ++sent;
      }
      const std::string response = read_exact(fd, expected_response.size());
      const auto now = Clock::now();
      if (response != expected_response) {
        throw std::runtime_error("bench_serve: response bytes diverged from offline path");
      }
      latencies_ms.push_back(
          std::chrono::duration<double, std::milli>(now - sent_at.front()).count());
      sent_at.pop_front();
      ++done;
    }
    ::close(fd);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "connection worker: %s\n", e.what());
    failures.fetch_add(1);
  }
}

ServeRow run_load(const std::string& socket_path, bool binary, const std::string& request,
                  const std::string& expected_response, std::size_t connections,
                  std::size_t depth, std::size_t requests_per_connection) {
  std::vector<std::vector<double>> latencies(connections);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(connections);
  const auto begin = Clock::now();
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      drive_connection(socket_path, binary, request, expected_response,
                       requests_per_connection, depth, latencies[c], failures);
    });
  }
  for (auto& t : threads) t.join();
  const auto end = Clock::now();
  if (failures.load() != 0) throw std::runtime_error("bench_serve: load generation failed");

  std::vector<double> all_ms;
  for (const auto& per_conn : latencies) {
    all_ms.insert(all_ms.end(), per_conn.begin(), per_conn.end());
  }
  std::sort(all_ms.begin(), all_ms.end());

  ServeRow row;
  row.mode = binary ? "binary" : "text";
  row.connections = connections;
  row.pipeline = depth;
  row.requests = connections * requests_per_connection;
  row.bytes_per_request = request.size();
  const double seconds = std::chrono::duration<double>(end - begin).count();
  row.requests_per_s = static_cast<double>(row.requests) / seconds;
  row.p50_ms = percentile(all_ms, 0.50);
  row.p99_ms = percentile(all_ms, 0.99);
  return row;
}

// --- streaming scenario -----------------------------------------------------

/// Precomputed bytes for one whole streaming session on the binary wire:
/// open, a prefill push (window − hop samples, emits nothing), then one
/// hop-sized push per window — each of which the server must answer with
/// exactly one decision frame, byte-identical to the offline batch path.
struct StreamScript {
  std::string open_request;
  std::string opened_expected;
  std::string prefill_request;
  std::string prefill_expected;
  std::vector<std::string> push_requests;   ///< one per window
  std::vector<std::string> push_expected;   ///< stream_windows(w, {offline[w]})
  std::string close_request;
  std::string closed_expected;
};

StreamScript make_stream_script(const hd::HdClassifier& classifier, std::size_t windows) {
  const std::vector<hd::Sample> stream = bench_stream(windows);
  std::vector<hd::Trial> slices(windows);
  for (std::size_t w = 0; w < windows; ++w) {
    slices[w].assign(stream.begin() + static_cast<std::ptrdiff_t>(w * kStreamHop),
                     stream.begin() + static_cast<std::ptrdiff_t>(w * kStreamHop + kStreamWindow));
  }
  const std::vector<hd::AmDecision> offline = classifier.predict_batch(slices);

  serve::ResponseEncoder encoder(serve::Wire::kBinary);
  StreamScript script;
  script.open_request =
      serve::format_binary_stream_open_request(kModelName, kStreamWindow, kStreamHop);
  script.opened_expected = encoder.stream_opened(kModelName, kStreamWindow, kStreamHop);
  const std::span<const hd::Sample> samples(stream);
  script.prefill_request = serve::format_binary_stream_push_request(
      samples.subspan(0, kStreamWindow - kStreamHop));
  script.prefill_expected = encoder.stream_windows(0, std::span<const hd::AmDecision>());
  for (std::size_t w = 0; w < windows; ++w) {
    script.push_requests.push_back(serve::format_binary_stream_push_request(
        samples.subspan(kStreamWindow - kStreamHop + w * kStreamHop, kStreamHop)));
    script.push_expected.push_back(
        encoder.stream_windows(w, std::span<const hd::AmDecision>(&offline[w], 1)));
  }
  script.close_request = serve::format_binary_command(serve::kFrameStreamClose);
  script.closed_expected = encoder.stream_closed(windows);
  return script;
}

/// One connection running one full streaming session, unpipelined: each
/// hop push waits for its decision frame, and the send→decision time is
/// the per-window latency this benchmark exists to publish. Every response
/// is compared byte-for-byte against the offline path.
void drive_stream_connection(const std::string& socket_path, const StreamScript& script,
                             std::vector<double>& latencies_ms, std::atomic<int>& failures) {
  try {
    const int fd = connect_unix(socket_path);
    send_all(fd, serve::kBinaryMagic);
    const auto exchange = [fd](const std::string& request, const std::string& expected) {
      send_all(fd, request);
      if (read_exact(fd, expected.size()) != expected) {
        throw std::runtime_error(
            "bench_serve: stream response bytes diverged from offline path");
      }
    };
    exchange(script.open_request, script.opened_expected);
    exchange(script.prefill_request, script.prefill_expected);
    for (std::size_t w = 0; w < script.push_requests.size(); ++w) {
      const auto t0 = Clock::now();
      exchange(script.push_requests[w], script.push_expected[w]);
      latencies_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    }
    exchange(script.close_request, script.closed_expected);
    ::close(fd);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stream worker: %s\n", e.what());
    failures.fetch_add(1);
  }
}

ServeRow run_stream(const std::string& socket_path, const StreamScript& script,
                    std::size_t connections) {
  std::vector<std::vector<double>> latencies(connections);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(connections);
  const auto begin = Clock::now();
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      drive_stream_connection(socket_path, script, latencies[c], failures);
    });
  }
  for (auto& t : threads) t.join();
  const auto end = Clock::now();
  if (failures.load() != 0) throw std::runtime_error("bench_serve: stream scenario failed");

  std::vector<double> all_ms;
  for (const auto& per_conn : latencies) {
    all_ms.insert(all_ms.end(), per_conn.begin(), per_conn.end());
  }
  std::sort(all_ms.begin(), all_ms.end());

  ServeRow row;
  row.mode = "stream";
  row.connections = connections;
  row.pipeline = 1;  // hop pushes are latency probes, never overlapped
  row.requests = connections * script.push_requests.size();  // = windows decided
  row.bytes_per_request = script.push_requests.empty() ? 0 : script.push_requests[0].size();
  const double seconds = std::chrono::duration<double>(end - begin).count();
  row.requests_per_s = static_cast<double>(row.requests) / seconds;
  row.p50_ms = percentile(all_ms, 0.50);
  row.p99_ms = percentile(all_ms, 0.99);
  return row;
}

// --- overload / retry scenario ---------------------------------------------

/// One request/response exchange on a connection the server may have
/// already rejected (`err code=overloaded`) and closed: a send or read
/// torn down by the peer (EPIPE/ECONNRESET) returns false — the same
/// rejection seen from the other side — and any other failure throws.
/// Reads until `limit` bytes or EOF, since the rejection line is short.
bool try_exchange(int fd, std::string_view request, std::size_t limit, std::string& response) {
  while (!request.empty()) {
    const ssize_t n = ::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) return false;
      throw std::runtime_error("bench_serve: send failed");
    }
    request.remove_prefix(static_cast<std::size_t>(n));
  }
  response.clear();
  char chunk[4096];
  while (response.size() < limit) {
    const std::size_t want = std::min(sizeof(chunk), limit - response.size());
    const ssize_t n = ::read(fd, chunk, want);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET) return false;
      throw std::runtime_error("bench_serve: read failed");
    }
    if (n == 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
  }
  return true;
}

/// `clients` text-mode clients hammer a max_connections=1 server, one
/// connection per request. Every refusal (`err code=overloaded`) is
/// retried with capped exponential backoff until served; the returned
/// stats say how hard the clients had to try.
serve::RetryStats run_overload(const std::string& socket_path, const std::string& request,
                               const std::string& expected_response, std::size_t clients,
                               std::size_t requests_per_client) {
  std::vector<serve::RetryStats> stats(clients);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        serve::BackoffPolicy policy;
        policy.initial = std::chrono::milliseconds(2);
        policy.cap = std::chrono::milliseconds(50);
        policy.max_attempts = 200;  // generous: the point is to converge, not give up
        policy.jitter_seed = 0x9eb1 + c;
        for (std::size_t r = 0; r < requests_per_client; ++r) {
          serve::Backoff backoff(policy);
          for (;;) {
            const int fd =
                serve::connect_unix_retry(socket_path, policy, &stats[c]);
            std::string response;
            const bool io_ok = try_exchange(fd, request, expected_response.size(), response);
            ::close(fd);
            if (io_ok && response == expected_response) break;
            // A torn exchange, an empty read (the rejection line was
            // discarded by the RST) or the rejection line itself all mean
            // the same thing: the server was at --max-conns. Anything
            // else is a real divergence.
            if (io_ok && !response.empty() &&
                response.rfind("err code=overloaded", 0) != 0) {
              throw std::runtime_error("bench_serve: unexpected overload-scenario response");
            }
            ++stats[c].overloaded_retries;
            const auto delay = backoff.next_delay();
            if (!delay) {
              ++stats[c].give_ups;
              throw std::runtime_error("bench_serve: overload retry budget exhausted");
            }
            std::this_thread::sleep_for(*delay);
          }
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "overload client: %s\n", e.what());
        failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  if (failures.load() != 0) throw std::runtime_error("bench_serve: overload scenario failed");
  serve::RetryStats total;
  for (const serve::RetryStats& s : stats) {
    total.connect_retries += s.connect_retries;
    total.overloaded_retries += s.overloaded_retries;
    total.give_ups += s.give_ups;
  }
  return total;
}

// --- output ----------------------------------------------------------------

void write_json(const std::vector<ServeRow>& rows, const serve::RetryStats& retry,
                const std::string& path, bool quick, std::size_t workers) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("bench_serve: cannot open " + path);
  out << "{\n  \"schema\": \"pulphd-bench-v1\",\n  \"bench\": \"bench_serve\",\n";
  out << "  \"cpu_features\": \"" << cpu_feature_summary() << "\",\n";
  out << "  \"cores\": " << ThreadPool::hardware_threads() << ",\n";
  out << "  \"serve_workers\": " << workers << ",\n";
  out << "  \"trials_per_request\": " << kTrialsPerRequest << ",\n";
  out << "  \"samples_per_trial\": " << kSamplesPerTrial << ",\n";
  out << "  \"stream_window\": " << kStreamWindow << ",\n";
  out << "  \"stream_hop\": " << kStreamHop << ",\n";
  out << "  \"quick\": " << (quick ? "true" : "false") << ",\n  \"rows\": [\n";
  char buf[64];
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ServeRow& r = rows[i];
    out << "    {\"mode\": \"" << r.mode << "\", \"connections\": " << r.connections
        << ", \"pipeline\": " << r.pipeline << ", \"requests\": " << r.requests
        << ", \"bytes_per_request\": " << r.bytes_per_request;
    std::snprintf(buf, sizeof(buf), "%.1f", r.requests_per_s);
    out << ", \"requests_per_s\": " << buf;
    std::snprintf(buf, sizeof(buf), "%.3f", r.p50_ms);
    out << ", \"p50_ms\": " << buf;
    std::snprintf(buf, sizeof(buf), "%.3f", r.p99_ms);
    out << ", \"p99_ms\": " << buf << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"retry\": {\"connect_retries\": " << retry.connect_retries
      << ", \"overloaded_retries\": " << retry.overloaded_retries
      << ", \"give_ups\": " << retry.give_ups << "}\n}\n";
  if (!out.flush()) throw std::runtime_error("bench_serve: write failed: " + path);
}

void print_rows(const std::vector<ServeRow>& rows) {
  std::printf("%-7s %6s %9s %9s %11s %13s %9s %9s\n", "mode", "conns", "pipeline",
              "requests", "req bytes", "requests/s", "p50 ms", "p99 ms");
  for (const ServeRow& r : rows) {
    std::printf("%-7s %6zu %9zu %9zu %11zu %13.1f %9.3f %9.3f\n", r.mode.c_str(),
                r.connections, r.pipeline, r.requests, r.bytes_per_request,
                r.requests_per_s, r.p50_ms, r.p99_ms);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "usage: bench_serve [--quick] [--out=PATH]\n");
      return 2;
    }
  }

  serve::ModelRegistry registry;
  registry.add(kModelName, bench_classifier());

  serve::ServeConfig config;
  config.unix_path = "/tmp/pulphd_bench_serve." + std::to_string(::getpid()) + ".sock";
  ::unlink(config.unix_path.c_str());
  serve::ClassifyServer server(registry, config);
  server.bind_and_listen();
  std::thread serve_thread([&server] { server.run(); });

  try {
    const std::vector<hd::Trial> trials = bench_trials();
    const std::vector<hd::AmDecision> offline =
        registry.resolve(kModelName)->classifier.predict_batch(trials);

    // The exact bytes each wire must produce — encoded with the server's
    // own ResponseEncoder, so the comparison is the offline path itself.
    const std::string text_request = serve::format_classify_request(kModelName, trials);
    const std::string binary_request =
        serve::format_binary_classify_request(kModelName, trials);
    const std::string text_expected =
        serve::ResponseEncoder(serve::Wire::kText).classify(kModelName, offline);
    const std::string binary_expected =
        serve::ResponseEncoder(serve::Wire::kBinary).classify(kModelName, offline);

    // Correctness preflight on both transports (also warms the server).
    for (const bool binary : {false, true}) {
      const int fd = connect_unix(config.unix_path);
      if (binary) send_all(fd, serve::kBinaryMagic);
      send_all(fd, binary ? binary_request : text_request);
      const std::string& expected = binary ? binary_expected : text_expected;
      const std::string got = read_exact(fd, expected.size());
      ::close(fd);
      if (got != expected) {
        throw std::runtime_error(std::string("bench_serve: ") +
                                 (binary ? "binary" : "text") +
                                 " response is not bit-identical to the offline path");
      }
      std::printf("%s preflight: %zu-trial response bit-identical to offline (%zu bytes)\n",
                  binary ? "binary" : "text", trials.size(), expected.size());
    }

    const std::size_t per_conn = quick ? 30 : 200;
    const std::vector<std::size_t> connection_sweep =
        quick ? std::vector<std::size_t>{1, 2} : std::vector<std::size_t>{1, 2, 4};

    std::vector<ServeRow> rows;
    for (const bool binary : {false, true}) {
      const std::string& request = binary ? binary_request : text_request;
      const std::string& expected = binary ? binary_expected : text_expected;
      // Unpipelined single connection: pure request latency.
      rows.push_back(run_load(config.unix_path, binary, request, expected, 1, 1, per_conn));
      // Pipelined connection sweep: throughput.
      for (const std::size_t conns : connection_sweep) {
        rows.push_back(run_load(config.unix_path, binary, request, expected, conns,
                                kPipelineDepth, per_conn));
      }
    }
    // Streaming scenario: window→decision latency, the number the streaming
    // protocol exists to bound. Every decision frame is byte-checked against
    // the offline path, so this is also the streaming correctness preflight.
    const StreamScript script = make_stream_script(
        registry.resolve(kModelName)->classifier, quick ? std::size_t{40} : std::size_t{300});
    for (const std::size_t conns : connection_sweep) {
      rows.push_back(run_stream(config.unix_path, script, conns));
    }
    std::printf("stream preflight: %zu windows/session bit-identical to offline\n",
                script.push_requests.size());
    print_rows(rows);

    // The headline number this benchmark exists to track.
    double best_text = 0.0;
    double best_binary = 0.0;
    for (const ServeRow& r : rows) {
      if (r.mode == "stream") continue;  // windows/s, not comparable to requests/s
      double& best = r.mode == "binary" ? best_binary : best_text;
      best = std::max(best, r.requests_per_s);
    }
    std::printf("binary/text peak throughput: %.2fx (binary %.1f req/s, text %.1f req/s)\n",
                best_binary / best_text, best_binary, best_text);

    // Overload scenario: a capacity-1 server, clients that must retry.
    serve::ServeConfig overload_config;
    overload_config.unix_path =
        "/tmp/pulphd_bench_overload." + std::to_string(::getpid()) + ".sock";
    overload_config.max_connections = 1;
    ::unlink(overload_config.unix_path.c_str());
    serve::ClassifyServer overload_server(registry, overload_config);
    overload_server.bind_and_listen();
    std::thread overload_thread([&overload_server] { overload_server.run(); });
    serve::RetryStats retry;
    try {
      retry = run_overload(overload_config.unix_path, text_request, text_expected,
                           quick ? 2 : 4, quick ? 2 : 4);
    } catch (...) {
      overload_server.stop();
      overload_thread.join();
      throw;
    }
    overload_server.stop();
    overload_thread.join();
    std::printf(
        "overload scenario: %llu overloaded retries, %llu connect retries, %llu give-ups\n",
        static_cast<unsigned long long>(retry.overloaded_retries),
        static_cast<unsigned long long>(retry.connect_retries),
        static_cast<unsigned long long>(retry.give_ups));

    write_json(rows, retry, out_path, quick, resolve_threads(config.workers));
    std::printf("wrote %s (%zu rows)\n", out_path.c_str(), rows.size());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_serve: %s\n", e.what());
    server.stop();
    serve_thread.join();
    return 1;
  }

  server.stop();
  serve_thread.join();
  return 0;
}
