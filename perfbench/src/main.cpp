// perfbench_loadgen — measures a real `pulphd_cli serve` daemon end to end.
//
//   perfbench_loadgen --workload NAME --seed N --seconds S --trace 0|1
//                     --cli PATH --work DIR [--commit ID] [--trace-out FILE]
//   perfbench_loadgen selftest
//
// It generates the workload from the seed (EMG data, models saved under
// DIR, every request and its oracle response), spawns the daemon on
// those model files, and drives it from one client thread. Untraced runs
// print the end-to-end metrics; traced runs print the per-layer metrics.
// The last line of stdout is the result object; the line before it is the
// run's fingerprint. See README.md for the metric definitions.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "client.hpp"
#include "common/cpu_features.hpp"
#include "daemon.hpp"
#include "kernels/backend.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kSetupSpawns = 31;  ///< setup_s is the median of these
constexpr double kMaxWarmupSeconds = 5.0;
constexpr auto kSegment = std::chrono::milliseconds(500);
/// When too few segments are quiet, the quietest ones are kept until they
/// cover this long. Fewer kept seconds means less steal in what is kept.
constexpr double kMinKeptSeconds = 1.0;
/// A p99 needs this many latencies to have kMinSamplesBeyond beyond it.
constexpr std::size_t kMinLatencies = 100 * kMinSamplesBeyond;
constexpr std::size_t kPingProbes = 2000;
constexpr std::size_t kRegistryLoads = 5;
constexpr std::size_t kReplayRounds = 5;  ///< untraced/traced replay pairs

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cli;
  std::string work;
  std::string commit = "unknown";
  std::string trace_out;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench_loadgen --workload NAME --seed N --seconds S --trace 0|1 "
               "--cli PATH --work DIR [--commit ID] [--trace-out FILE]\n"
               "       perfbench_loadgen selftest\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--cli") {
      opt.cli = value;
    } else if (flag == "--work") {
      opt.work = value;
    } else if (flag == "--commit") {
      opt.commit = value;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      usage();
    }
  }
  if (argc % 2 == 0 || opt.workload.empty() || opt.cli.empty() || opt.work.empty() ||
      opt.seconds <= 0) {
    usage();
  }
  return opt;
}

/// Builds a flat JSON object in insertion order.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    return raw(key, buf);
  }
  JsonObject& str(const std::string& key, const std::string& value) {
    return raw(key, "\"" + value + "\"");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": " + json);
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// A metric with its unit, as the result object carries it.
struct Metric {
  double value;
  const char* unit;
};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::size_t nproc() {
  return static_cast<std::size_t>(std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN)));
}

/// A stretch of the timed phase, with the host's steal time over it.
/// Latencies [lat_begin, lat_end) of the phase completed inside it.
struct Segment {
  double seconds = 0.0;
  std::size_t ok = 0;
  double daemon_cpu_s = 0.0;
  double steal_pct = 0.0;  ///< machine-wide CPU time stolen by the hypervisor
  std::size_t lat_begin = 0;
  std::size_t lat_end = 0;
};

/// The fixed request list, replayed in whole passes: all connections finish
/// a pass before the next starts, so every phase scores the same multiset
/// of decisions whatever the timing.
struct Phase {
  PassTotals totals;
  std::vector<Segment> segments;
  std::size_t passes = 0;
  double seconds = 0.0;
};

/// Segments with at most this share of CPU time stolen by the hypervisor
/// count as quiet. On a shared host, stretches of heavy steal stall the
/// daemon's threads for milliseconds at a time and can halve throughput,
/// so the timed figures are taken over quiet segments.
constexpr double kQuietStealPct = 2.0;

/// Runs whole passes until `min_seconds` have passed, a fifth of that time
/// was quiet and kMinLatencies latencies were recorded, or until
/// `max_seconds` have passed. A ticker cuts the phase into segments of kSegment,
/// sampling the daemon's CPU time and the host's steal time.
Phase run_phase(LoadClient& client, const Daemon& daemon, double min_seconds,
                double max_seconds) {
  Phase phase;
  const Clock::time_point start = Clock::now();
  Clock::time_point segment_start = start;
  double segment_cpu = daemon.cpu_seconds();
  HostTicks segment_host = host_ticks();
  std::size_t segment_ok = 0;
  double quiet_seconds = 0.0;
  const auto cut_segment = [&](Clock::time_point now) {
    const double cpu = daemon.cpu_seconds();
    const HostTicks host = host_ticks();
    const auto ticks =
        static_cast<double>(std::max<std::uint64_t>(1, host.total - segment_host.total));
    Segment s;
    s.seconds = std::chrono::duration<double>(now - segment_start).count();
    s.ok = phase.totals.ok - segment_ok;
    s.daemon_cpu_s = cpu - segment_cpu;
    s.steal_pct = 100.0 * static_cast<double>(host.steal - segment_host.steal) / ticks;
    s.lat_begin = phase.segments.empty() ? 0 : phase.segments.back().lat_end;
    s.lat_end = phase.totals.latency_ms.size();
    if (s.steal_pct <= kQuietStealPct) quiet_seconds += s.seconds;
    phase.segments.push_back(s);
    segment_start = now;
    segment_cpu = cpu;
    segment_host = host;
    segment_ok = phase.totals.ok;
  };
  client.set_ticker(kSegment, cut_segment);
  for (;;) {
    client.run_pass(phase.totals);
    ++phase.passes;
    phase.seconds = seconds_since(start);
    const bool enough = phase.seconds >= min_seconds && quiet_seconds >= min_seconds / 5;
    if ((enough || phase.seconds >= max_seconds) &&
        phase.totals.latency_ms.size() >= kMinLatencies) {
      break;
    }
  }
  client.set_ticker({}, {});
  cut_segment(Clock::now());
  return phase;
}

/// The timed figures over the kept segments: every quiet segment, topped
/// up with the next quietest until they cover `want_seconds` and hold
/// kMinLatencies latencies. Throughput, p50 and CPU are pooled. The p99 is
/// the median of the p99s of chunks of at least kMinLatencies latencies,
/// cut from the kept segments quietest first, so one burst of stalls
/// moves one chunk rather than the figure.
struct Figures {
  std::size_t segments = 0;
  double seconds = 0.0;
  double steal_pct = 0.0;  ///< time-weighted over the kept segments
  double req_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double cpu_ms_per_req = 0.0;
};

Figures quiet_figures(const Phase& phase, double want_seconds) {
  std::vector<const Segment*> order;
  for (const Segment& s : phase.segments) order.push_back(&s);
  std::stable_sort(order.begin(), order.end(), [](const Segment* a, const Segment* b) {
    return a->steal_pct < b->steal_pct;
  });
  Figures f;
  std::size_t ok = 0;
  double cpu_s = 0.0;
  std::vector<double> latency_ms;
  std::vector<double> chunk;
  std::vector<double> chunk_p99s;
  const std::vector<double>& all = phase.totals.latency_ms;
  for (const Segment* s : order) {
    const bool topping_up = f.seconds < want_seconds || latency_ms.size() < kMinLatencies;
    if (s->steal_pct > kQuietStealPct && !topping_up) break;
    ++f.segments;
    f.seconds += s->seconds;
    f.steal_pct += s->steal_pct * s->seconds;
    ok += s->ok;
    cpu_s += s->daemon_cpu_s;
    chunk.insert(chunk.end(), all.begin() + static_cast<std::ptrdiff_t>(s->lat_begin),
                 all.begin() + static_cast<std::ptrdiff_t>(s->lat_end));
    if (chunk.size() >= kMinLatencies) {
      std::sort(chunk.begin(), chunk.end());
      chunk_p99s.push_back(percentile(chunk, 0.99));
      latency_ms.insert(latency_ms.end(), chunk.begin(), chunk.end());
      chunk.clear();
    }
  }
  latency_ms.insert(latency_ms.end(), chunk.begin(), chunk.end());
  std::sort(latency_ms.begin(), latency_ms.end());
  f.steal_pct /= f.seconds;
  f.req_per_s = static_cast<double>(ok) / f.seconds;
  f.p50_ms = percentile(latency_ms, 0.50);
  f.p99_ms = chunk_p99s.empty() ? percentile(latency_ms, 0.99) : median(chunk_p99s);
  f.cpu_ms_per_req = cpu_s * 1e3 / static_cast<double>(ok);
  return f;
}

/// Time-weighted steal over the segments of a phase.
double phase_steal_pct(const Phase& phase) {
  double weighted = 0.0;
  double seconds = 0.0;
  for (const Segment& s : phase.segments) {
    weighted += s.steal_pct * s.seconds;
    seconds += s.seconds;
  }
  return seconds > 0 ? weighted / seconds : 0.0;
}

int run(const Options& opt) {
  install_stop_on_signal();
  const Workload w = make_workload(opt.workload, opt.seed, opt.work);
  const std::size_t workers = std::max<std::size_t>(1, nproc() - 2);
  const std::string socket = opt.work + "/serve.sock";
  std::vector<std::string> argv = {opt.cli, "serve"};
  for (const ModelFile& m : w.models) {
    argv.push_back("--model");
    argv.push_back(m.name + "=" + m.path);
  }
  for (const std::string& a : {std::string("--socket"), socket, std::string("--threads"),
                               std::string("1"), std::string("--workers"),
                               std::to_string(workers)}) {
    argv.push_back(a);
  }

  // Set-up: spawn to first answered ping, several times; the last daemon
  // stays up for the measurement.
  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  for (std::size_t i = 0; i < kSetupSpawns; ++i) {
    daemon.reset();
    daemon = std::make_unique<Daemon>(argv, socket, opt.work + "/daemon.log");
    setups.push_back(daemon->wait_ready());
  }

  LoadClient client(socket, w.scripts, w.depth);
  const double warmup_seconds = std::min(kMaxWarmupSeconds, opt.seconds / 3);
  const Phase warmup = run_phase(client, *daemon, warmup_seconds, warmup_seconds);
  const ProcSample before = daemon->sample();
  const Phase timed = run_phase(client, *daemon, opt.seconds, 3 * opt.seconds);
  const ProcSample after = daemon->sample();

  const Figures quiet = quiet_figures(timed, kMinKeptSeconds);
  const PassTotals& t = timed.totals;
  const bool all_ok = t.ok == t.attempted && warmup.totals.ok == warmup.totals.attempted;
  // Whole passes of a fixed list: the served accuracy must equal the
  // oracle's exactly unless some request failed.
  const bool accuracy_matches = t.correct * w.pass_decisions == w.pass_correct * t.decisions;
  if (all_ok && !accuracy_matches) {
    std::fprintf(stderr, "perfbench: served accuracy %zu/%zu differs from the oracle's %zu/%zu\n",
                 t.correct, t.decisions, w.pass_correct, w.pass_decisions);
    return 3;
  }
  const auto requests = static_cast<double>(t.attempted);

  std::map<std::string, Metric> metrics;
  if (!opt.trace) {
    metrics["setup_s"] = {median(setups), "s"};
    metrics["req_per_s"] = {quiet.req_per_s, "1/s"};
    metrics["p50_ms"] = {quiet.p50_ms, "ms"};
    metrics["ok_pct"] = {100.0 * static_cast<double>(t.ok) / requests, "%"};
    metrics["accuracy_pct"] = {
        100.0 * static_cast<double>(t.correct) / static_cast<double>(t.decisions), "%"};
    metrics["cpu_ms_per_req"] = {quiet.cpu_ms_per_req, "ms"};
    metrics["rss_peak_mib"] = {after.hwm_mib, "MiB"};
  } else {
    Tracer probes(true);
    // Unloaded probes: ping round trips, then depth-1 served requests.
    std::vector<double> pings;
    {
      const int fd = connect_unix(socket);
      if (fd < 0) throw std::runtime_error("cannot connect for the ping probe");
      for (std::size_t i = 0; i < kPingProbes; ++i) {
        const ScopedSpan span(probes, "probe.ping", -1, i);
        const Clock::time_point sent = Clock::now();
        send_all(fd, "phd1 ping\n");
        if (read_exact(fd, 8) != "ok pong\n") throw std::runtime_error("bad ping reply");
        pings.push_back(std::chrono::duration<double, std::micro>(Clock::now() - sent).count());
      }
      ::close(fd);
    }
    PassTotals served;
    {
      const ScopedSpan span(probes, "probe.served", -1, 0);
      const std::vector<Script> first = {w.scripts.front()};
      LoadClient single(socket, first, 1);
      single.run_pass(served);
    }
    daemon->stop();
    if (served.ok != served.attempted) throw std::runtime_error("depth-1 probe failed");

    // Model loads, as the daemon's registry does them.
    std::vector<double> loads;
    for (std::size_t i = 0; i < kRegistryLoads; ++i) {
      pulphd::serve::ModelRegistry fresh;
      for (const ModelFile& m : w.models) {
        const ScopedSpan span(probes, "registry.load", -1, i);
        const Clock::time_point start = Clock::now();
        fresh.load_file(m.name, m.path, 1);
        loads.push_back(seconds_since(start) * 1e3);
      }
    }

    // In-process replay, alternating untraced and traced rounds.
    pulphd::serve::ModelRegistry registry;
    for (const ModelFile& m : w.models) registry.load_file(m.name, m.path, 1);
    std::vector<double> untraced_s;
    std::vector<double> traced_s;
    std::unique_ptr<Tracer> tracer;
    Tracer warm(false);
    replay(w, registry, warm);  // first touch of the models and allocator
    for (std::size_t round = 0; round < kReplayRounds; ++round) {
      for (const bool traced : {false, true}) {
        auto candidate = std::make_unique<Tracer>(traced);
        const Clock::time_point start = Clock::now();
        replay(w, registry, *candidate);
        (traced ? traced_s : untraced_s).push_back(seconds_since(start));
        if (traced) tracer = std::move(candidate);
      }
    }
    const LayerTimes layers = layer_times(*tracer);
    if (!opt.trace_out.empty()) {
      tracer->write_jsonl(opt.trace_out, 0);
      probes.write_jsonl(opt.trace_out, tracer->spans().size());
    }

    double req_bytes = 0;
    double resp_bytes = 0;
    for (const Script& script : w.scripts) {
      for (const WireRequest& r : script.requests) {
        if (r.decisions == 0) continue;
        req_bytes += static_cast<double>(r.bytes.size());
        resp_bytes += static_cast<double>(r.expected.size());
      }
    }
    const auto pass_requests = static_cast<double>(w.pass_requests);
    const double ping_us = median(pings);
    std::sort(served.latency_ms.begin(), served.latency_ms.end());
    const double served_us = percentile(served.latency_ms, 0.50) * 1e3;
    const double loop_s = after.loop_cpu_s - before.loop_cpu_s;
    const double bound_rows = static_cast<double>(w.channels + (w.channels % 2 == 0 ? 1 : 0));
    const auto mean = [&](const char* name) { return layers.mean_us.at(name); };

    metrics["protocol.decode_us"] = {mean("protocol.decode"), "us"};
    metrics["protocol.respond_us"] = {mean("protocol.respond"), "us"};
    metrics["protocol.req_bytes"] = {req_bytes / pass_requests, "bytes"};
    metrics["protocol.resp_bytes"] = {resp_bytes / pass_requests, "bytes"};
    metrics["server.loop_busy_pct"] = {100.0 * loop_s / timed.seconds, "%"};
    metrics["server.loop_cpu_us"] = {loop_s * 1e6 / requests, "us"};
    metrics["server.worker_cpu_us"] = {(after.cpu_s - before.cpu_s - loop_s) * 1e6 / requests,
                                       "us"};
    metrics["server.ctx_switches"] = {
        static_cast<double>(after.ctx_switches - before.ctx_switches) / requests, "count"};
    metrics["server.minor_faults"] = {
        static_cast<double>(after.minor_faults - before.minor_faults) / requests, "count"};
    metrics["server.ping_rtt_us"] = {ping_us, "us"};
    metrics["server.handoff_us"] = {served_us - ping_us - layers.inproc_p50_us, "us"};
    metrics["registry.load_ms"] = {median(loads), "ms"};
    metrics["encoder.encode_us"] = {mean("encoder.encode"), "us"};
    metrics["encoder.spatial_us"] = {mean("encoder.spatial"), "us"};
    metrics["encoder.self_us"] = {layers.self_us.at("encoder.encode"), "us"};
    metrics["encoder.samples"] = {static_cast<double>(w.samples_per_request), "count"};
    metrics["am.search_us"] = {mean("am.search"), "us"};
    metrics["am.queries"] = {static_cast<double>(w.queries_per_request), "count"};
    metrics["kernels.gather_bytes"] = {
        bound_rows * static_cast<double>(w.dim) / 8.0 *
            static_cast<double>(w.samples_per_request),
        "bytes"};
    metrics["client.p99_ms"] = {quiet.p99_ms, "ms"};
    metrics["trace.overhead_pct"] = {
        100.0 * (median(traced_s) - median(untraced_s)) / median(untraced_s), "%"};
  }
  daemon.reset();

  JsonObject fingerprint;
  fingerprint.str("workload", w.name)
      .num("seed", static_cast<double>(opt.seed))
      .str("commit", opt.commit)
      .num("nproc", static_cast<double>(nproc()))
      .str("cpu_features", pulphd::cpu_feature_summary())
      .str("backend", pulphd::kernels::active_backend().name)
      .num("daemon_workers", static_cast<double>(workers))
      .num("daemon_threads", 1)
      .num("connections", static_cast<double>(w.scripts.size()))
      .num("depth", static_cast<double>(w.depth))
      .num("warmup_requests", static_cast<double>(warmup.totals.attempted))
      .num("timed_requests", static_cast<double>(t.attempted))
      .num("timed_passes", static_cast<double>(timed.passes))
      .num("timed_s", timed.seconds)
      .num("timed_segments", static_cast<double>(timed.segments.size()))
      .num("steal_pct", phase_steal_pct(timed))
      .num("kept_segments", static_cast<double>(quiet.segments))
      .num("kept_s", quiet.seconds)
      .num("kept_steal_pct", quiet.steal_pct)
      .num("oracle_accuracy_pct", 100.0 * static_cast<double>(w.pass_correct) /
                                      static_cast<double>(w.pass_decisions))
      .str("trace", opt.trace ? "1" : "0");
  std::printf("%s\n", JsonObject().raw("fingerprint", fingerprint.str()).str().c_str());

  JsonObject metric_json;
  for (const auto& [name, m] : metrics) {
    metric_json.raw(name, JsonObject().num("value", m.value).str("unit", m.unit).str());
  }
  JsonObject result;
  result.raw("correct", all_ok ? "true" : "false")
      .num("attempted", static_cast<double>(t.attempted))
      .num("failed", static_cast<double>(t.attempted - t.ok))
      .raw("metrics", metric_json.str());
  std::printf("%s\n", result.str().c_str());
  return 0;
}

/// Checks of the percentile rule the metrics rely on.
int selftest() {
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) values.push_back(i);
  int failures = 0;
  const auto check = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest: %s\n", what);
      ++failures;
    }
  };
  check(percentile(values, 0.99) == 990.0, "p99 of 1..1000 is 990");
  check(percentile(values, 0.50) == 500.0, "p50 of 1..1000 is 500");
  check(samples_beyond(values.size(), 0.99) >= kMinSamplesBeyond, "p99 of 1000 has 10 beyond");
  values.pop_back();
  bool threw = false;
  try {
    percentile(values, 0.99);
  } catch (const std::runtime_error&) {
    threw = true;
  }
  check(threw, "p99 of 999 samples is refused");
  check(median({3.0, 1.0, 2.0, 10.0}) == 2.5, "median of an even sample");
  std::printf("selftest %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    if (argc == 2 && std::strcmp(argv[1], "selftest") == 0) return perfbench::selftest();
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
