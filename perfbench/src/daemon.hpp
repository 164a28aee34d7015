// The daemon under test: a `pulphd_cli serve` child process, its readiness
// probe, and the /proc counters the benchmark samples from outside.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Cumulative counters of the daemon process, read from /proc.
struct ProcSample {
  double cpu_s = 0.0;        ///< utime + stime of every thread
  double loop_cpu_s = 0.0;   ///< utime + stime of the event-loop thread (tid = pid)
  std::uint64_t minor_faults = 0;
  std::uint64_t ctx_switches = 0;  ///< voluntary + involuntary, summed over threads
  double hwm_mib = 0.0;      ///< VmHWM, the peak resident set
};

/// Machine-wide CPU ticks from /proc/stat. `steal` is time the hypervisor
/// ran something else while this machine's CPUs had work: the noise
/// source the segment selection in main.cpp ranks by.
struct HostTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

HostTicks host_ticks();

/// Connects to a Unix-domain socket; returns -1 (errno set) on failure.
int connect_unix(const std::string& path);

/// Sends `bytes` completely on a blocking socket; throws on failure.
void send_all(int fd, const std::string& bytes);

/// Reads exactly `bytes` bytes from a blocking socket; throws on EOF or
/// failure.
std::string read_exact(int fd, std::size_t bytes);

/// A running `pulphd_cli serve` process listening on a Unix socket. The
/// destructor stops it and waits until it has exited. At most one runs at
/// a time; install_stop_on_signal() makes SIGTERM, SIGINT and SIGHUP to
/// this process stop it too.
void install_stop_on_signal();

class Daemon {
 public:
  /// Spawns `argv` (argv[0] is the CLI path) with stdout and stderr
  /// appended to `log_path`. `socket_path` is where it will listen.
  Daemon(const std::vector<std::string>& argv, std::string socket_path,
         const std::string& log_path);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const noexcept { return pid_; }
  const std::string& socket_path() const noexcept { return socket_path_; }

  /// Blocks until a text `ping` is answered and returns the seconds from
  /// spawn to that answer (model loads included). Throws when the daemon
  /// exits or does not answer within `timeout`.
  double wait_ready(std::chrono::seconds timeout = std::chrono::seconds(60));

  ProcSample sample() const;

  /// utime + stime of every thread: the cheap subset of sample().
  double cpu_seconds() const;

  /// SIGTERM, then waits for exit (SIGKILL after 10 s). Idempotent.
  void stop() noexcept;

 private:
  pid_t pid_ = -1;
  std::string socket_path_;
  std::string log_path_;
  std::chrono::steady_clock::time_point spawned_;
};

}  // namespace perfbench
