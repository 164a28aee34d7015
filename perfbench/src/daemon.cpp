#include "daemon.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace perfbench {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Fields of a /proc stat line after the parenthesised command name;
/// index 0 is field 3 (state) of proc(5).
std::vector<std::string> stat_fields(const std::string& path) {
  const std::string line = read_file(path);
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) throw std::runtime_error("cannot parse " + path);
  std::istringstream in(line.substr(close + 1));
  std::vector<std::string> fields;
  for (std::string f; in >> f;) fields.push_back(f);
  if (fields.size() < 13) throw std::runtime_error("short stat line in " + path);
  return fields;
}

double stat_cpu_seconds(const std::vector<std::string>& fields) {
  static const double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
  return static_cast<double>(std::stoull(fields[11]) + std::stoull(fields[12])) / ticks;
}

/// Value of a "Key:  N ..." line of a /proc status file (0 when absent).
std::uint64_t status_value(const std::string& status, const std::string& key) {
  const std::string tag = "\n" + key + ":";
  const std::size_t at = status.find(tag);
  if (at == std::string::npos) return 0;
  return std::stoull(status.substr(at + tag.size()));
}

std::string log_tail(const std::string& path) {
  const std::string log = read_file(path);
  return log.size() > 2000 ? log.substr(log.size() - 2000) : log;
}

/// The live daemon, for the signal handler.
volatile sig_atomic_t g_daemon_pid = 0;

void stop_daemon_and_exit(int sig) {
  const pid_t pid = g_daemon_pid;
  if (pid > 0) {
    ::kill(pid, SIGTERM);
    ::waitpid(pid, nullptr, 0);
  }
  ::_exit(128 + sig);
}

}  // namespace

void install_stop_on_signal() {
  struct sigaction sa{};
  sa.sa_handler = stop_daemon_and_exit;
  for (const int sig : {SIGTERM, SIGINT, SIGHUP}) ::sigaction(sig, &sa, nullptr);
}

HostTicks host_ticks() {
  std::istringstream in(read_file("/proc/stat"));
  std::string label;
  in >> label;  // "cpu": the sum over all CPUs
  HostTicks t;
  std::uint64_t value = 0;
  for (int field = 0; field < 8 && in >> value; ++field) {  // user .. steal
    t.total += value;
    if (field == 7) t.steal = value;
  }
  return t;
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    errno = ENAMETOOLONG;
    return -1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    return -1;
  }
  return fd;
}

void send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("send failed: ") + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

std::string read_exact(int fd, std::size_t bytes) {
  std::string out(bytes, '\0');
  std::size_t got = 0;
  while (got < bytes) {
    const ssize_t n = ::read(fd, out.data() + got, bytes - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("read failed: ") + std::strerror(errno));
    }
    if (n == 0) throw std::runtime_error("daemon closed the connection mid-response");
    got += static_cast<std::size_t>(n);
  }
  return out;
}

Daemon::Daemon(const std::vector<std::string>& argv, std::string socket_path,
               const std::string& log_path)
    : socket_path_(std::move(socket_path)), log_path_(log_path) {
  ::unlink(socket_path_.c_str());
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  spawned_ = std::chrono::steady_clock::now();
  const int rc = ::posix_spawn(&pid_, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + argv[0] + ": " + std::strerror(rc));
  }
  g_daemon_pid = pid_;
}

Daemon::~Daemon() { stop(); }

double Daemon::wait_ready(std::chrono::seconds timeout) {
  const std::string ping = "phd1 ping\n";
  const std::string pong = "ok pong\n";
  while (std::chrono::steady_clock::now() - spawned_ < timeout) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      g_daemon_pid = 0;
      throw std::runtime_error("daemon exited during start-up:\n" + log_tail(log_path_));
    }
    const int fd = connect_unix(socket_path_);
    if (fd < 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      continue;
    }
    send_all(fd, ping);
    const std::string reply = read_exact(fd, pong.size());
    const auto ready = std::chrono::steady_clock::now();
    ::close(fd);
    if (reply != pong) throw std::runtime_error("unexpected ping reply: " + reply);
    return std::chrono::duration<double>(ready - spawned_).count();
  }
  throw std::runtime_error("daemon did not answer ping in time:\n" + log_tail(log_path_));
}

double Daemon::cpu_seconds() const {
  return stat_cpu_seconds(stat_fields("/proc/" + std::to_string(pid_) + "/stat"));
}

ProcSample Daemon::sample() const {
  const std::string proc = "/proc/" + std::to_string(pid_);
  ProcSample s;
  const std::vector<std::string> whole = stat_fields(proc + "/stat");
  s.cpu_s = stat_cpu_seconds(whole);
  s.minor_faults = std::stoull(whole[7]);
  s.loop_cpu_s = stat_cpu_seconds(stat_fields(proc + "/task/" + std::to_string(pid_) + "/stat"));
  s.hwm_mib = static_cast<double>(status_value(read_file(proc + "/status"), "VmHWM")) / 1024.0;
  if (DIR* dir = ::opendir((proc + "/task").c_str())) {
    while (const dirent* entry = ::readdir(dir)) {
      if (entry->d_name[0] == '.') continue;
      const std::string status = read_file(proc + "/task/" + entry->d_name + "/status");
      s.ctx_switches += status_value(status, "voluntary_ctxt_switches") +
                        status_value(status, "nonvoluntary_ctxt_switches");
    }
    ::closedir(dir);
  }
  return s;
}

void Daemon::stop() noexcept {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
  g_daemon_pid = 0;
  ::unlink(socket_path_.c_str());
}

}  // namespace perfbench
