#include "serve/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/failpoint.hpp"
#include "common/io.hpp"
#include "common/status.hpp"
#include "common/sync.hpp"
#include "common/thread_pool.hpp"

namespace pulphd::serve {
namespace {

/// Pipelining backpressure: a connection with this many parsed-but-not-yet-
/// answered requests, or this much un-flushed response data, stops being
/// read until the backlog drains. Purely an implementation bound (memory
/// safety against a client that never reads), not a protocol limit.
constexpr std::size_t kMaxPipelinedRequests = 128;
constexpr std::size_t kMaxBufferedOutputBytes = std::size_t{8} << 20;

/// flush_output reclaims the sent prefix of outbuf only once it is at
/// least this large AND at least half the buffer, so a slow reader pays
/// amortized O(1) per byte instead of O(n^2) erase-from-front.
constexpr std::size_t kOutbufCompactBytes = std::size_t{64} << 10;

/// Fixed epoll identities. The acceptor watches the stop pipe and the
/// listeners; a shard watches its wake eventfd, and its connections count
/// up from 1.
constexpr std::uint64_t kStopId = 0;
constexpr std::uint64_t kUnixListenerId = 1;
constexpr std::uint64_t kTcpListenerId = 2;
constexpr std::uint64_t kWakeId = 0;

/// A transient accept(2) failure in this class unregisters the listeners
/// for this long instead of letting level-triggered epoll spin on an
/// accept that cannot succeed until an fd frees up.
constexpr std::chrono::milliseconds kAcceptBackoff{100};

/// Refused connections that may linger at once (see Connection::refused);
/// beyond this, an over-cap connection is closed without a word.
constexpr std::size_t kMaxRefused = 64;

[[noreturn]] void throw_errno(const std::string& what) {
  // io::errno_text is the strerror_r-based thread-safe formatter: the
  // acceptor and every shard throw through here.
  throw std::runtime_error(what + ": " + io::errno_text(errno));
}

void close_quietly(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// Registers `fd` for EPOLLIN under `id`; false (errno set) on failure.
bool watch(int epoll_fd, int fd, std::uint64_t id) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = id;
  return ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) == 0;
}

int ms_until(std::chrono::steady_clock::time_point deadline) {
  const auto wait =
      std::chrono::ceil<std::chrono::milliseconds>(deadline - std::chrono::steady_clock::now());
  return static_cast<int>(std::clamp<long long>(wait.count(), 1, 60'000));
}

}  // namespace

/// The streaming-session state of one connection. Created empty with the
/// connection; stream-open pins the model snapshot and configures the
/// encoder, stream-close (or a shed stream request) clears both. Only the
/// connection's shard ever touches it, so it needs no lock.
struct ClassifyServer::StreamSession {
  ModelSnapshot model;  ///< pinned at open; nullptr = no open session
  std::optional<hd::StreamingEncoder> encoder;
  std::uint64_t windows = 0;  ///< emitted since open (survives encoder resets)

  bool open() const noexcept { return model != nullptr; }
  void close() noexcept {
    model.reset();
    encoder.reset();
    windows = 0;
  }
};

/// Per-connection state, owned and touched exclusively by its shard once
/// the acceptor hands it over. Owns the socket: destruction closes it.
struct ClassifyServer::Connection {
  /// A parsed wire event plus when it arrived (read_input) — the clock the
  /// --request-timeout shedding in run_next measures queueing from.
  struct PendingEvent {
    WireEvent event;
    std::chrono::steady_clock::time_point arrived;
  };

  std::uint64_t id = 0;
  int fd = -1;
  ConnectionSession session;
  StreamSession stream;
  std::string outbuf;       ///< encoded responses; [0, outoff) is already sent
  std::size_t outoff = 0;   ///< sent prefix of outbuf (reclaimed lazily)
  std::deque<PendingEvent> pending;  ///< parsed requests / errors awaiting their turn
  /// Set when bytes arrived while a request ran: the start of that run,
  /// the stamp those bytes get when they are read.
  std::optional<std::chrono::steady_clock::time_point> unread_since;
  /// Over --max-conns: outbuf holds the refusal. The shard flushes it,
  /// shuts its write side and drains input unread until the peer hangs up
  /// — closing at once would fail a client that writes straight after
  /// connecting with EPIPE (or a TCP reset) before it reads the refusal.
  bool refused = false;
  bool closing = false;              ///< flush outbuf, then close
  bool peer_eof = false;             ///< read() hit EOF; still answering pipelined work
  std::uint32_t armed = 0;           ///< epoll event mask currently registered
  std::chrono::steady_clock::time_point last_activity;

  Connection(std::uint64_t id_, int fd_, ConnectionSession::Limits limits)
      : id(id_), fd(fd_), session(limits),
        last_activity(std::chrono::steady_clock::now()) {}
  ~Connection() { ::close(fd); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool out_empty() const noexcept { return outoff == outbuf.size(); }
  std::size_t out_size() const noexcept { return outbuf.size() - outoff; }
};

/// One run-to-completion thread: an epoll set, the eventfd the acceptor
/// wakes it through, and the connections it owns. Every request of those
/// connections is read, parsed, executed, encoded and flushed here; the
/// only state shared with the acceptor is the inbox of accepted connections.
class ClassifyServer::Shard {
 public:
  explicit Shard(ClassifyServer& server) : server_(server) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) throw_errno("ClassifyServer: epoll_create1");
    wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (wake_fd_ < 0) throw_errno("ClassifyServer: eventfd");
    if (!watch(epoll_fd_, wake_fd_, kWakeId)) throw_errno("ClassifyServer: epoll_ctl(add)");
    thread_ = std::thread([this] { loop(); });
  }

  /// Wakes the thread and joins it (a request already executing finishes
  /// first), then hands any failure to the server. The connections, in
  /// conns_ and any still in the inbox, then close their own sockets.
  ~Shard() {
    server_.stopping_.store(true);  // already set unless run() threw
    wake();
    thread_.join();
    if (failure_ && !server_.shard_failure_) server_.shard_failure_ = failure_;
    close_quietly(epoll_fd_);
    close_quietly(wake_fd_);
  }

  /// Acceptor side: queues an accepted connection and wakes the shard.
  void adopt(std::unique_ptr<Connection> conn) PULPHD_EXCLUDES(inbox_mutex_) {
    {
      const MutexLock lock(inbox_mutex_);
      inbox_.push_back(std::move(conn));
    }
    wake();
  }

 private:
  void wake() noexcept {
    const std::uint64_t one = 1;
    (void)::write(wake_fd_, &one, sizeof(one));
  }
  void loop();
  void take_inbox() PULPHD_EXCLUDES(inbox_mutex_);
  /// Reads the socket into `pending`; false when it failed and `conn` is
  /// closed (destroyed).
  bool read_input(Connection& conn);
  /// Shared post-I/O tail: run the parsed backlog, flush, close when
  /// finished, re-arm epoll. May destroy `conn`; callers must not touch it
  /// afterwards.
  void finish_io(Connection& conn);
  /// Pops the connection's next parsed event and runs it to completion,
  /// appending its response to outbuf.
  void run_next(Connection& conn);
  bool flush_output(Connection& conn);  ///< false when the peer is gone
  void update_interest(Connection& conn);
  void close_connection(Connection& conn);
  int idle_sweep_timeout_ms();

  ClassifyServer& server_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: inbox non-empty, or shutdown
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  std::exception_ptr failure_;  ///< what ended loop(), if it threw
  Mutex inbox_mutex_;
  std::vector<std::unique_ptr<Connection>> inbox_ PULPHD_GUARDED_BY(inbox_mutex_);
  std::thread thread_;  ///< last: started once everything above exists
};

ClassifyServer::ClassifyServer(ModelRegistry& registry, ServeConfig config)
    : registry_(registry), config_(std::move(config)) {
  // Non-blocking on both ends: stop() must never block in a signal handler,
  // and shutdown drains the read end until empty.
  if (::pipe2(stop_pipe_, O_CLOEXEC | O_NONBLOCK) != 0) throw_errno("ClassifyServer: pipe2");
}

ClassifyServer::~ClassifyServer() {
  shards_.clear();  // only a throwing run() leaves shards behind
  close_quietly(unix_fd_);
  close_quietly(tcp_fd_);
  close_quietly(stop_pipe_[0]);
  close_quietly(stop_pipe_[1]);
  close_quietly(epoll_fd_);
  // Only unlink a path this instance actually bound: when bind failed with
  // EADDRINUSE the path belongs to a live server that must keep it.
  if (unix_bound_) ::unlink(config_.unix_path.c_str());
}

void ClassifyServer::bind_and_listen() {
  if (config_.unix_path.empty() && !config_.tcp_enabled) {
    throw std::runtime_error("ClassifyServer: no listener configured (need a socket path or TCP)");
  }
  if (!config_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.unix_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("ClassifyServer: socket path too long: " + config_.unix_path);
    }
    std::memcpy(addr.sun_path, config_.unix_path.c_str(), config_.unix_path.size() + 1);
    unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
    if (unix_fd_ < 0) throw_errno("ClassifyServer: socket(AF_UNIX)");
    if (::bind(unix_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw_errno("ClassifyServer: bind " + config_.unix_path +
                  (errno == EADDRINUSE ? " (stale socket? remove it first)" : ""));
    }
    unix_bound_ = true;  // bind created the path; from here on it is ours to unlink
    if (::listen(unix_fd_, 128) != 0) throw_errno("ClassifyServer: listen " + config_.unix_path);
  }
  if (config_.tcp_enabled) {
    tcp_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
    if (tcp_fd_ < 0) throw_errno("ClassifyServer: socket(AF_INET)");
    const int one = 1;
    ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // never a non-local interface
    addr.sin_port = htons(config_.tcp_port);
    if (::bind(tcp_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw_errno("ClassifyServer: bind 127.0.0.1:" + std::to_string(config_.tcp_port));
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      throw_errno("ClassifyServer: getsockname");
    }
    tcp_port_ = static_cast<int>(ntohs(addr.sin_port));
    if (::listen(tcp_fd_, 128) != 0) {
      throw_errno("ClassifyServer: listen 127.0.0.1:" + std::to_string(tcp_port_));
    }
  }
}

void ClassifyServer::stop() noexcept {
  stopping_.store(true);
  const char byte = 1;
  // write(2) is async-signal-safe; a full pipe is fine (a byte is pending).
  (void)::write(stop_pipe_[1], &byte, 1);
}

void ClassifyServer::request_reload() noexcept {
  reload_pending_.store(true);
  const char byte = 1;
  (void)::write(stop_pipe_[1], &byte, 1);
}

void ClassifyServer::run() {
  check_invariant(unix_fd_ >= 0 || tcp_fd_ >= 0, "ClassifyServer::run before bind_and_listen");
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw_errno("ClassifyServer: epoll_create1");
  if (!watch(epoll_fd_, stop_pipe_[0], kStopId) ||
      (unix_fd_ >= 0 && !watch(epoll_fd_, unix_fd_, kUnixListenerId)) ||
      (tcp_fd_ >= 0 && !watch(epoll_fd_, tcp_fd_, kTcpListenerId))) {
    throw_errno("ClassifyServer: epoll_ctl(add)");
  }

  for (std::size_t i = resolve_threads(config_.workers); i > 0; --i) {
    shards_.push_back(std::make_unique<Shard>(*this));
  }
  epoll_event events[4];
  while (!stopping_.load()) {
    // Block until a connection, a stop/reload byte or the end of an accept backoff.
    const int ready = ::epoll_wait(epoll_fd_, events, std::size(events),
                                   accept_paused_ ? ms_until(accept_resume_) : -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw_errno("ClassifyServer: epoll_wait");
    }
    maybe_resume_accepting();
    for (int i = 0; i < ready && !stopping_.load(); ++i) {
      const std::uint64_t id = events[i].data.u64;
      if (id == kStopId) {
        // The stop pipe carries both shutdown and SIGHUP-reload wakeups;
        // drain it, then let the flags say which this was.
        char byte = 0;
        while (::read(stop_pipe_[0], &byte, 1) > 0) {
        }
        if (!stopping_.load() && reload_pending_.exchange(false)) reload_from_signal();
      } else {
        accept_ready(id == kUnixListenerId ? unix_fd_ : tcp_fd_);
      }
    }
  }
  // Stop accepting, then destroy the shards: each finishes a request
  // already executing, then closes every connection it owns.
  close_quietly(unix_fd_);
  close_quietly(tcp_fd_);
  if (unix_bound_) {
    ::unlink(config_.unix_path.c_str());
    unix_bound_ = false;
  }
  shards_.clear();
  close_quietly(epoll_fd_);
  // Leave the stop pipe armed-but-drained so a stale byte cannot wake a
  // hypothetical future run() immediately.
  char byte = 0;
  while (::read(stop_pipe_[0], &byte, 1) > 0) {
  }
  if (shard_failure_) std::rethrow_exception(std::exchange(shard_failure_, nullptr));
}

void ClassifyServer::pause_accepting(int err) {
  // Unregister the listeners (level-triggered epoll would otherwise spin
  // reporting them readable) and come back after the backoff window; the
  // pending backlog survives in the kernel queue.
  std::fprintf(stderr, "pulphd serve: accept: %s; pausing accepts for %lld ms\n",
               io::errno_text(err).c_str(), static_cast<long long>(kAcceptBackoff.count()));
  if (unix_fd_ >= 0) ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, unix_fd_, nullptr);
  if (tcp_fd_ >= 0) ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, tcp_fd_, nullptr);
  accept_paused_ = true;
  accept_resume_ = std::chrono::steady_clock::now() + kAcceptBackoff;
}

void ClassifyServer::maybe_resume_accepting() {
  if (!accept_paused_ || std::chrono::steady_clock::now() < accept_resume_) return;
  accept_paused_ = false;
  if (unix_fd_ >= 0) (void)watch(epoll_fd_, unix_fd_, kUnixListenerId);
  if (tcp_fd_ >= 0) (void)watch(epoll_fd_, tcp_fd_, kTcpListenerId);
  // Catch up on the backlog that queued while paused.
  if (unix_fd_ >= 0) accept_ready(unix_fd_);
  if (tcp_fd_ >= 0 && !accept_paused_) accept_ready(tcp_fd_);
}

void ClassifyServer::accept_ready(int listen_fd) {
  while (!accept_paused_) {
    int client = -1;
    const failpoint::Injection inj = failpoint::evaluate("serve.accept");
    if (inj.kind == failpoint::Injection::Kind::kError) {
      errno = inj.error;
    } else {
      client = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC | SOCK_NONBLOCK);
    }
    if (client < 0) {
      const int err = errno;
      if (err == EAGAIN || err == EWOULDBLOCK) return;  // backlog drained
      if (err == EINTR || err == ECONNABORTED) continue;  // this one peer only
      if (err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM) {
        // fd/memory exhaustion: nothing accepts until resources free up.
        // Back off instead of dying — the paper's daemon is always-on.
        pause_accepting(err);
        return;
      }
      // Anything else is unexpected but still no reason to kill the
      // acceptor; log it and wait for the next epoll wakeup.
      std::fprintf(stderr, "pulphd serve: accept: %s (ignored)\n", io::errno_text(err).c_str());
      return;
    }
    // Over the cap, the connection is refused, always in the text encoding:
    // it never got to negotiate, and an error line is readable in a
    // terminal while a binary client fails fast anyway. A shard delivers
    // the refusal (see Connection::refused); past kMaxRefused lingering
    // refusals, the door is simply slammed.
    const bool refused =
        config_.max_connections > 0 && open_conns_.load() >= config_.max_connections;
    if (refused && refused_conns_.load() >= kMaxRefused) {
      ::close(client);
      continue;
    }
    (refused ? refused_conns_ : open_conns_).fetch_add(1);
    auto conn = std::make_unique<Connection>(
        next_conn_id_++, client,
        ConnectionSession::Limits{config_.max_line_bytes, config_.max_frame_bytes});
    if (refused) {
      conn->refused = true;
      conn->outbuf = ResponseEncoder(Wire::kText)
                         .error(kErrOverloaded, "server is at its connection limit (" +
                                                    std::to_string(config_.max_connections) +
                                                    "); retry later");
    }
    // Turn-by-turn placement: consecutive connections land on different
    // shards, so two clients never share a thread while another idles.
    shards_[next_shard_]->adopt(std::move(conn));
    next_shard_ = (next_shard_ + 1) % shards_.size();
  }
}

void ClassifyServer::reload_from_signal() {
  // Outcomes have no connection to answer on, so they are reported to
  // stderr. The acceptor does the disk I/O itself: it delays only new
  // connections' placement, never a request.
  std::string report = "pulphd serve: reload (SIGHUP):\n";
  try {
    for (const ReloadStatus& status : registry_.reload_all()) {
      report += "reload model=" + status.name + (status.ok ? " ok=1" : " ok=0");
      if (!status.message.empty()) report += " msg=" + status.message;
      report += '\n';
    }
  } catch (const std::exception& e) {
    report += std::string("reload failed: ") + e.what() + '\n';
  }
  std::fputs(report.c_str(), stderr);
}

void ClassifyServer::Shard::loop() try {
  epoll_event events[64];
  while (!server_.stopping_.load()) {
    const int ready = ::epoll_wait(epoll_fd_, events, std::size(events), idle_sweep_timeout_ms());
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw_errno("ClassifyServer: epoll_wait");
    }
    for (int i = 0; i < ready && !server_.stopping_.load(); ++i) {
      const std::uint64_t id = events[i].data.u64;
      if (id == kWakeId) {
        take_inbox();
        continue;
      }
      // A connection. It may have been closed by an earlier event in this
      // same batch — look it up fresh.
      const auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      Connection& conn = *it->second;
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0 &&
          (events[i].events & (EPOLLIN | EPOLLOUT)) == 0) {
        close_connection(conn);
        continue;
      }
      // EPOLLOUT alone means a parked outbuf can flush again, which may
      // release the backpressure that stopped reading: either way, run the
      // full post-I/O tail.
      if ((events[i].events & EPOLLIN) != 0 && !read_input(conn)) continue;
      finish_io(conn);
    }
  }
} catch (...) {
  // Not a request failure (run_next answers those) but a failing epoll_wait
  // or exhausted memory: the shard cannot go on, so it stops the server,
  // and run() rethrows this once every shard is joined.
  failure_ = std::current_exception();
  server_.stop();
}

void ClassifyServer::Shard::take_inbox() {
  std::uint64_t count = 0;
  (void)::read(wake_fd_, &count, sizeof(count));
  const MutexLock lock(inbox_mutex_);
  for (std::unique_ptr<Connection>& conn : inbox_) {
    if (!watch(epoll_fd_, conn->fd, conn->id)) {
      server_.open_conns_.fetch_sub(1);
      continue;  // clearing the inbox closes it
    }
    conn->armed = EPOLLIN;
    Connection& adopted = *conns_.emplace(conn->id, std::move(conn)).first->second;
    finish_io(adopted);  // sends a refusal at once
  }
  inbox_.clear();
}

int ClassifyServer::Shard::idle_sweep_timeout_ms() {
  if (server_.config_.idle_timeout.count() <= 0) return -1;
  const auto now = std::chrono::steady_clock::now();
  auto next_deadline = std::chrono::steady_clock::time_point::max();
  for (auto it = conns_.begin(); it != conns_.end();) {
    Connection& conn = *(it++)->second;  // advance first: closing erases conn's node
    // Un-drained output does NOT exempt a connection: last_activity is
    // refreshed on every successful send, so a non-empty outbuf with no
    // progress for the whole timeout means the peer stopped reading — reap
    // it like any other dead peer.
    const auto deadline = conn.last_activity + server_.config_.idle_timeout;
    if (deadline <= now) {
      close_connection(conn);
    } else {
      next_deadline = std::min(next_deadline, deadline);
    }
  }
  if (next_deadline == std::chrono::steady_clock::time_point::max()) return -1;
  return ms_until(next_deadline);
}

bool ClassifyServer::Shard::read_input(Connection& conn) {
  // Read to EAGAIN (within backpressure) before running anything, so every
  // request already in the socket is stamped before a slow one runs. Bytes
  // that arrived while an earlier request ran carry that run's start
  // (run_next): the --request-timeout clock of work queued behind a slow
  // request never depends on when the shard got round to reading it.
  const auto arrived = conn.unread_since.value_or(std::chrono::steady_clock::now());
  char chunk[65536];
  // Respect backpressure mid-read: a pipelining client can fit hundreds of
  // requests into one socket buffer.
  while (conn.pending.size() < kMaxPipelinedRequests &&
         conn.out_size() < kMaxBufferedOutputBytes) {
    const ssize_t n = ::read(conn.fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        conn.unread_since.reset();
        break;
      }
      close_connection(conn);
      return false;
    }
    if (n == 0) {
      // Half-close: the peer may have shut down its write side after a
      // pipelined burst and still be reading our responses.
      conn.peer_eof = true;
      break;
    }
    conn.last_activity = std::chrono::steady_clock::now();
    if (conn.refused) break;  // drained unread, a chunk per wakeup
    for (WireEvent& event : conn.session.consume({chunk, static_cast<std::size_t>(n)})) {
      conn.pending.push_back({std::move(event), arrived});
    }
  }
  return true;
}

void ClassifyServer::Shard::finish_io(Connection& conn) {
  // Run the parsed backlog to completion, flushing after each request so a
  // pipelining client reads answer k while request k + 1 executes.
  while (true) {
    if (!flush_output(conn)) {
      close_connection(conn);
      return;
    }
    if (conn.closing || conn.pending.empty() || server_.stopping_.load()) break;
    run_next(conn);
  }
  if (conn.refused && conn.out_empty()) ::shutdown(conn.fd, SHUT_WR);
  if (conn.out_empty() && (conn.closing || (conn.peer_eof && conn.pending.empty()))) {
    close_connection(conn);
    return;
  }
  update_interest(conn);
}

void ClassifyServer::Shard::run_next(Connection& conn) {
  Connection::PendingEvent queued = std::move(conn.pending.front());
  conn.pending.pop_front();
  WireEvent& item = queued.event;
  if (!item.output.empty()) conn.outbuf += item.output;
  const Wire wire = conn.session.wire();
  if (item.drop) {
    conn.closing = true;
    conn.pending.clear();
    return;
  }
  if (!item.request.has_value()) return;
  if (std::holds_alternative<QuitRequest>(*item.request)) {
    conn.outbuf += ResponseEncoder(wire).bye();
    conn.closing = true;
    conn.pending.clear();
    return;
  }
  const bool streams = std::holds_alternative<StreamOpenRequest>(*item.request) ||
                       std::holds_alternative<StreamPushRequest>(*item.request) ||
                       std::holds_alternative<StreamCloseRequest>(*item.request);
  const bool computes = streams || std::holds_alternative<ClassifyRequest>(*item.request) ||
                        std::holds_alternative<ReloadRequest>(*item.request);
  const std::chrono::milliseconds deadline = server_.config_.request_timeout;
  const auto started = std::chrono::steady_clock::now();
  if (computes && deadline.count() > 0) {
    // Shed work that sat queued behind earlier pipelined requests past the
    // deadline: answering `timeout` now beats running a classify whose
    // client has long stopped waiting. A request that started running is
    // never interrupted.
    const auto waited =
        std::chrono::duration_cast<std::chrono::milliseconds>(started - queued.arrived);
    if (waited > deadline) {
      conn.outbuf += ResponseEncoder(wire).error(
          kErrTimeout, "request queued for " + std::to_string(waited.count()) +
                           " ms, past the " + std::to_string(deadline.count()) +
                           " ms deadline; shed unrun");
      // A shed stream request breaks the sample stream (a dropped push
      // would silently skew every later window), so invalidate the whole
      // session: the client's next push answers `bad-stream` until it
      // re-opens.
      if (streams) conn.stream.close();
      return;
    }
  }
  try {
    conn.outbuf += server_.handle_request(*item.request, wire, conn.stream);
  } catch (...) {
    // handle_request already maps failures; this is a backstop so a throw
    // (say, bad_alloc while encoding) can never kill the shard.
    conn.outbuf += ResponseEncoder(wire).error(kErrInternal, "unexpected server failure");
  }
  conn.last_activity = std::chrono::steady_clock::now();
  // Bytes still in the socket arrived while this request ran (or earlier,
  // if backpressure cut the last read short). The shard cannot tell when,
  // so they count their wait from the run's start.
  char byte = 0;
  if (computes && deadline.count() > 0 && !conn.unread_since &&
      ::recv(conn.fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT) > 0) {
    conn.unread_since = started;
  }
}

bool ClassifyServer::Shard::flush_output(Connection& conn) {
  while (!conn.out_empty()) {
    const ssize_t n =
        ::send(conn.fd, conn.outbuf.data() + conn.outoff, conn.out_size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;  // EPOLLOUT will resume
      return false;  // peer is gone
    }
    conn.outoff += static_cast<std::size_t>(n);
    conn.last_activity = std::chrono::steady_clock::now();
  }
  // Reclaim the sent prefix: free everything once drained, otherwise
  // compact only when the prefix dominates the buffer (amortized O(1)
  // per byte; a straight erase-per-send is O(n^2) against a slow reader).
  if (conn.out_empty()) {
    conn.outbuf.clear();
    conn.outoff = 0;
  } else if (conn.outoff >= kOutbufCompactBytes && conn.outoff >= conn.outbuf.size() / 2) {
    conn.outbuf.erase(0, conn.outoff);
    conn.outoff = 0;
  }
  return true;
}

void ClassifyServer::Shard::update_interest(Connection& conn) {
  const bool want_read = !conn.closing && !conn.peer_eof && !conn.session.dead() &&
                         conn.pending.size() < kMaxPipelinedRequests &&
                         conn.out_size() < kMaxBufferedOutputBytes;
  const std::uint32_t events =
      (want_read ? EPOLLIN : 0u) | (conn.out_empty() ? 0u : EPOLLOUT);
  if (events == conn.armed) return;
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = conn.id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev) == 0) conn.armed = events;
}

void ClassifyServer::Shard::close_connection(Connection& conn) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  std::atomic<std::size_t>& count = conn.refused ? server_.refused_conns_ : server_.open_conns_;
  conns_.erase(conn.id);  // destroys conn, closing its socket — nothing may touch it afterwards
  count.fetch_sub(1);
}

std::string ClassifyServer::handle_request(const Request& request, Wire wire,
                                           StreamSession& stream) const {
  const ResponseEncoder encoder(wire);
  try {
    if (std::holds_alternative<PingRequest>(request)) return encoder.pong();
    if (std::holds_alternative<ModelsRequest>(request)) {
      return encoder.models(registry_.infos());
    }
    if (std::holds_alternative<ReloadRequest>(request)) {
      const auto& reload = std::get<ReloadRequest>(request);
      // Reload failures live in the per-model status rows, never as a
      // wire error: the previous models keep serving regardless.
      const std::vector<ReloadStatus> statuses =
          reload.model.empty() ? registry_.reload_all()
                               : std::vector<ReloadStatus>{registry_.reload(reload.model)};
      return encoder.reload(statuses);
    }
    // Chaos hook for the shard-side execute path (classify and the stream
    // family alike): stall(MS) makes them slow (driving --request-timeout
    // shedding), err(E) simulates an unexpected execution failure.
    const failpoint::Injection inj = failpoint::evaluate("serve.classify");
    if (inj.kind == failpoint::Injection::Kind::kError) {
      throw std::runtime_error("injected classify failure: " + io::errno_text(inj.error));
    }
    if (std::holds_alternative<StreamOpenRequest>(request)) {
      const auto& open = std::get<StreamOpenRequest>(request);
      if (stream.open()) {
        throw CodedError(std::string(kErrBadStream),
                         "a streaming session is already open on this connection (model \"" +
                             stream.model->name + "\"); stream-close it first");
      }
      // The snapshot pins this model version for the session's whole life:
      // reloads concurrent with the session swap the registry slot without
      // ever touching it, and the next stream-open resolves fresh.
      const ModelSnapshot entry = registry_.resolve(open.model);
      const hd::ClassifierConfig& cfg = entry->classifier.config();
      if (open.window < cfg.ngram) {
        throw CodedError(std::string(kErrBadStream),
                         "window=" + std::to_string(open.window) + " is shorter than model \"" +
                             entry->name + "\"'s N-gram size " + std::to_string(cfg.ngram));
      }
      stream.encoder.emplace(entry->classifier.make_streaming_encoder());
      stream.encoder->configure(open.window, open.hop);
      stream.windows = 0;
      stream.model = entry;  // last: open() now implies a configured encoder
      return encoder.stream_opened(entry->name, open.window, open.hop);
    }
    if (std::holds_alternative<StreamPushRequest>(request)) {
      const auto& push = std::get<StreamPushRequest>(request);
      if (!stream.open()) {
        throw CodedError(std::string(kErrBadStream),
                         "stream-push without an open session (stream-open first; a shed "
                         "stream request also invalidates the session)");
      }
      const hd::ClassifierConfig& cfg = stream.model->classifier.config();
      // Validate every sample before consuming any, so a bad-trial answer
      // leaves the stream position untouched and the client may re-push.
      for (const hd::Sample& sample : push.samples) {
        if (sample.size() != cfg.channels) {
          throw CodedError(std::string(kErrBadTrial),
                           "stream sample has " + std::to_string(sample.size()) +
                               " channels but model \"" + stream.model->name + "\" expects " +
                               std::to_string(cfg.channels));
        }
      }
      const std::uint64_t first_index = stream.windows;
      std::vector<hd::Hypervector> queries;
      stream.encoder->push(push.samples, queries);
      stream.windows += queries.size();
      // The windows' queries came out of the streaming recurrence
      // bit-identical to the buffered encode, so classifying them against
      // the pinned AM matches the offline batch path exactly.
      const std::vector<hd::AmDecision> decisions =
          stream.model->classifier.predict_encoded_batch(queries);
      return encoder.stream_windows(first_index, decisions);
    }
    if (std::holds_alternative<StreamCloseRequest>(request)) {
      if (!stream.open()) {
        throw CodedError(std::string(kErrBadStream), "stream-close without an open session");
      }
      const std::uint64_t windows = stream.windows;
      stream.close();
      return encoder.stream_closed(windows);
    }
    const auto& classify = std::get<ClassifyRequest>(request);
    // The snapshot pins this model version for the whole computation: a
    // concurrent reload swaps the registry slot without ever blocking or
    // invalidating this request.
    const ModelSnapshot entry = registry_.resolve(classify.model);
    const hd::ClassifierConfig& cfg = entry->classifier.config();
    for (std::size_t t = 0; t < classify.trials.size(); ++t) {
      const hd::Trial& trial = classify.trials[t];
      if (trial.size() < cfg.ngram) {
        throw CodedError(std::string(kErrBadTrial),
                         "trial " + std::to_string(t) + " has " + std::to_string(trial.size()) +
                             " samples but model \"" + entry->name + "\" needs >= " +
                             std::to_string(cfg.ngram) + " (its N-gram size)");
      }
      for (const hd::Sample& sample : trial) {
        if (sample.size() != cfg.channels) {
          throw CodedError(std::string(kErrBadTrial),
                           "trial " + std::to_string(t) + " has a sample with " +
                               std::to_string(sample.size()) + " channels but model \"" +
                               entry->name + "\" expects " + std::to_string(cfg.channels));
        }
      }
    }
    // The bit-identical offline batch path: encode_trials across the
    // classifier's host threads, then the word-parallel AM kernel.
    const std::vector<hd::AmDecision> decisions =
        entry->classifier.predict_batch(classify.trials);
    return encoder.classify(entry->name, decisions);
  } catch (const CodedError& e) {
    return encoder.error(e.code(), e.what());
  } catch (const std::exception& e) {
    return encoder.error(kErrInternal, e.what());
  }
}

}  // namespace pulphd::serve
