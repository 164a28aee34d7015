#include "serve/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/failpoint.hpp"
#include "common/io.hpp"
#include "common/status.hpp"

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

/// Fixed epoll identities; accepted connections count up from
/// ClassifyServer::next_conn_id_ (16).
constexpr std::uint64_t kStopId = 0;
constexpr std::uint64_t kUnixListenerId = 1;
constexpr std::uint64_t kTcpListenerId = 2;
constexpr std::uint64_t kCompletionId = 3;

/// A transient accept(2) failure in this class unregisters the listeners
/// for this long instead of letting level-triggered epoll spin on an
/// accept that cannot succeed until an fd frees up.
constexpr std::chrono::milliseconds kAcceptBackoff{100};

[[noreturn]] void throw_errno(const std::string& what) {
  // io::errno_text is the strerror_r-based thread-safe formatter: workers
  // and the loop thread both throw through here.
  throw std::runtime_error(what + ": " + io::errno_text(errno));
}

void close_quietly(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

/// The streaming-session state of one connection. Created empty at accept;
/// stream-open pins the model snapshot and configures the encoder,
/// stream-close clears both. Ownership is shared between the Connection and
/// whichever worker lambda is executing a stream request, so a connection
/// that dies mid-request keeps the worker's state alive until it finishes —
/// like the orphaned-completion pattern, but for state the worker mutates.
/// Mutual exclusion comes from per-connection single-flight dispatch (at
/// most one worker per connection at a time) and ordering from the
/// completions_mutex_ handoff; no lock of its own is needed.
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

/// Per-connection event-loop state. Owned and touched exclusively by the
/// loop thread; workers refer to a connection only by its id, so a
/// connection that dies mid-request simply orphans its completion.
struct ClassifyServer::Connection {
  /// A parsed wire event plus when it finished parsing — the clock the
  /// --request-timeout shedding in dispatch_next measures queueing from.
  struct PendingEvent {
    WireEvent event;
    std::chrono::steady_clock::time_point arrived;
  };

  std::uint64_t id = 0;
  int fd = -1;
  ConnectionSession session;
  /// The connection's streaming session. The loop thread only ever swaps
  /// the *pointer* (to invalidate after a shed stream request); the
  /// pointee is mutated exclusively by the single in-flight worker.
  std::shared_ptr<StreamSession> stream = std::make_shared<StreamSession>();
  std::string outbuf;       ///< encoded responses; [0, outoff) is already sent
  std::size_t outoff = 0;   ///< sent prefix of outbuf (reclaimed lazily)
  std::deque<PendingEvent> pending;  ///< parsed requests / errors awaiting their turn
  bool busy = false;                 ///< a classify/reload is on a worker
  bool closing = false;           ///< flush outbuf, then close
  bool peer_eof = false;          ///< read() hit EOF; still answering pipelined work
  std::uint32_t armed = 0;        ///< epoll event mask currently registered
  std::chrono::steady_clock::time_point last_activity;

  Connection(std::uint64_t id_, int fd_, ConnectionSession::Limits limits)
      : id(id_), fd(fd_), session(limits),
        last_activity(std::chrono::steady_clock::now()) {}

  bool out_empty() const noexcept { return outoff == outbuf.size(); }
  std::size_t out_size() const noexcept { return outbuf.size() - outoff; }
};

ClassifyServer::ClassifyServer(ModelRegistry& registry, ServeConfig config)
    : registry_(registry), config_(std::move(config)) {
  // Non-blocking on both ends: stop() must never block in a signal handler,
  // and shutdown drains the read end until empty.
  if (::pipe2(stop_pipe_, O_CLOEXEC | O_NONBLOCK) != 0) throw_errno("ClassifyServer: pipe2");
}

ClassifyServer::~ClassifyServer() {
  close_quietly(unix_fd_);
  close_quietly(tcp_fd_);
  close_quietly(stop_pipe_[0]);
  close_quietly(stop_pipe_[1]);
  close_quietly(epoll_fd_);
  close_quietly(completion_fd_);
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
  completion_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (completion_fd_ < 0) throw_errno("ClassifyServer: eventfd");

  auto watch = [this](int fd, std::uint64_t id) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      throw_errno("ClassifyServer: epoll_ctl(add)");
    }
  };
  watch(stop_pipe_[0], kStopId);
  watch(completion_fd_, kCompletionId);
  if (unix_fd_ >= 0) watch(unix_fd_, kUnixListenerId);
  if (tcp_fd_ >= 0) watch(tcp_fd_, kTcpListenerId);

  workers_ = std::make_unique<ThreadPool>(resolve_threads(config_.workers));

  epoll_event events[64];
  while (!stopping_.load()) {
    const int timeout_ms = loop_timeout_ms();
    const int ready = ::epoll_wait(epoll_fd_, events, std::size(events), timeout_ms);
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
        if (stopping_.load()) break;
        if (reload_pending_.exchange(false)) start_async_reload();
        continue;
      }
      if (id == kUnixListenerId) {
        accept_ready(unix_fd_);
        continue;
      }
      if (id == kTcpListenerId) {
        accept_ready(tcp_fd_);
        continue;
      }
      if (id == kCompletionId) {
        std::uint64_t count = 0;
        (void)::read(completion_fd_, &count, sizeof(count));
        drain_completions();
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
      if ((events[i].events & EPOLLIN) != 0) connection_readable(conn);
      if ((events[i].events & EPOLLOUT) != 0) {
        // The readable branch may have closed (and destroyed) the
        // connection — re-resolve before resuming the write side.
        const auto again = conns_.find(id);
        if (again != conns_.end()) connection_writable(*again->second);
      }
    }
  }
  shutdown_loop();
}

int ClassifyServer::loop_timeout_ms() {
  int timeout = idle_sweep_timeout_ms();
  if (accept_paused_) {
    const auto now = std::chrono::steady_clock::now();
    const auto wait = std::chrono::ceil<std::chrono::milliseconds>(accept_resume_ - now);
    const int resume_ms = static_cast<int>(std::clamp<long long>(wait.count(), 1, 60'000));
    timeout = timeout < 0 ? resume_ms : std::min(timeout, resume_ms);
  }
  return timeout;
}

int ClassifyServer::idle_sweep_timeout_ms() {
  if (config_.idle_timeout.count() <= 0) return -1;
  const auto now = std::chrono::steady_clock::now();
  auto next_deadline = std::chrono::steady_clock::time_point::max();
  std::vector<std::uint64_t> expired;
  for (const auto& [id, conn] : conns_) {
    // In-flight or queued work means the peer is waiting on us, not idle.
    // Un-drained output does NOT exempt a connection: last_activity is
    // refreshed on every successful send, so a non-empty outbuf with no
    // progress for the whole timeout means the peer stopped reading — reap
    // it like any other dead peer.
    if (conn->busy || !conn->pending.empty()) continue;
    const auto deadline = conn->last_activity + config_.idle_timeout;
    if (deadline <= now) {
      expired.push_back(id);
    } else {
      next_deadline = std::min(next_deadline, deadline);
    }
  }
  for (const std::uint64_t id : expired) {
    const auto it = conns_.find(id);
    if (it != conns_.end()) close_connection(*it->second);
  }
  if (next_deadline == std::chrono::steady_clock::time_point::max()) return -1;
  const auto wait = std::chrono::ceil<std::chrono::milliseconds>(next_deadline - now);
  return static_cast<int>(std::clamp<long long>(wait.count(), 1, 60'000));
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
  auto rearm = [this](int fd, std::uint64_t id) {
    if (fd < 0) return;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  };
  rearm(unix_fd_, kUnixListenerId);
  rearm(tcp_fd_, kTcpListenerId);
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
      // Anything else is unexpected but still no reason to kill the loop;
      // log it and wait for the next epoll wakeup.
      std::fprintf(stderr, "pulphd serve: accept: %s (ignored)\n", io::errno_text(err).c_str());
      return;
    }
    if (config_.max_connections > 0 && conns_.size() >= config_.max_connections) {
      // Shed load at the door. The refusal is always the text encoding:
      // the connection never got to negotiate, and an error line is
      // readable in a terminal while a binary client fails fast anyway.
      const std::string refusal = format_error(
          kErrOverloaded, "server is at its connection limit (" +
                              std::to_string(config_.max_connections) + "); retry later");
      // Best-effort delivery on the non-blocking socket: a freshly accepted
      // connection's send buffer is empty, so one send() almost always
      // takes the whole line — but retry briefly on partial writes/EAGAIN
      // rather than silently truncating the refusal. Bounded so a hostile
      // peer cannot stall the accept loop.
      std::string_view rest = refusal;
      for (int attempt = 0; attempt < 8 && !rest.empty(); ++attempt) {
        const ssize_t n = ::send(client, rest.data(), rest.size(), MSG_NOSIGNAL);
        if (n > 0) {
          rest.remove_prefix(static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
          pollfd pfd{client, POLLOUT, 0};
          (void)::poll(&pfd, 1, 10);
          continue;
        }
        break;  // peer is gone; the refusal was advisory anyway
      }
      ::close(client);
      continue;
    }
    const std::uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Connection>(id, client, session_limits());
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, client, &ev) != 0) {
      ::close(client);
      continue;
    }
    conn->armed = EPOLLIN;
    conns_.emplace(id, std::move(conn));
  }
}

void ClassifyServer::connection_readable(Connection& conn) {
  char chunk[65536];
  while (true) {
    const ssize_t n = ::read(conn.fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_connection(conn);
      return;
    }
    if (n == 0) {
      // Half-close: the peer may have shut down its write side after a
      // pipelined burst and still be reading our responses.
      conn.peer_eof = true;
      break;
    }
    conn.last_activity = std::chrono::steady_clock::now();
    enqueue_events(conn, conn.session.consume({chunk, static_cast<std::size_t>(n)}));
    // Respect backpressure mid-read: a pipelining client can fit hundreds
    // of requests into one socket buffer.
    if (conn.pending.size() >= kMaxPipelinedRequests ||
        conn.out_size() >= kMaxBufferedOutputBytes) {
      break;
    }
  }
  finish_io(conn);
}

void ClassifyServer::connection_writable(Connection& conn) {
  // EPOLLOUT: the socket drained, so the parked outbuf can flush again —
  // and flushing may release the pipelining backpressure that stopped
  // dispatch, so run the full post-I/O tail.
  finish_io(conn);
}

void ClassifyServer::finish_io(Connection& conn) {
  dispatch_next(conn);
  if (!flush_output(conn)) {
    close_connection(conn);
    return;
  }
  if (conn.out_empty() &&
      (conn.closing || (conn.peer_eof && !conn.busy && conn.pending.empty()))) {
    close_connection(conn);
    return;
  }
  update_interest(conn);
}

void ClassifyServer::enqueue_events(Connection& conn, std::vector<WireEvent> events) {
  const auto now = std::chrono::steady_clock::now();
  for (WireEvent& event : events) conn.pending.push_back({std::move(event), now});
}

void ClassifyServer::dispatch_next(Connection& conn) {
  while (!conn.busy && !conn.closing && !conn.pending.empty()) {
    Connection::PendingEvent queued = std::move(conn.pending.front());
    conn.pending.pop_front();
    WireEvent& item = queued.event;
    if (!item.output.empty()) conn.outbuf += item.output;
    if (item.drop) {
      conn.closing = true;
      conn.pending.clear();
      return;
    }
    if (!item.request.has_value()) continue;
    if (std::holds_alternative<QuitRequest>(*item.request)) {
      conn.outbuf += ResponseEncoder(conn.session.wire()).bye();
      conn.closing = true;
      conn.pending.clear();
      return;
    }
    const bool streams = std::holds_alternative<StreamOpenRequest>(*item.request) ||
                         std::holds_alternative<StreamPushRequest>(*item.request) ||
                         std::holds_alternative<StreamCloseRequest>(*item.request);
    const bool computes = streams || std::holds_alternative<ClassifyRequest>(*item.request) ||
                          std::holds_alternative<ReloadRequest>(*item.request);
    if (computes && config_.request_timeout.count() > 0) {
      // Shed work that sat queued behind earlier pipelined requests past
      // the deadline: answering `timeout` now beats running a classify
      // whose client has long stopped waiting. Requests already on a
      // worker are never interrupted.
      const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - queued.arrived);
      if (waited > config_.request_timeout) {
        conn.outbuf += ResponseEncoder(conn.session.wire())
                           .error(kErrTimeout,
                                  "request queued for " + std::to_string(waited.count()) +
                                      " ms, past the " +
                                      std::to_string(config_.request_timeout.count()) +
                                      " ms deadline; shed unrun");
        if (streams) {
          // A shed stream request breaks the sample stream (a dropped push
          // would silently skew every later window), so invalidate the
          // whole session: swap in a fresh one — never mutate the old
          // pointee, which a finished worker may still hold — and let the
          // client's next push answer `bad-stream` until it re-opens.
          conn.stream = std::make_shared<StreamSession>();
        }
        continue;
      }
    }
    if (computes) {
      // Classify, reload and the stream family all compute/do I/O: hand
      // them to the pool and wait for the completion before touching the
      // next pipelined item, so responses keep request order — which also
      // guarantees at most one worker per connection, the mutual exclusion
      // the shared StreamSession relies on.
      conn.busy = true;
      const std::uint64_t id = conn.id;
      const Wire wire = conn.session.wire();
      {
        const MutexLock lock(completions_mutex_);
        ++in_flight_;
      }
      workers_->submit(
          [this, id, wire, stream = conn.stream,
           request = std::make_shared<Request>(std::move(*item.request))] {
            std::string output;
            try {
              output = handle_request(*request, wire, *stream);
            } catch (...) {
              // handle_request already maps failures; this is a backstop so
              // a worker thread can never die with an exception in flight.
              output = ResponseEncoder(wire).error(kErrInternal, "unexpected server failure");
            }
            {
              const MutexLock lock(completions_mutex_);
              completions_.push_back({id, std::move(output)});
              --in_flight_;
            }
            completions_cv_.notify_all();
            const std::uint64_t one = 1;
            (void)::write(completion_fd_, &one, sizeof(one));
          });
      return;
    }
    // ping / models: trivial lookups, answered on the loop thread itself.
    conn.outbuf += handle_request(*item.request, conn.session.wire(), *conn.stream);
  }
}

void ClassifyServer::start_async_reload() {
  // SIGHUP-initiated reload_all, run on the worker pool like any other
  // compute so disk I/O never stalls the event loop. Outcomes have no
  // connection to answer on, so they are reported to stderr; the
  // in_flight_ accounting keeps shutdown_loop waiting for it like any
  // classify.
  {
    const MutexLock lock(completions_mutex_);
    ++in_flight_;
  }
  workers_->submit([this] {
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
    {
      const MutexLock lock(completions_mutex_);
      --in_flight_;
    }
    completions_cv_.notify_all();
  });
}

void ClassifyServer::drain_completions() {
  std::vector<Completion> done;
  {
    const MutexLock lock(completions_mutex_);
    done.swap(completions_);
  }
  for (Completion& completion : done) {
    const auto it = conns_.find(completion.conn_id);
    if (it == conns_.end()) continue;  // connection died while the worker ran
    Connection& conn = *it->second;
    conn.busy = false;
    conn.outbuf += completion.output;
    conn.last_activity = std::chrono::steady_clock::now();
    finish_io(conn);
  }
}

bool ClassifyServer::flush_output(Connection& conn) {
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

void ClassifyServer::update_interest(Connection& conn) {
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

void ClassifyServer::close_connection(Connection& conn) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  conns_.erase(conn.id);  // destroys conn — nothing may touch it afterwards
}

void ClassifyServer::shutdown_loop() {
  // Stop accepting and drop every connection; in-flight worker results are
  // discarded (their connections are already gone).
  close_quietly(unix_fd_);
  close_quietly(tcp_fd_);
  if (unix_bound_) {
    ::unlink(config_.unix_path.c_str());
    unix_bound_ = false;
  }
  for (auto& [id, conn] : conns_) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
  }
  conns_.clear();
  {
    MutexLock lock(completions_mutex_);
    while (in_flight_ != 0) completions_cv_.wait(lock);
    completions_.clear();
  }
  workers_.reset();  // joins the pool
  close_quietly(epoll_fd_);
  close_quietly(completion_fd_);
  // Leave the stop pipe armed-but-drained so a stale byte cannot wake a
  // hypothetical future run() immediately.
  char byte = 0;
  while (::read(stop_pipe_[0], &byte, 1) > 0) {
  }
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
    // Chaos hook for the worker-side execute path (classify and the stream
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
