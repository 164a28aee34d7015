// ClassifyServer — the long-lived serving loop behind `pulphd_cli serve`.
//
// Listens on a Unix-domain socket (the deployment default: local IPC, file
// permissions as access control) and/or a loopback TCP port, speaks both
// serve wire protocols (text phd1 and binary phd2, negotiated per
// connection from its first bytes; serve/protocol.hpp, docs/protocol.md),
// and answers classify requests from a read-only ModelRegistry. Model load
// is paid once at startup; every classify routes through
// HdClassifier::predict_batch, so a request's trials are encoded and
// classified with the classifier's host-thread setting — per-request
// parallelism for free, bit-identical to the offline batch path.
//
// Concurrency model: one epoll event-loop thread (run()) owns every
// connection's state — sockets are non-blocking, reads/writes/parsing all
// happen on the loop — and a fixed worker pool (common/thread_pool)
// executes classify requests. Workers never touch connection state: they
// receive a parsed request, compute the encoded response, and hand it back
// through a mutex-guarded completion queue + eventfd wakeup. Requests
// pipelined on one connection are answered strictly in order; different
// connections classify concurrently across the pool. The registry is
// internally synchronized and hands out immutable shared_ptr snapshots
// (RCU-style), so workers resolve and classify against it concurrently —
// including while a `reload` request or SIGHUP (request_reload()) swaps
// fresh models in underneath them.
//
// Streaming: a connection may hold one streaming session (`stream-open` /
// `stream-push` / `stream-close`; serve/protocol.hpp). The session pins its
// model snapshot at open (a concurrent reload never changes an open
// session), and its encoder state rides with the connection: the same
// single-flight pipelining that keeps classifies in order makes the worker
// executing a stream request the only thread touching the session, with the
// completion handoff ordering successive touches. Disconnect and the idle
// timeout tear the session down with its connection; shedding a queued
// stream request past the request deadline invalidates the whole session
// (the dropped samples would silently skew every later window), so the
// client must re-open.
//
// Degradation: transient accept(2) failures (EMFILE/ENFILE/ENOBUFS/ENOMEM)
// pause the listeners briefly instead of killing the loop; requests queued
// past ServeConfig::request_timeout are shed with a `timeout` error; and
// the failpoints "serve.accept" / "serve.classify" (common/failpoint.hpp)
// let the chaos suite force every one of those paths.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "serve/registry.hpp"

namespace pulphd::serve {

struct ServeConfig {
  /// Path for the Unix-domain listener; empty disables it. The path is
  /// created on bind_and_listen (failing if it already exists) and
  /// unlinked on shutdown.
  std::string unix_path;
  /// When true, also listen on TCP 127.0.0.1:`tcp_port` (0 = ephemeral;
  /// read the chosen port back with tcp_port()). Loopback only — the
  /// protocol has no authentication, so it is never exposed beyond the
  /// host.
  bool tcp_enabled = false;
  std::uint16_t tcp_port = 0;
  /// Framing bound per phd1 text line; longer lines answer `too-large`
  /// and drop the connection (framing is lost).
  std::size_t max_line_bytes = kMaxLineBytes;
  /// Framing bound per phd2 binary frame payload; a larger declared
  /// length answers a fatal `too-large` and drops the connection.
  std::size_t max_frame_bytes = kMaxFrameBytes;
  /// Accepted-connection cap (0 = unlimited). A connection over the cap
  /// is answered with one `overloaded` error line and closed immediately
  /// (always in text form: the connection never got to negotiate).
  std::size_t max_connections = 0;
  /// Idle timeout (0 = none): a connection with no in-flight or pending
  /// work and no wire activity for this long is closed without a
  /// response, like any TCP daemon sheds dead peers.
  std::chrono::milliseconds idle_timeout{0};
  /// Request deadline (0 = none): a classify/reload still queued behind
  /// earlier pipelined work this long after it was parsed is shed with an
  /// `err code=timeout` response instead of being run. A request already
  /// executing on a worker is never interrupted.
  std::chrono::milliseconds request_timeout{0};
  /// Worker threads executing classify requests (0 = one per hardware
  /// thread). Trivial requests (ping/models/quit) are answered on the
  /// event loop itself.
  std::size_t workers = 0;
};

class ClassifyServer {
 public:
  /// The registry must outlive the server. It is internally synchronized
  /// and hands out immutable snapshots, so new models may be added — and
  /// existing ones reloaded — concurrently while run() is live. The
  /// server mutates it only through reload requests (wire `reload`,
  /// request_reload()).
  ClassifyServer(ModelRegistry& registry, ServeConfig config);
  ~ClassifyServer();

  ClassifyServer(const ClassifyServer&) = delete;
  ClassifyServer& operator=(const ClassifyServer&) = delete;

  /// Creates the configured listeners. Throws std::runtime_error when
  /// neither listener is configured or a socket/bind/listen call fails
  /// (message includes the path/port and errno text).
  void bind_and_listen();

  /// Actual TCP port after bind_and_listen (resolves tcp_port == 0);
  /// -1 when TCP is disabled.
  int tcp_port() const noexcept { return tcp_port_; }

  /// Event loop: serves until stop() is called, then discards in-flight
  /// work, shuts down every active connection, drains the worker pool and
  /// closes the listeners. Requires bind_and_listen() first.
  void run();

  /// Requests shutdown. Async-signal-safe (writes one byte to a pipe), so
  /// a SIGINT/SIGTERM handler may call it directly.
  void stop() noexcept;

  /// Requests an asynchronous reload of every registered model from disk,
  /// as if a `reload` wire request arrived. Async-signal-safe (flag +
  /// pipe byte), so a SIGHUP handler may call it directly. The reload
  /// runs on the worker pool; per-model outcomes are logged to stderr,
  /// and a failed model keeps its previous snapshot serving.
  void request_reload() noexcept;

 private:
  struct Connection;
  /// Per-connection streaming-session state (one at most per connection,
  /// created at accept; defined in server.cpp). The loop thread hands the
  /// same StreamSession to every stream request of a connection — the
  /// single-flight pipeline guarantees only one worker touches it at a
  /// time, and the completion handoff orders those touches.
  struct StreamSession;
  struct Completion {
    std::uint64_t conn_id = 0;
    std::string output;
  };

  ConnectionSession::Limits session_limits() const noexcept {
    return {config_.max_line_bytes, config_.max_frame_bytes};
  }
  std::string handle_request(const Request& request, Wire wire, StreamSession& stream) const;

  // Event-loop internals (all run on the loop thread only).
  void accept_ready(int listen_fd);
  /// Unregisters the listeners for a short backoff window after an
  /// fd/memory-exhaustion accept failure (EMFILE and friends), so a
  /// level-triggered epoll does not spin on an accept that cannot succeed.
  void pause_accepting(int err);
  /// Re-registers the listeners once the backoff window has passed.
  void maybe_resume_accepting();
  /// run()'s epoll_wait timeout: the earlier of the idle sweep and the
  /// accept-backoff resume deadline (-1 = block forever).
  int loop_timeout_ms();
  /// Submits the SIGHUP-initiated reload_all to the worker pool.
  void start_async_reload() PULPHD_EXCLUDES(completions_mutex_);
  void connection_readable(Connection& conn);
  void connection_writable(Connection& conn);  ///< EPOLLOUT: resume a parked flush
  /// Shared post-I/O tail (dispatch, flush, close-when-finished, re-arm
  /// epoll). May destroy `conn`; callers must not touch it afterwards.
  void finish_io(Connection& conn);
  void enqueue_events(Connection& conn, std::vector<WireEvent> events);
  void dispatch_next(Connection& conn) PULPHD_EXCLUDES(completions_mutex_);
  bool flush_output(Connection& conn);  ///< false when the peer is gone
  void update_interest(Connection& conn);
  void close_connection(Connection& conn);
  void drain_completions() PULPHD_EXCLUDES(completions_mutex_);
  int idle_sweep_timeout_ms();
  void shutdown_loop() PULPHD_EXCLUDES(completions_mutex_);

  ModelRegistry& registry_;
  ServeConfig config_;
  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int tcp_port_ = -1;
  bool unix_bound_ = false;  ///< we created unix_path, so we may unlink it
  int stop_pipe_[2] = {-1, -1};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> reload_pending_{false};  ///< set by request_reload()

  // Loop-thread-only state: confined to the run() thread (bind_and_listen
  // and the constructor run strictly before it), never locked. The worker
  // pool only ever sees a connection's integer id, so nothing here is
  // shared — the thread-safety analysis guards the genuinely shared state
  // below instead.
  int epoll_fd_ = -1;
  int completion_fd_ = -1;  ///< eventfd the workers signal completions on
  bool accept_paused_ = false;  ///< listeners unregistered for backoff
  std::chrono::steady_clock::time_point accept_resume_{};
  std::uint64_t next_conn_id_ = 16;
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  std::unique_ptr<ThreadPool> workers_;

  // Worker → loop handoff: results queue up under the mutex, the eventfd
  // wakes the loop, and `in_flight_` lets shutdown wait for every worker
  // to finish before the pool is destroyed.
  Mutex completions_mutex_;
  CondVar completions_cv_;  ///< signalled whenever a worker finishes
  std::vector<Completion> completions_ PULPHD_GUARDED_BY(completions_mutex_);
  std::size_t in_flight_ PULPHD_GUARDED_BY(completions_mutex_) = 0;
};

}  // namespace pulphd::serve
