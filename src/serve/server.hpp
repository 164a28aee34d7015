// ClassifyServer — the long-lived serving loop behind `pulphd_cli serve`.
//
// Listens on a Unix-domain socket (the deployment default: local IPC, file
// permissions as access control) and/or a loopback TCP port, speaks both
// serve wire protocols (text phd1 and binary phd2, negotiated per
// connection from its first bytes; serve/protocol.hpp, docs/protocol.md),
// and answers classify requests from a read-only ModelRegistry. Model load
// is paid once at startup; every classify runs HdClassifier::encode_query
// on its shard's encoder and AssociativeMemory::classify per trial,
// bit-identical to the offline HdClassifier::predict_batch, and writes each
// response row straight into the connection's output buffer. A request
// runs on its shard thread alone: the shards are the daemon's parallelism.
//
// Concurrency model: run-to-completion shards. run() is the acceptor: it
// owns the listeners and hands each accepted connection to the next of W
// shard threads in turn. A shard owns an epoll set and its connections
// outright — sockets are non-blocking, and the shard reads, parses,
// executes, encodes and flushes every request of its connections on its
// own thread, start to finish. One thread per connection answers pipelined
// requests strictly in order by construction; different connections run
// concurrently on different shards. The trade: a long request (a bulk
// text classify, a wire `reload`'s disk I/O) delays the other connections
// on its shard until it finishes. The registry is internally synchronized
// and hands out immutable shared_ptr snapshots (RCU-style), so shards
// resolve and classify against it concurrently — including while a
// `reload` request or SIGHUP (request_reload()) swaps fresh models in
// underneath them.
//
// Streaming: a connection may hold one streaming session (`stream-open` /
// `stream-push` / `stream-close`; serve/protocol.hpp). The session pins its
// model snapshot at open (a concurrent reload never changes an open
// session), and its encoder state is a plain member of the connection,
// touched only by the connection's shard. Disconnect and the idle timeout
// tear the session down with its connection; shedding a queued stream
// request past the request deadline invalidates the whole session (the
// dropped samples would silently skew every later window), so the client
// must re-open.
//
// Degradation: transient accept(2) failures (EMFILE/ENFILE/ENOBUFS/ENOMEM)
// pause the listeners briefly instead of killing the acceptor; requests
// queued past ServeConfig::request_timeout are shed with a `timeout`
// error; and the failpoints "serve.accept" / "serve.classify"
// (common/failpoint.hpp) let the chaos suite force every one of those
// paths.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <vector>

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
  /// and drop the connection (framing is lost). At most kMaxFrameBytes.
  std::size_t max_line_bytes = kMaxLineBytes;
  /// Framing bound per phd2 binary frame payload; a larger declared
  /// length answers a fatal `too-large` and drops the connection. At most
  /// kMaxFrameBytes.
  std::size_t max_frame_bytes = kMaxFrameBytes;
  /// Accepted-connection cap (0 = unlimited). A connection over the cap
  /// is answered with one `overloaded` error line and EOF (always in text
  /// form: the connection never got to negotiate).
  std::size_t max_connections = 0;
  /// Idle timeout (0 = none): a connection with no in-flight or pending
  /// work and no wire activity for this long is closed without a
  /// response, like any TCP daemon sheds dead peers.
  std::chrono::milliseconds idle_timeout{0};
  /// Request deadline (0 = none): a classify/reload still queued behind
  /// earlier pipelined work this long after it arrived is shed with an
  /// `err code=timeout` response instead of being run. Bytes that arrive
  /// while an earlier request of the connection executes count from that
  /// execution's start. A request already executing is never interrupted.
  std::chrono::milliseconds request_timeout{0};
  /// Shard threads (0 = one per hardware thread). Each runs its
  /// connections' requests start to finish.
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

  /// Acceptor: starts the shard threads, then accepts and hands out
  /// connections until stop() is called. It then closes the listeners,
  /// wakes every shard and joins it — a request already executing finishes
  /// first, its connection's later work is discarded — and every active
  /// connection is shut down. Rethrows an exception that ended a shard; if
  /// run() itself throws, the shards stop when the server is destroyed.
  /// Requires bind_and_listen() first.
  void run();

  /// Requests shutdown. Async-signal-safe (writes one byte to a pipe), so
  /// a SIGINT/SIGTERM handler may call it directly.
  void stop() noexcept;

  /// Requests a reload of every registered model from disk, as if a
  /// `reload` wire request arrived. Async-signal-safe (flag + pipe byte),
  /// so a SIGHUP handler may call it directly. The reload runs on the
  /// acceptor thread, never on a shard; per-model outcomes are logged to
  /// stderr, and a failed model keeps its previous snapshot serving.
  void request_reload() noexcept;

 private:
  struct Connection;
  /// One run-to-completion thread with its epoll set, connections and
  /// classify scratch (defined in server.cpp).
  class Shard;

  // Acceptor internals (all run on the run() thread only).
  void accept_ready(int listen_fd);
  /// Unregisters the listeners for a short backoff window after an
  /// fd/memory-exhaustion accept failure (EMFILE and friends), so a
  /// level-triggered epoll does not spin on an accept that cannot succeed.
  void pause_accepting(int err);
  /// Re-registers the listeners once the backoff window has passed.
  void maybe_resume_accepting();
  /// The SIGHUP-initiated reload_all, run inline and logged to stderr.
  void reload_from_signal();

  ModelRegistry& registry_;
  ServeConfig config_;
  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int tcp_port_ = -1;
  bool unix_bound_ = false;  ///< we created unix_path, so we may unlink it
  int stop_pipe_[2] = {-1, -1};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> reload_pending_{false};  ///< set by request_reload()
  /// Open connections across all shards: the acceptor counts one up at
  /// accept, the owning shard counts it down at close (--max-conns).
  /// refused_conns_ counts the refused ones still lingering the same way.
  std::atomic<std::size_t> open_conns_{0};
  std::atomic<std::size_t> refused_conns_{0};

  // Acceptor-only state: confined to the run() thread (bind_and_listen and
  // the constructor run strictly before it), never locked. Each shard owns
  // its connections; the only state it shares with the acceptor is its
  // mutex-guarded inbox of accepted connections.
  int epoll_fd_ = -1;
  bool accept_paused_ = false;  ///< listeners unregistered for backoff
  std::chrono::steady_clock::time_point accept_resume_{};
  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t next_shard_ = 0;  ///< round-robin placement of the next connection
  std::uint64_t next_conn_id_ = 1;  ///< 0 is each shard's wake eventfd
  std::exception_ptr shard_failure_;  ///< what ended a shard's loop; run() rethrows it
};

}  // namespace pulphd::serve
