#include "client.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "daemon.hpp"

namespace perfbench {
namespace {

constexpr int kStallTimeoutMs = 10000;

}  // namespace

LoadClient::LoadClient(const std::string& socket_path, const std::vector<Script>& scripts,
                       std::size_t depth)
    : depth_(depth), buffer_(1 << 18) {
  conns_.resize(scripts.size());
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    Conn& conn = conns_[i];
    conn.script = &scripts[i];
    conn.sent_at.resize(scripts[i].requests.size());
    conn.fd = connect_unix(socket_path);
    if (conn.fd < 0) {
      throw std::runtime_error("cannot connect to " + socket_path + ": " + std::strerror(errno));
    }
    send_all(conn.fd, scripts[i].preamble);
    ::fcntl(conn.fd, F_SETFL, ::fcntl(conn.fd, F_GETFL) | O_NONBLOCK);
  }
}

LoadClient::~LoadClient() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
}

void LoadClient::fail(Conn& conn) {
  std::fprintf(stderr, "perfbench: connection failed at request %zu of %zu\n", conn.done,
               conn.script->requests.size());
  ::close(conn.fd);
  conn.fd = -1;
  conn.dead = true;
}

void LoadClient::flush(Conn& conn) {
  while (conn.written < conn.queued) {
    const std::string& bytes = conn.script->requests[conn.written].bytes;
    const ssize_t n = ::send(conn.fd, bytes.data() + conn.write_off, bytes.size() - conn.write_off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) fail(conn);
      return;
    }
    conn.write_off += static_cast<std::size_t>(n);
    if (conn.write_off == bytes.size()) {
      ++conn.written;
      conn.write_off = 0;
    }
  }
}

void LoadClient::receive(Conn& conn, Clock::time_point now, PassTotals& totals) {
  const ssize_t n = ::read(conn.fd, buffer_.data(), buffer_.size());
  if (n < 0) {
    if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) fail(conn);
    return;
  }
  if (n == 0) {
    fail(conn);
    return;
  }
  const auto got = static_cast<std::size_t>(n);
  std::size_t pos = 0;
  while (pos < got) {
    if (conn.done == conn.queued) {  // bytes nobody asked for
      fail(conn);
      return;
    }
    const WireRequest& request = conn.script->requests[conn.done];
    const std::size_t take = std::min(got - pos, request.expected.size() - conn.match_off);
    if (std::memcmp(buffer_.data() + pos, request.expected.data() + conn.match_off, take) != 0) {
      fail(conn);
      return;
    }
    pos += take;
    conn.match_off += take;
    if (conn.match_off == request.expected.size()) {
      if (request.decisions > 0) {
        ++totals.ok;
        totals.correct += request.correct;
        totals.latency_ms.push_back(
            std::chrono::duration<double, std::milli>(now - conn.sent_at[conn.done]).count());
      }
      ++conn.done;
      conn.match_off = 0;
    }
  }
}

void LoadClient::set_ticker(Clock::duration period,
                            std::function<void(Clock::time_point)> tick) {
  tick_period_ = period;
  tick_ = std::move(tick);
  next_tick_ = Clock::now() + period;
}

void LoadClient::run_pass(PassTotals& totals) {
  for (Conn& conn : conns_) {
    conn.queued = conn.written = conn.write_off = conn.done = conn.match_off = 0;
    for (const WireRequest& request : conn.script->requests) {
      if (request.decisions == 0) continue;
      ++totals.attempted;
      totals.decisions += request.decisions;
    }
  }
  std::vector<pollfd> fds;
  std::vector<Conn*> polled;
  for (;;) {
    const Clock::time_point now = Clock::now();
    fds.clear();
    polled.clear();
    for (Conn& conn : conns_) {
      if (conn.dead || conn.done == conn.script->requests.size()) continue;
      while (conn.queued < conn.script->requests.size() && conn.queued - conn.done < depth_) {
        conn.sent_at[conn.queued++] = now;
      }
      flush(conn);
      if (conn.dead) continue;
      const short events = POLLIN | (conn.written < conn.queued ? POLLOUT : 0);
      fds.push_back({conn.fd, events, 0});
      polled.push_back(&conn);
    }
    if (fds.empty()) return;
    const int ready = ::poll(fds.data(), fds.size(), kStallTimeoutMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("poll failed: ") + std::strerror(errno));
    }
    if (ready == 0) {
      for (Conn* conn : polled) fail(*conn);
      continue;
    }
    const Clock::time_point arrived = Clock::now();
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        receive(*polled[i], arrived, totals);
      }
    }
    if (tick_ && arrived >= next_tick_) {
      tick_(arrived);
      next_tick_ = arrived + tick_period_;
    }
  }
}

}  // namespace perfbench
