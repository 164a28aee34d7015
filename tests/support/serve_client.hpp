// The blocking test client of the serve suites: one end of a Unix-socket
// connection to a running ClassifyServer, read and written in whole lines
// and frames, with every read bounded so a lost response fails the test
// instead of hanging it.
#pragma once

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>

#include "serve/protocol.hpp"

namespace pulphd::serve {

/// A scripted blocking client on one end of a connection.
class Client {
 public:
  /// Every read times out after 10 s, so a lost response fails the test
  /// instead of hanging the binary (the longest stall a test scripts is
  /// 300 ms).
  explicit Client(int fd) : fd_(fd) {
    const timeval limit{10, 0};
    if (fd_ >= 0) {
      EXPECT_EQ(::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof(limit)), 0);
    }
  }
  Client(Client&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client& operator=(Client&&) = delete;
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send(const std::string& data) {
    ASSERT_EQ(::send(fd_, data.data(), data.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(data.size()));
  }

  /// Reads one '\n'-terminated line (blocking). Fails the test on EOF.
  std::string read_line() {
    std::string line;
    char c = 0;
    while (true) {
      const ssize_t n = ::read(fd_, &c, 1);
      if (n <= 0) {
        ADD_FAILURE() << "connection closed while expecting a line";
        return line;
      }
      if (c == '\n') return line;
      line += c;
    }
  }

  /// Reads exactly `bytes` bytes (blocking). Fails the test on EOF.
  std::string read_exact(std::size_t bytes) {
    std::string out(bytes, '\0');
    std::size_t got = 0;
    while (got < bytes) {
      const ssize_t n = ::read(fd_, out.data() + got, bytes - got);
      if (n <= 0) {
        ADD_FAILURE() << "connection closed while expecting " << bytes << " bytes";
        out.resize(got);
        return out;
      }
      got += static_cast<std::size_t>(n);
    }
    return out;
  }

  /// Reads one complete phd2 frame, length prefix included, undecoded.
  std::string read_raw_frame() {
    std::string frame = read_exact(4);
    std::uint32_t length = 0;
    for (int i = 3; i >= 0; --i) {
      length = (length << 8) | static_cast<std::uint8_t>(frame[static_cast<std::size_t>(i)]);
    }
    return frame + read_exact(length);
  }

  /// Reads one complete phd2 frame (length prefix + payload) and decodes it.
  BinaryResponse read_frame() {
    BinaryResponseParser parser;
    parser.feed(read_raw_frame());
    const auto response = parser.next();
    EXPECT_TRUE(response.has_value());
    return response.value_or(BinaryResponse{});
  }

  /// True when the peer has closed (blocks until EOF or data).
  bool at_eof() {
    char c = 0;
    return ::read(fd_, &c, 1) == 0;
  }

  void close_now() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

/// A blocking connection to the Unix socket at `path`.
inline int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0)
      << std::strerror(errno);
  return fd;
}

}  // namespace pulphd::serve
