// Chaos suite — drives the reliability features end-to-end through
// failpoints (common/failpoint.hpp): crash-safe checkpoints that never
// expose a partial model, a server that degrades (accept backoff, request
// shedding, soft-fail reloads) instead of dying, and injected classify
// failures that surface as clean wire errors. Runs under ASan/UBSan and
// TSan in CI; the same points power the PULPHD_FAILPOINTS sweeps in
// .github/workflows/ci.yml and tools/serve_smoke.sh.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.hpp"
#include "common/io.hpp"
#include "hd/serialization.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"

namespace pulphd::serve {
namespace {

hd::HdClassifier trained_classifier(std::uint64_t seed) {
  hd::ClassifierConfig cfg;
  cfg.dim = 512;
  cfg.channels = 4;
  cfg.levels = 8;
  cfg.max_value = 7.0;
  cfg.classes = 3;
  cfg.seed = seed;
  hd::HdClassifier clf(cfg);
  for (std::size_t c = 0; c < cfg.classes; ++c) {
    hd::Trial trial;
    for (int i = 0; i < 8; ++i) {
      trial.push_back({static_cast<float>((c + i) % 8), static_cast<float>(7 - c),
                       static_cast<float>((3 * c + i) % 8), static_cast<float>(i % 8)});
    }
    clf.train(trial, c);
  }
  return clf;
}

std::vector<hd::Trial> query_trials() {
  std::vector<hd::Trial> trials;
  trials.push_back({{0.1f, 6.9f, 3.3333333f, 1.0f}, {2.0f, 5.0f, 0.125f, 6.875f}});
  trials.push_back({{1.0f, 1.0f, 1.0f, 1.0f}});
  return trials;
}

/// Deterministic 4-channel sample stream with integer-valued floats, so the
/// text wire's decimal round trip is exact.
std::vector<hd::Sample> chaos_stream(std::size_t samples) {
  std::vector<hd::Sample> stream;
  stream.reserve(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    stream.push_back({static_cast<float>(i % 8), static_cast<float>((3 * i + 1) % 8),
                      static_cast<float>((5 * i + 2) % 8),
                      static_cast<float>((7 * i + 3) % 8)});
  }
  return stream;
}

/// One text stream-push request carrying stream[start, start + count).
std::string push_request(const std::vector<hd::Sample>& stream, std::size_t start,
                         std::size_t count) {
  std::string out = "phd1 stream-push samples=" + std::to_string(count) + "\n";
  for (std::size_t i = start; i < start + count; ++i) {
    for (std::size_t c = 0; c < stream[i].size(); ++c) {
      if (c != 0) out += ' ';
      out += std::to_string(static_cast<int>(stream[i][c]));
    }
    out += '\n';
  }
  return out;
}

bool exists(const std::string& path) { return ::access(path.c_str(), F_OK) == 0; }

/// Minimal blocking client (same shape as server_test's).
class Client {
 public:
  explicit Client(int fd) : fd_(fd) {}
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send(const std::string& data) {
    ASSERT_EQ(::send(fd_, data.data(), data.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(data.size()));
  }

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

  /// True when the peer has closed (blocks until EOF or data).
  bool at_eof() {
    char c = 0;
    return ::read(fd_, &c, 1) == 0;
  }

 private:
  int fd_ = -1;
};

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0)
      << std::strerror(errno);
  return fd;
}

/// A real listener server on a per-test Unix socket, torn down in order.
class ChaosServer : public ::testing::Test {
 protected:
  void start(ServeConfig config = {}) {
    config.unix_path = socket_path_;
    ::unlink(socket_path_.c_str());
    server_ = std::make_unique<ClassifyServer>(registry_, std::move(config));
    server_->bind_and_listen();
    thread_ = std::thread([this] { server_->run(); });
  }

  void TearDown() override {
    failpoint::clear();
    if (server_) {
      server_->stop();
      thread_.join();
    }
    std::remove(model_path_.c_str());
    std::remove(io::temp_sibling(model_path_).c_str());
  }

  // Pid-qualified: ctest runs each case as its own parallel process, so a
  // shared fixed name would let concurrent cases clobber each other.
  ModelRegistry registry_;
  std::string socket_path_ =
      ::testing::TempDir() + "/pulphd_chaos." + std::to_string(::getpid()) + ".sock";
  std::string model_path_ =
      ::testing::TempDir() + "/chaos_model." + std::to_string(::getpid()) + ".phd";
  std::unique_ptr<ClassifyServer> server_;
  std::thread thread_;
};

// --- crash-safe checkpoints -------------------------------------------------

class ChaosCheckpoint : public ::testing::Test {
 protected:
  void TearDown() override {
    failpoint::clear();
    std::remove(path_.c_str());
    std::remove(io::temp_sibling(path_).c_str());
  }

  std::string path_ =
      ::testing::TempDir() + "/chaos_checkpoint." + std::to_string(::getpid()) + ".phd";
};

TEST_F(ChaosCheckpoint, FailedSaveNeverExposesAPartialModel) {
  const hd::HdClassifier original = trained_classifier(11);
  hd::save_model_file(original, path_, "m");
  const std::vector<hd::AmDecision> baseline = original.predict_batch(query_trials());

  const hd::HdClassifier replacement = trained_classifier(99);
  for (const char* spec :
       {"io.write=err(ENOSPC):once", "io.write=short(64):once", "io.fsync=err(EIO):once",
        "io.rename=err(EIO):once", "io.open=err(EACCES):once"}) {
    failpoint::configure(spec);
    EXPECT_THROW(hd::save_model_file(replacement, path_, "m"), std::runtime_error) << spec;
    failpoint::clear();
    // The file still loads and still IS the original model, bit-identically.
    const hd::HdClassifier reloaded =
        hd::classifier_from_model(hd::load_model_file(path_));
    const std::vector<hd::AmDecision> decisions = reloaded.predict_batch(query_trials());
    ASSERT_EQ(decisions.size(), baseline.size()) << spec;
    for (std::size_t i = 0; i < decisions.size(); ++i) {
      EXPECT_EQ(decisions[i].label, baseline[i].label) << spec;
      EXPECT_EQ(decisions[i].distances, baseline[i].distances) << spec;
    }
    EXPECT_FALSE(exists(io::temp_sibling(path_))) << spec;
  }
}

TEST_F(ChaosCheckpoint, SaveErrorsCarryTheCheckpointContext) {
  failpoint::configure("io.write=err(ENOSPC):once");
  try {
    hd::save_model_file(trained_classifier(1), path_, "m");
    FAIL() << "save should have thrown";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("save_model_file"), std::string::npos) << message;
    EXPECT_NE(message.find("errno"), std::string::npos) << message;
  }
}

TEST_F(ChaosCheckpoint, OrphanTempNeverLoadsAndIsCleanedByTheNextSave) {
  hd::save_model_file(trained_classifier(11), path_, "m");
  // A kill -9 between write and rename leaves a temp sibling behind; the
  // loader only ever opens `path`, so the orphan is inert garbage.
  std::ofstream(io::temp_sibling(path_), std::ios::binary) << "half a checkpoint";
  EXPECT_NO_THROW((void)hd::load_model_file(path_));
  hd::save_model_file(trained_classifier(22), path_, "m");
  EXPECT_FALSE(exists(io::temp_sibling(path_)));
  EXPECT_EQ(hd::load_model_file(path_).config.seed, 22u);
}

// --- serving under injected faults -----------------------------------------

TEST_F(ChaosServer, AcceptEmfileBacksOffThenKeepsServing) {
  registry_.add("m", trained_classifier(11));
  start();
  // The first accept attempt sees EMFILE — as if the process ran out of
  // fds. The listener must pause, not die, and the queued connection must
  // be served once accepting resumes.
  failpoint::configure("serve.accept=err(EMFILE):once");
  const auto t0 = std::chrono::steady_clock::now();
  Client client(connect_unix(socket_path_));
  client.send("phd1 ping\n");
  EXPECT_EQ(client.read_line(), "ok pong");
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(elapsed, std::chrono::milliseconds(50));  // the backoff window ran
  EXPECT_EQ(failpoint::trip_count("serve.accept"), 1u);
  // And the listener is fully back: a second connection is instant.
  Client second(connect_unix(socket_path_));
  second.send("phd1 ping\n");
  EXPECT_EQ(second.read_line(), "ok pong");
}

TEST_F(ChaosServer, RequestTimeoutShedsQueuedWorkButNeverRunningWork) {
  registry_.add("m", trained_classifier(11));
  ServeConfig config;
  config.workers = 1;
  config.request_timeout = std::chrono::milliseconds(50);
  start(config);
  // First classify stalls 300 ms on the shard; the second queues behind
  // it past the 50 ms deadline and must be shed — while the stalled one
  // still completes normally (running work is never interrupted).
  failpoint::configure("serve.classify=stall(300):once");
  Client client(connect_unix(socket_path_));
  const std::string request = format_classify_request("m", query_trials());
  client.send(request);
  client.send(request);
  EXPECT_EQ(client.read_line(), "ok classify model=m results=2");
  client.read_line();  // result row 0
  client.read_line();  // result row 1
  const std::string shed = client.read_line();
  EXPECT_EQ(shed.rfind("err code=timeout", 0), 0u) << shed;
  // The connection survives shedding: a ping still answers.
  client.send("phd1 ping\n");
  EXPECT_EQ(client.read_line(), "ok pong");
}

TEST_F(ChaosServer, InjectedClassifyFailureIsACleanInternalError) {
  registry_.add("m", trained_classifier(11));
  start();
  failpoint::configure("serve.classify=err(EIO):once");
  Client client(connect_unix(socket_path_));
  client.send(format_classify_request("m", query_trials()));
  const std::string line = client.read_line();
  EXPECT_EQ(line.rfind("err code=internal", 0), 0u) << line;
  // One injected failure poisons one request, not the connection.
  client.send("phd1 ping\n");
  EXPECT_EQ(client.read_line(), "ok pong");
}

TEST_F(ChaosServer, WireReloadSwapsTheModelWithoutDroppingTheConnection) {
  hd::save_model_file(trained_classifier(11), model_path_, "m");
  registry_.load_file("", model_path_);
  start();
  const std::vector<hd::Trial> trials = query_trials();
  Client client(connect_unix(socket_path_));

  // Retrain on disk, reload over the wire, and the same connection now
  // classifies with the new model — bit-identical to its offline path.
  hd::save_model_file(trained_classifier(99), model_path_, "m");
  client.send("phd1 reload\n");
  EXPECT_EQ(client.read_line(), "ok reload count=1");
  EXPECT_EQ(client.read_line(), "reload model=m ok=1");

  const std::vector<hd::AmDecision> offline =
      registry_.resolve("m")->classifier.predict_batch(trials);
  EXPECT_EQ(registry_.resolve("m")->classifier.config().seed, 99u);
  client.send(format_classify_request("m", trials));
  EXPECT_EQ(client.read_line(), "ok classify model=m results=2");
  for (const hd::AmDecision& expected : offline) {
    const std::string row = client.read_line();
    EXPECT_EQ(row.rfind("result label=" + std::to_string(expected.label), 0), 0u) << row;
  }
}

TEST_F(ChaosServer, FailedReloadReportsAndKeepsThePreviousModelServing) {
  hd::save_model_file(trained_classifier(11), model_path_, "m");
  registry_.load_file("", model_path_);
  start();
  const std::vector<hd::Trial> trials = query_trials();
  const std::vector<hd::AmDecision> before =
      registry_.resolve("m")->classifier.predict_batch(trials);
  Client client(connect_unix(socket_path_));

  // Corrupt the checkpoint, then ask for a reload by name: the failure is
  // a per-model status row, never a serving gap or a dropped connection.
  std::ofstream(model_path_, std::ios::binary) << "not a model";
  client.send("phd1 reload model=m\n");
  EXPECT_EQ(client.read_line(), "ok reload count=1");
  const std::string row = client.read_line();
  EXPECT_EQ(row.rfind("reload model=m ok=0", 0), 0u) << row;

  client.send(format_classify_request("m", trials));
  EXPECT_EQ(client.read_line(), "ok classify model=m results=2");
  for (const hd::AmDecision& expected : before) {
    const std::string result = client.read_line();
    EXPECT_EQ(result.rfind("result label=" + std::to_string(expected.label), 0), 0u) << result;
  }
  // The old snapshot really is still the one serving.
  const std::vector<hd::AmDecision> after =
      registry_.resolve("m")->classifier.predict_batch(trials);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].label, before[i].label);
    EXPECT_EQ(after[i].distances, before[i].distances);
  }
}

TEST_F(ChaosServer, BinaryWireReloadRoundTrips) {
  hd::save_model_file(trained_classifier(11), model_path_, "m");
  registry_.load_file("", model_path_);
  start();
  const int fd = connect_unix(socket_path_);
  const std::string wire =
      std::string(kBinaryMagic) + format_binary_reload_request("");
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  // Read whatever arrives until the parser has one full frame.
  BinaryResponseParser parser;
  std::optional<BinaryResponse> response;
  char chunk[512];
  while (!response.has_value()) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    ASSERT_GT(n, 0) << "connection closed before the reload result frame";
    parser.feed({chunk, static_cast<std::size_t>(n)});
    response = parser.next();
  }
  ::close(fd);
  ASSERT_EQ(response->reloads.size(), 1u);
  EXPECT_EQ(response->reloads[0].name, "m");
  EXPECT_TRUE(response->reloads[0].ok) << response->reloads[0].message;
}

TEST_F(ChaosServer, SighupStyleReloadRunsConcurrentlyWithClassifies) {
  hd::save_model_file(trained_classifier(11), model_path_, "m");
  registry_.load_file("", model_path_);
  start();
  // Classify traffic on several connections while request_reload() (the
  // SIGHUP entry point) swaps models underneath — the TSan job proves the
  // snapshot handoff is race-free, and every response is still well-formed.
  std::vector<std::thread> clients;
  clients.reserve(3);
  std::atomic<bool> failed{false};
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([this, &failed] {
      Client client(connect_unix(socket_path_));
      const std::string request = format_classify_request("m", query_trials());
      for (int i = 0; i < 20; ++i) {
        client.send(request);
        if (client.read_line() != "ok classify model=m results=2") {
          failed.store(true);
          return;
        }
        client.read_line();
        client.read_line();
      }
    });
  }
  for (int r = 0; r < 5; ++r) {
    hd::save_model_file(trained_classifier(static_cast<std::uint64_t>(100 + r)), model_path_,
                        "m");
    server_->request_reload();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (std::thread& t : clients) t.join();
  EXPECT_FALSE(failed.load());
}

// --- streaming sessions under chaos -----------------------------------------

TEST_F(ChaosServer, ReloadMidStreamKeepsThePinnedModelUntilReopen) {
  hd::save_model_file(trained_classifier(11), model_path_, "m");
  registry_.load_file("", model_path_);
  start();
  const std::vector<hd::Sample> stream = chaos_stream(12);
  // window == hop == 4: pushes of 4 samples emit exactly one window each.
  std::vector<hd::Trial> slices;
  for (std::size_t w = 0; w < 3; ++w) {
    slices.emplace_back(stream.begin() + static_cast<std::ptrdiff_t>(4 * w),
                        stream.begin() + static_cast<std::ptrdiff_t>(4 * w + 4));
  }
  const ModelSnapshot pinned = registry_.resolve("m");
  const std::vector<hd::AmDecision> old_offline = pinned->classifier.predict_batch(slices);

  Client client(connect_unix(socket_path_));
  client.send("phd1 stream-open model=m window=4 hop=4\n");
  EXPECT_EQ(client.read_line(), "ok stream-open model=m window=4 hop=4");
  client.send(push_request(stream, 0, 4));
  EXPECT_EQ(client.read_line(), "ok stream-push windows=1");
  EXPECT_EQ(parse_window_line(client.read_line()).second.distances,
            old_offline[0].distances);

  // Retrain on disk and reload over the very same connection, mid-session.
  hd::save_model_file(trained_classifier(99), model_path_, "m");
  client.send("phd1 reload model=m\n");
  EXPECT_EQ(client.read_line(), "ok reload count=1");
  EXPECT_EQ(client.read_line(), "reload model=m ok=1");
  EXPECT_EQ(registry_.resolve("m")->classifier.config().seed, 99u);

  // The open session still answers with the pinned seed-11 snapshot.
  for (std::size_t w = 1; w < 3; ++w) {
    client.send(push_request(stream, 4 * w, 4));
    EXPECT_EQ(client.read_line(), "ok stream-push windows=1");
    const auto [index, decision] = parse_window_line(client.read_line());
    EXPECT_EQ(index, w);
    EXPECT_EQ(decision.distances, old_offline[w].distances);
  }
  client.send("phd1 stream-close\n");
  EXPECT_EQ(client.read_line(), "ok stream-close windows=3");

  // The next session on the same connection sees the reloaded model.
  const std::vector<hd::AmDecision> new_offline =
      registry_.resolve("m")->classifier.predict_batch(slices);
  ASSERT_NE(new_offline[0].distances, old_offline[0].distances)
      << "retrained model must actually differ for this test to mean anything";
  client.send("phd1 stream-open model=m window=4 hop=4\n");
  EXPECT_EQ(client.read_line(), "ok stream-open model=m window=4 hop=4");
  client.send(push_request(stream, 0, 4));
  EXPECT_EQ(client.read_line(), "ok stream-push windows=1");
  EXPECT_EQ(parse_window_line(client.read_line()).second.distances,
            new_offline[0].distances);
}

TEST_F(ChaosServer, RequestTimeoutShedsAStalledStreamAndInvalidatesTheSession) {
  registry_.add("m", trained_classifier(11));
  ServeConfig config;
  config.workers = 1;
  config.request_timeout = std::chrono::milliseconds(50);
  start(config);
  const std::vector<hd::Sample> stream = chaos_stream(12);
  Client client(connect_unix(socket_path_));
  client.send("phd1 stream-open window=4 hop=4\n");
  EXPECT_EQ(client.read_line(), "ok stream-open model=m window=4 hop=4");

  // Push #1 stalls 300 ms on the shard but completes; push #2 queues behind
  // it past the 50 ms deadline and is shed — which must invalidate the
  // session, because its samples were dropped and the window arithmetic can
  // no longer be trusted.
  failpoint::configure("serve.classify=stall(300):once");
  client.send(push_request(stream, 0, 4));
  client.send(push_request(stream, 4, 4));
  EXPECT_EQ(client.read_line(), "ok stream-push windows=1");
  (void)parse_window_line(client.read_line());
  const std::string shed = client.read_line();
  EXPECT_EQ(shed.rfind("err code=timeout", 0), 0u) << shed;

  // The dead session answers bad-stream — no half-advanced state survives.
  client.send(push_request(stream, 8, 4));
  const std::string stale = client.read_line();
  EXPECT_EQ(stale.rfind("err code=bad-stream", 0), 0u) << stale;

  // The connection itself is fine: a fresh session works end-to-end.
  client.send("phd1 stream-open window=4 hop=4\n");
  EXPECT_EQ(client.read_line(), "ok stream-open model=m window=4 hop=4");
  client.send(push_request(stream, 0, 4));
  EXPECT_EQ(client.read_line(), "ok stream-push windows=1");
  (void)parse_window_line(client.read_line());
  client.send("phd1 stream-close\n");
  EXPECT_EQ(client.read_line(), "ok stream-close windows=1");
}

TEST_F(ChaosServer, IdleTimeoutReapsAConnectionMidStreamWithoutLeaking) {
  registry_.add("m", trained_classifier(11));
  ServeConfig config;
  config.idle_timeout = std::chrono::milliseconds(100);
  start(config);
  Client client(connect_unix(socket_path_));
  client.send("phd1 stream-open window=4 hop=4\n");
  EXPECT_EQ(client.read_line(), "ok stream-open model=m window=4 hop=4");
  client.send(push_request(chaos_stream(4), 0, 4));
  EXPECT_EQ(client.read_line(), "ok stream-push windows=1");
  (void)parse_window_line(client.read_line());
  // Go silent mid-session: the idle sweep must reap the connection and free
  // the session with it — the ASan/TSan CI jobs watch this teardown.
  EXPECT_TRUE(client.at_eof());
}

}  // namespace
}  // namespace pulphd::serve
