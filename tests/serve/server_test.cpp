// Client/server integration tests for the serve layer: a scripted client
// drives a real ClassifyServer (acceptor plus shards) over Unix-domain and
// loopback-TCP listeners, asserting that served predictions are bit-identical to the
// offline HdClassifier::predict_batch path and that protocol errors keep or
// drop the connection as specified in docs/protocol.md.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <malloc.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.hpp"
#include "serve/protocol.hpp"
#include "tests/support/serve_client.hpp"

// Every operator new in this test binary is counted while a test has
// counting on, except on the thread that turned it on: what is counted is
// what the server's own threads allocate while the test's client waits.
// Every block's usable size is also added to the live heap count, whose
// peak is kept, and every delete takes it off again.
namespace {
std::atomic<bool> g_count_server_allocations{false};
std::atomic<std::size_t> g_server_allocations{0};
thread_local bool t_counting_thread = false;
std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_live_bytes{0};
}  // namespace

// Out of line, like the deletes below, so the compiler cannot pair an
// inlined malloc()/free() with the other side and report a mismatch that is
// not one.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_count_server_allocations && !t_counting_thread) ++g_server_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    const std::int64_t live = g_live_bytes += static_cast<std::int64_t>(malloc_usable_size(p));
    std::int64_t peak = g_peak_live_bytes.load();
    while (live > peak && !g_peak_live_bytes.compare_exchange_weak(peak, live)) {
    }
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p != nullptr) g_live_bytes -= static_cast<std::int64_t>(malloc_usable_size(p));
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace pulphd::serve {
namespace {

hd::HdClassifier trained_classifier(std::uint64_t seed, std::size_t ngram = 1) {
  hd::ClassifierConfig cfg;
  cfg.dim = 512;
  cfg.channels = 4;
  cfg.levels = 8;
  cfg.max_value = 7.0;
  cfg.classes = 3;
  cfg.ngram = ngram;
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
  // Deliberately awkward floats: they must survive the text round-trip
  // bit-exactly for served predictions to match the offline path.
  trials.push_back({{0.1f, 6.9f, 3.3333333f, 1.0f}, {2.0f, 5.0f, 0.125f, 6.875f}});
  trials.push_back({{1.0f, 1.0f, 1.0f, 1.0f}});
  trials.push_back({{6.0f, 0.5f, 2.25f, 3.0f}, {0.0f, 7.0f, 1.5f, 2.0f}, {4.0f, 4.0f, 4.0f, 4.0f}});
  return trials;
}

/// One ClassifyServer (run() as the acceptor, plus its shard threads) on a
/// temporary Unix socket, with one connected client: the request path the
/// daemon serves. The destructor closes the client, then stops and joins
/// the server, so every member outlives the server's threads.
class Harness {
 public:
  explicit Harness(ModelRegistry& registry, ServeConfig config = {})
      : path_(unique_socket_path()), server_(registry, with_socket(std::move(config), path_)) {
    server_.bind_and_listen();
    thread_ = std::thread([this] { server_.run(); });
    client_ = std::make_unique<Client>(connect_unix(path_));
  }

  ~Harness() {
    client_->close_now();
    server_.stop();
    thread_.join();
  }

  Client& client() { return *client_; }

  /// A further connection to the same server.
  Client connect() { return Client(connect_unix(path_)); }

 private:
  static std::string unique_socket_path() {
    static int next = 0;
    return ::testing::TempDir() + "/pulphd_harness_" + std::to_string(::getpid()) + "_" +
           std::to_string(next++) + ".sock";
  }

  static ServeConfig with_socket(ServeConfig config, const std::string& path) {
    ::unlink(path.c_str());
    config.unix_path = path;
    return config;
  }

  std::string path_;
  ClassifyServer server_;
  std::thread thread_;
  std::unique_ptr<Client> client_;
};

/// Fixture: two named models for routing tests.
class ServeConnectionTest : public ::testing::Test {
 protected:
  ServeConnectionTest() {
    registry_.add("subj0", trained_classifier(11));
    registry_.add("subj1", trained_classifier(22));
  }

  ModelRegistry registry_;
};

TEST_F(ServeConnectionTest, ServedPredictionsAreBitIdenticalToOfflineBatch) {
  Harness harness(registry_);
  Client& client = harness.client();
  const std::vector<hd::Trial> trials = query_trials();
  for (const std::string model : {"subj0", "subj1"}) {
    const std::vector<hd::AmDecision> offline =
        registry_.resolve(model)->classifier.predict_batch(trials);
    client.send(format_classify_request(model, trials));
    EXPECT_EQ(client.read_line(),
              "ok classify model=" + model + " results=" + std::to_string(trials.size()));
    for (const hd::AmDecision& expected : offline) {
      const hd::AmDecision served = parse_result_line(client.read_line());
      EXPECT_EQ(served.label, expected.label);
      EXPECT_EQ(served.distance, expected.distance);
      EXPECT_EQ(served.distances, expected.distances);
    }
  }
  client.send("phd1 quit\n");
  EXPECT_EQ(client.read_line(), "ok bye");
  EXPECT_TRUE(client.at_eof());
}

TEST_F(ServeConnectionTest, DefaultRoutingAnswersWithTheResolvedName) {
  Harness harness(registry_);
  Client& client = harness.client();
  const std::vector<hd::Trial> trials = query_trials();
  const std::vector<hd::AmDecision> offline =
      registry_.resolve("subj0")->classifier.predict_batch(trials);
  client.send(format_classify_request("", trials));  // no model= field
  EXPECT_EQ(client.read_line(), "ok classify model=subj0 results=3");
  for (const hd::AmDecision& expected : offline) {
    EXPECT_EQ(parse_result_line(client.read_line()).distances, expected.distances);
  }
}

TEST_F(ServeConnectionTest, PingModelsAndErrorsKeepTheConnectionUsable) {
  Harness harness(registry_);
  Client& client = harness.client();
  client.send("phd1 ping\n");
  EXPECT_EQ(client.read_line(), "ok pong");
  client.send("phd1 models\n");
  EXPECT_EQ(client.read_line(), "ok models count=2");
  EXPECT_EQ(client.read_line(), "model name=subj0 dim=512 channels=4 classes=3 ngram=1 default=1");
  EXPECT_EQ(client.read_line(), "model name=subj1 dim=512 channels=4 classes=3 ngram=1 default=0");
  // Unknown model: request-level error, connection stays up.
  client.send("phd1 classify model=subj9 trials=1\ntrial samples=1\n1 2 3 4\n");
  EXPECT_TRUE(client.read_line().starts_with("err code=unknown-model"));
  // Malformed header: line-level error, connection stays up.
  client.send("phd1 frobnicate\n");
  EXPECT_TRUE(client.read_line().starts_with("err code=bad-request"));
  // Wrong channel count: bad-trial, connection stays up.
  client.send("phd1 classify trials=1\ntrial samples=1\n1 2\n");
  EXPECT_TRUE(client.read_line().starts_with("err code=bad-trial"));
  client.send("phd1 ping\n");
  EXPECT_EQ(client.read_line(), "ok pong");
  client.send("phd1 quit\n");
  EXPECT_EQ(client.read_line(), "ok bye");
}

TEST_F(ServeConnectionTest, TrialShorterThanNgramIsBadTrial) {
  ModelRegistry ngram_registry;
  ngram_registry.add("ngram3", trained_classifier(33, /*ngram=*/3));
  Harness harness(ngram_registry);
  Client& client = harness.client();
  client.send("phd1 classify trials=1\ntrial samples=2\n1 2 3 4\n5 6 7 8\n");
  const std::string line = client.read_line();
  EXPECT_TRUE(line.starts_with("err code=bad-trial")) << line;
  EXPECT_NE(line.find("ngram3"), std::string::npos) << line;
}

TEST_F(ServeConnectionTest, ClassifyHeaderErrorDropsTheConnection) {
  Harness harness(registry_);
  Client& client = harness.client();
  // A rejected classify header closes too: the pipelined body lines below
  // it must not be misread as fresh requests (which would answer one
  // bogus error per line).
  client.send("phd1 classify trials=0\ntrial samples=1\n1 2 3 4\n");
  EXPECT_TRUE(client.read_line().starts_with("err code=bad-request"));
  EXPECT_TRUE(client.at_eof());
}

TEST_F(ServeConnectionTest, MidBodyErrorDropsTheConnection) {
  Harness harness(registry_);
  Client& client = harness.client();
  // The malformed sample arrives mid-classify: framing is lost, so the
  // server must answer once and close instead of misreading the remaining
  // body lines as fresh requests.
  client.send("phd1 classify trials=1\ntrial samples=2\n1 2 3 4\nnot a float\n");
  EXPECT_TRUE(client.read_line().starts_with("err code=bad-request"));
  EXPECT_TRUE(client.at_eof());
}

TEST_F(ServeConnectionTest, OverlongLineAnswersTooLargeAndCloses) {
  ServeConfig config;
  config.max_line_bytes = 64;
  Harness harness(registry_, config);
  Client& client = harness.client();
  client.send(std::string(1000, 'x') + "\n");
  EXPECT_TRUE(client.read_line().starts_with("err code=too-large"));
  EXPECT_TRUE(client.at_eof());
}

// --- phd2 binary connections through the same acceptor and shards -------

TEST_F(ServeConnectionTest, BinaryClassifyIsBitIdenticalToOfflineBatch) {
  Harness harness(registry_);
  Client& client = harness.client();
  client.send(std::string(kBinaryMagic));
  const std::vector<hd::Trial> trials = query_trials();
  for (const std::string model : {"subj0", "subj1"}) {
    const std::vector<hd::AmDecision> offline =
        registry_.resolve(model)->classifier.predict_batch(trials);
    client.send(format_binary_classify_request(model, trials));
    const BinaryResponse response = client.read_frame();
    ASSERT_EQ(response.type, kFrameResults);
    EXPECT_EQ(response.model, model);
    ASSERT_EQ(response.decisions.size(), offline.size());
    for (std::size_t i = 0; i < offline.size(); ++i) {
      EXPECT_EQ(response.decisions[i].label, offline[i].label);
      EXPECT_EQ(response.decisions[i].distance, offline[i].distance);
      EXPECT_EQ(response.decisions[i].distances, offline[i].distances);
    }
  }
  client.send(format_binary_command(kFrameQuit));
  EXPECT_EQ(client.read_frame().type, kFrameBye);
  EXPECT_TRUE(client.at_eof());
}

TEST_F(ServeConnectionTest, BinaryPayloadErrorsKeepTheConnectionUsable) {
  Harness harness(registry_);
  Client& client = harness.client();
  client.send(std::string(kBinaryMagic));
  // Unknown frame type: the frame is fully delimited, so the error is
  // answered and the connection stays up.
  client.send(std::string("\x01\x00\x00\x00\x7f", 5));
  BinaryResponse error = client.read_frame();
  ASSERT_EQ(error.type, kFrameError);
  EXPECT_EQ(error.error_code, kErrBadRequest);
  EXPECT_FALSE(error.fatal);
  // Unknown model: request-level error, same deal.
  client.send(format_binary_classify_request("subj9", query_trials()));
  error = client.read_frame();
  ASSERT_EQ(error.type, kFrameError);
  EXPECT_EQ(error.error_code, kErrUnknownModel);
  EXPECT_FALSE(error.fatal);
  client.send(format_binary_command(kFramePing));
  EXPECT_EQ(client.read_frame().type, kFramePong);
}

TEST_F(ServeConnectionTest, OversizedBinaryFrameIsFatalAndCloses) {
  ServeConfig config;
  config.max_frame_bytes = 256;
  Harness harness(registry_, config);
  Client& client = harness.client();
  client.send(std::string(kBinaryMagic));
  client.send(std::string("\x01\x04\x00\x00", 4));  // declares 1025 bytes > 256
  const BinaryResponse error = client.read_frame();
  ASSERT_EQ(error.type, kFrameError);
  EXPECT_EQ(error.error_code, kErrTooLarge);
  EXPECT_TRUE(error.fatal);
  EXPECT_TRUE(client.at_eof());
}

TEST_F(ServeConnectionTest, PeerVanishingMidFrameClosesWithoutAResponse) {
  Harness harness(registry_);
  Client& client = harness.client();
  client.send(std::string(kBinaryMagic));
  const std::string wire = format_binary_classify_request("subj0", query_trials());
  client.send(wire.substr(0, wire.size() / 2));
  // Close mid-frame: nothing can be answered, the server must just drop
  // the connection and keep serving everyone else.
  client.close_now();
  Client next = harness.connect();
  next.send("phd1 ping\n");
  EXPECT_EQ(next.read_line(), "ok pong");
}

// --- streaming sessions through the same acceptor and shards --------------

/// A deterministic 4-channel sample stream for streaming tests.
std::vector<hd::Sample> sample_stream(std::size_t samples) {
  std::vector<hd::Sample> stream;
  for (std::size_t i = 0; i < samples; ++i) {
    stream.push_back({static_cast<float>(i % 8), static_cast<float>((3 * i + 1) % 8),
                      static_cast<float>((5 * i + 2) % 8) * 0.875f,
                      static_cast<float>((7 * i + 3) % 8)});
  }
  return stream;
}

/// The buffered reference: window w covers samples [w*hop, w*hop + window).
std::vector<hd::Trial> stream_window_slices(const std::vector<hd::Sample>& stream,
                                            std::size_t window, std::size_t hop) {
  std::vector<hd::Trial> slices;
  for (std::size_t start = 0; start + window <= stream.size(); start += hop) {
    slices.emplace_back(stream.begin() + static_cast<std::ptrdiff_t>(start),
                        stream.begin() + static_cast<std::ptrdiff_t>(start + window));
  }
  return slices;
}

TEST_F(ServeConnectionTest, StreamedWindowsAreBitIdenticalToOfflineBatch) {
  ModelRegistry ngram_registry;
  ngram_registry.add("ngram3", trained_classifier(33, /*ngram=*/3));
  Harness harness(ngram_registry);
  Client& client = harness.client();
  const std::vector<hd::Sample> stream = sample_stream(17);
  const std::vector<hd::Trial> slices = stream_window_slices(stream, /*window=*/6, /*hop=*/2);
  const std::vector<hd::AmDecision> offline =
      ngram_registry.resolve("ngram3")->classifier.predict_batch(slices);
  client.send("phd1 stream-open model=ngram3 window=6 hop=2\n");
  EXPECT_EQ(client.read_line(), "ok stream-open model=ngram3 window=6 hop=2");
  // Push in ragged chunks: window decisions must not depend on push
  // boundaries.
  std::size_t sent = 0;
  std::uint64_t windows = 0;
  for (const std::size_t take : {5u, 4u, 7u, 1u}) {
    std::string push = "phd1 stream-push samples=" + std::to_string(take) + "\n";
    for (std::size_t i = 0; i < take; ++i) {
      const hd::Sample& s = stream[sent + i];
      push += std::to_string(s[0]) + " " + std::to_string(s[1]) + " " + std::to_string(s[2]) +
              " " + std::to_string(s[3]) + "\n";
    }
    client.send(push);
    const std::string header = client.read_line();
    ASSERT_TRUE(header.starts_with("ok stream-push windows=")) << header;
    const auto count = std::stoul(header.substr(header.rfind('=') + 1));
    for (std::size_t i = 0; i < count; ++i) {
      const auto [index, decision] = parse_window_line(client.read_line());
      ASSERT_LT(index, offline.size());
      EXPECT_EQ(index, windows + i);
      EXPECT_EQ(decision.label, offline[index].label);
      EXPECT_EQ(decision.distance, offline[index].distance);
      EXPECT_EQ(decision.distances, offline[index].distances);
    }
    windows += count;
    sent += take;
  }
  EXPECT_EQ(windows, offline.size());
  client.send("phd1 stream-close\n");
  EXPECT_EQ(client.read_line(), "ok stream-close windows=" + std::to_string(windows));
  client.send("phd1 quit\n");
  EXPECT_EQ(client.read_line(), "ok bye");
}

TEST_F(ServeConnectionTest, BinaryStreamIsBitIdenticalToOfflineBatch) {
  // std::to_string in the text test rounds the floats; the binary wire
  // carries raw float32 bits, so this is the strict bit-exactness check.
  Harness harness(registry_);
  Client& client = harness.client();
  const std::vector<hd::Sample> stream = sample_stream(13);
  const std::vector<hd::Trial> slices = stream_window_slices(stream, /*window=*/4, /*hop=*/3);
  const std::vector<hd::AmDecision> offline =
      registry_.resolve("subj1")->classifier.predict_batch(slices);
  client.send(std::string(kBinaryMagic));
  client.send(format_binary_stream_open_request("subj1", /*window=*/4, /*hop=*/3));
  const BinaryResponse opened = client.read_frame();
  ASSERT_EQ(opened.type, kFrameStreamOpened);
  EXPECT_EQ(opened.model, "subj1");
  EXPECT_EQ(opened.window, 4u);
  EXPECT_EQ(opened.hop, 3u);
  std::vector<hd::AmDecision> streamed;
  std::size_t sent = 0;
  for (const std::size_t take : {2u, 6u, 5u}) {
    client.send(format_binary_stream_push_request(
        std::span<const hd::Sample>(stream).subspan(sent, take)));
    const BinaryResponse response = client.read_frame();
    ASSERT_EQ(response.type, kFrameStreamWindows);
    EXPECT_EQ(response.first_window, streamed.size());
    streamed.insert(streamed.end(), response.decisions.begin(), response.decisions.end());
    sent += take;
  }
  ASSERT_EQ(streamed.size(), offline.size());
  for (std::size_t w = 0; w < offline.size(); ++w) {
    EXPECT_EQ(streamed[w].label, offline[w].label) << "window " << w;
    EXPECT_EQ(streamed[w].distance, offline[w].distance) << "window " << w;
    EXPECT_EQ(streamed[w].distances, offline[w].distances) << "window " << w;
  }
  client.send(format_binary_command(kFrameStreamClose));
  const BinaryResponse closed = client.read_frame();
  ASSERT_EQ(closed.type, kFrameStreamClosed);
  EXPECT_EQ(closed.windows_total, offline.size());
}

/// Opens a binary stream session, pushes `stream` in pushes of `take`
/// samples, closes it, and returns every window's decision.
std::vector<hd::AmDecision> stream_binary(Client& client, const std::string& model,
                                          std::uint32_t window, std::uint32_t hop,
                                          const std::vector<hd::Sample>& stream,
                                          std::size_t take) {
  client.send(format_binary_stream_open_request(model, window, hop));
  EXPECT_EQ(client.read_frame().type, kFrameStreamOpened);
  std::vector<hd::AmDecision> streamed;
  for (std::size_t sent = 0; sent < stream.size(); sent += take) {
    client.send(format_binary_stream_push_request(std::span<const hd::Sample>(stream).subspan(
        sent, std::min(take, stream.size() - sent))));
    const BinaryResponse response = client.read_frame();
    EXPECT_EQ(response.type, kFrameStreamWindows);
    streamed.insert(streamed.end(), response.decisions.begin(), response.decisions.end());
  }
  client.send(format_binary_command(kFrameStreamClose));
  EXPECT_EQ(client.read_frame().windows_total, streamed.size());
  return streamed;
}

// A connection re-opens on the encoder of its last session, re-pointed at
// the new model: across a change of model, N-gram depth and shape, and back,
// every window still matches the offline batch path.
TEST_F(ServeConnectionTest, ReopenedSessionsAcrossModelsAreBitIdenticalToOfflineBatch) {
  registry_.add("ngram3", trained_classifier(33, /*ngram=*/3));
  Harness harness(registry_);
  Client& client = harness.client();
  client.send(std::string(kBinaryMagic));
  const std::vector<hd::Sample> stream = sample_stream(23);
  struct Session {
    std::string model;
    std::uint32_t window;
    std::uint32_t hop;
  };
  for (const Session& session : {Session{"subj0", 4, 3}, Session{"ngram3", 6, 2},
                                 Session{"subj1", 5, 5}, Session{"subj0", 4, 3}}) {
    SCOPED_TRACE(session.model);
    const ModelSnapshot entry = registry_.resolve(session.model);
    const std::vector<hd::AmDecision> offline =
        entry->classifier.predict_batch(stream_window_slices(stream, session.window, session.hop));
    const std::vector<hd::AmDecision> streamed =
        stream_binary(client, session.model, session.window, session.hop, stream, 5);
    ASSERT_EQ(streamed.size(), offline.size());
    for (std::size_t w = 0; w < offline.size(); ++w) {
      EXPECT_EQ(streamed[w].label, offline[w].label) << "window " << w;
      EXPECT_EQ(streamed[w].distances, offline[w].distances) << "window " << w;
    }
  }
}

/// A dense 32-channel sample run at 8 levels, varied by `seed`.
hd::Trial wide_trial(std::size_t seed, std::size_t samples) {
  hd::Trial trial(samples, hd::Sample(32));
  for (std::size_t i = 0; i < samples; ++i) {
    for (std::size_t c = 0; c < 32; ++c) {
      trial[i][c] = static_cast<float>((5 * seed + 3 * i + 7 * c) % 8) * 0.875f;
    }
  }
  return trial;
}

/// perfbench's bulk model shape: 32 channels, N = 3, D = 256.
hd::HdClassifier trained_wide_classifier() {
  hd::ClassifierConfig cfg;
  cfg.dim = 256;
  cfg.channels = 32;
  cfg.levels = 8;
  cfg.max_value = 7.0;
  cfg.classes = 3;
  cfg.ngram = 3;
  cfg.seed = 44;
  hd::HdClassifier clf(cfg);
  for (std::size_t c = 0; c < cfg.classes; ++c) clf.train(wide_trial(c, 8), c);
  return clf;
}

// One connection's classifies alternate between a 4-channel D = 512 model
// and a 32-channel, N = 3, D = 256 one and back, so the shard's encoder is
// re-pointed across dimension, N-gram depth and channel count, and its
// spatial scratch grows. Every answer is the offline batch's bytes.
TEST_F(ServeConnectionTest, ClassifiesAlternatingModelShapesMatchOfflineBytes) {
  registry_.add("wide", trained_wide_classifier());
  Harness harness(registry_);
  Client& client = harness.client();
  client.send(std::string(kBinaryMagic));
  const std::vector<hd::Trial> narrow = query_trials();
  const std::vector<hd::Trial> wide = {wide_trial(1, 5), wide_trial(2, 3), wide_trial(3, 20)};
  const ResponseEncoder encoder(Wire::kBinary);
  for (int round = 0; round < 3; ++round) {
    for (const auto& [model, trials] : {std::pair{"subj0", &narrow}, std::pair{"wide", &wide}}) {
      SCOPED_TRACE(std::string(model) + " round " + std::to_string(round));
      const std::string offline =
          encoder.classify(model, registry_.resolve(model)->classifier.predict_batch(*trials));
      client.send(format_binary_classify_request(model, *trials));
      EXPECT_EQ(client.read_raw_frame(), offline);
    }
  }
}

/// Runs `client_side` (requests sent and their answers read) and returns
/// what the server's threads allocated meanwhile. A ping answered last
/// makes sure the shard is done with everything sent before it.
template <typename ClientSide>
std::size_t server_allocations_during(Client& client, Wire wire, ClientSide&& client_side) {
  t_counting_thread = true;
  g_server_allocations = 0;
  g_count_server_allocations = true;
  client_side();
  if (wire == Wire::kBinary) {
    client.send(format_binary_command(kFramePing));
    EXPECT_EQ(client.read_frame().type, kFramePong);
  } else {
    client.send("phd1 ping\n");
    EXPECT_EQ(client.read_line(), "ok pong");
  }
  g_count_server_allocations = false;
  t_counting_thread = false;
  return g_server_allocations.load();
}

/// perfbench's bulk shape at these models' 4 channels: 32 trials x 20
/// samples.
std::vector<hd::Trial> bulk_trials() {
  const std::vector<hd::Sample> stream = sample_stream(20);
  return std::vector<hd::Trial>(32, hd::Trial(stream.begin(), stream.end()));
}

// Once a connection has served a request of a shape, the next one is read,
// decoded, executed, answered and flushed without a heap allocation on the
// server: the decoder refills the storage the last request handed back.
TEST_F(ServeConnectionTest, WarmBinaryRequestsAllocateNothingOnTheServer) {
  Harness harness(registry_);
  Client& client = harness.client();
  client.send(std::string(kBinaryMagic));
  const std::string classify = format_binary_classify_request("subj0", bulk_trials());
  const std::vector<hd::Sample> hop = sample_stream(5);
  const std::string push = format_binary_stream_push_request(hop);
  const auto classify_once = [&] {
    client.send(classify);
    EXPECT_EQ(client.read_frame().decisions.size(), 32u);
  };
  const auto push_once = [&] {
    client.send(push);
    EXPECT_EQ(client.read_frame().type, kFrameStreamWindows);
  };
  const auto reopen = [&] {
    client.send(format_binary_command(kFrameStreamClose));
    EXPECT_EQ(client.read_frame().type, kFrameStreamClosed);
    client.send(format_binary_stream_open_request("subj0", 20, 5));
    EXPECT_EQ(client.read_frame().type, kFrameStreamOpened);
  };
  classify_once();
  classify_once();
  EXPECT_EQ(server_allocations_during(client, Wire::kBinary, classify_once), 0u);
  client.send(format_binary_stream_open_request("subj0", 20, 5));
  EXPECT_EQ(client.read_frame().type, kFrameStreamOpened);
  for (int i = 0; i < 6; ++i) push_once();
  EXPECT_EQ(server_allocations_during(client, Wire::kBinary, push_once), 0u);
  reopen();
  // A warm close and re-open of the same model and shape keeps the
  // session's encoder and its buffers.
  EXPECT_EQ(server_allocations_during(client, Wire::kBinary, reopen), 0u);
  EXPECT_EQ(server_allocations_during(client, Wire::kBinary, push_once), 0u);
}

TEST_F(ServeConnectionTest, WarmTextRequestsAllocateNothingOnTheServer) {
  Harness harness(registry_);
  Client& client = harness.client();
  const std::string classify = format_classify_request("subj0", bulk_trials());
  const auto classify_once = [&] {
    client.send(classify);
    EXPECT_EQ(client.read_line(), "ok classify model=subj0 results=32");
    for (int t = 0; t < 32; ++t) (void)parse_result_line(client.read_line());
  };
  std::string push = "phd1 stream-push samples=5\n";
  for (const hd::Sample& sample : sample_stream(5)) {
    push += std::to_string(sample[0]) + " " + std::to_string(sample[1]) + " " +
            std::to_string(sample[2]) + " " + std::to_string(sample[3]) + "\n";
  }
  const auto push_once = [&] {
    client.send(push);
    const std::string head = client.read_line();
    EXPECT_TRUE(head.starts_with("ok stream-push windows=")) << head;
    for (std::size_t w = std::stoul(head.substr(head.find('=') + 1)); w > 0; --w) {
      (void)parse_window_line(client.read_line());
    }
  };
  classify_once();
  classify_once();
  EXPECT_EQ(server_allocations_during(client, Wire::kText, classify_once), 0u);
  const auto open = [&] {
    client.send("phd1 stream-open model=subj0 window=20 hop=5\n");
    EXPECT_EQ(client.read_line(), "ok stream-open model=subj0 window=20 hop=5");
  };
  const auto reopen = [&] {
    client.send("phd1 stream-close\n");
    EXPECT_TRUE(client.read_line().starts_with("ok stream-close windows="));
    open();
  };
  open();
  for (int i = 0; i < 6; ++i) push_once();
  EXPECT_EQ(server_allocations_during(client, Wire::kText, push_once), 0u);
  reopen();
  EXPECT_EQ(server_allocations_during(client, Wire::kText, reopen), 0u);
}

// Requests decoded ahead of a frame that loses framing are still answered,
// in the negotiated binary encoding, before the fatal error and the close.
TEST_F(ServeConnectionTest, RequestsAheadOfAFatalFrameAreAnsweredInBinary) {
  ServeConfig config;
  config.max_frame_bytes = 256;
  Harness harness(registry_, config);
  Client& client = harness.client();
  client.send(std::string(kBinaryMagic) + format_binary_command(kFramePing) +
              std::string("\x01\x04\x00\x00", 4));  // declares 1025 bytes > 256
  EXPECT_EQ(client.read_frame().type, kFramePong);
  const BinaryResponse error = client.read_frame();
  ASSERT_EQ(error.type, kFrameError);
  EXPECT_EQ(error.error_code, kErrTooLarge);
  EXPECT_TRUE(error.fatal);
  EXPECT_TRUE(client.at_eof());
}

TEST_F(ServeConnectionTest, StreamLifecycleErrorsAnswerBadStream) {
  ModelRegistry ngram_registry;
  ngram_registry.add("ngram3", trained_classifier(33, /*ngram=*/3));
  Harness harness(ngram_registry);
  Client& client = harness.client();
  // Push and close with no session.
  client.send("phd1 stream-push samples=1\n1 2 3 4\n");
  EXPECT_TRUE(client.read_line().starts_with("err code=bad-stream"));
  client.send("phd1 stream-close\n");
  EXPECT_TRUE(client.read_line().starts_with("err code=bad-stream"));
  // Window shorter than the model's N-gram.
  client.send("phd1 stream-open window=2 hop=1\n");
  EXPECT_TRUE(client.read_line().starts_with("err code=bad-stream"));
  // Unknown model.
  client.send("phd1 stream-open model=subj9 window=6 hop=2\n");
  EXPECT_TRUE(client.read_line().starts_with("err code=unknown-model"));
  // A real session; a second open on the same connection is rejected.
  client.send("phd1 stream-open window=6 hop=2\n");
  EXPECT_EQ(client.read_line(), "ok stream-open model=ngram3 window=6 hop=2");
  client.send("phd1 stream-open window=6 hop=2\n");
  EXPECT_TRUE(client.read_line().starts_with("err code=bad-stream"));
  // Wrong channel count: bad-trial, and the stream position is untouched —
  // the session keeps serving.
  client.send("phd1 stream-push samples=1\n1 2\n");
  EXPECT_TRUE(client.read_line().starts_with("err code=bad-trial"));
  client.send("phd1 stream-push samples=6\n1 2 3 4\n1 2 3 4\n1 2 3 4\n1 2 3 4\n1 2 3 4\n1 2 3 4\n");
  EXPECT_EQ(client.read_line(), "ok stream-push windows=1");
  (void)parse_window_line(client.read_line());
  // close ends the session; the connection survives and may re-open.
  client.send("phd1 stream-close\n");
  EXPECT_EQ(client.read_line(), "ok stream-close windows=1");
  client.send("phd1 stream-push samples=1\n1 2 3 4\n");
  EXPECT_TRUE(client.read_line().starts_with("err code=bad-stream"));
  client.send("phd1 stream-open window=3 hop=3\n");
  EXPECT_EQ(client.read_line(), "ok stream-open model=ngram3 window=3 hop=3");
  client.send("phd1 quit\n");
  EXPECT_EQ(client.read_line(), "ok bye");
}

TEST(ServeListener, UnixSocketEndToEnd) {
  ModelRegistry registry;
  registry.add("subj0", trained_classifier(11));
  registry.add("subj1", trained_classifier(22));
  ServeConfig config;
  config.unix_path = ::testing::TempDir() + "/pulphd_serve_test.sock";
  ::unlink(config.unix_path.c_str());
  ClassifyServer server(registry, config);
  server.bind_and_listen();
  std::thread accept_thread([&server] { server.run(); });

  const std::vector<hd::Trial> trials = query_trials();
  const std::vector<hd::AmDecision> offline =
      registry.resolve("subj1")->classifier.predict_batch(trials);
  {
    Client client(connect_unix(config.unix_path));
    client.send(format_classify_request("subj1", trials));
    EXPECT_EQ(client.read_line(), "ok classify model=subj1 results=3");
    for (const hd::AmDecision& expected : offline) {
      const hd::AmDecision served = parse_result_line(client.read_line());
      EXPECT_EQ(served.label, expected.label);
      EXPECT_EQ(served.distances, expected.distances);
    }
  }
  // A second, concurrent pair of clients: connections are independent.
  {
    Client a(connect_unix(config.unix_path));
    Client b(connect_unix(config.unix_path));
    a.send("phd1 ping\n");
    b.send("phd1 ping\n");
    EXPECT_EQ(a.read_line(), "ok pong");
    EXPECT_EQ(b.read_line(), "ok pong");
  }
  server.stop();
  accept_thread.join();
}

TEST(ServeListener, LoopbackTcpEndToEnd) {
  ModelRegistry registry;
  registry.add("subj0", trained_classifier(11));
  ServeConfig config;
  config.tcp_enabled = true;
  config.tcp_port = 0;  // ephemeral
  ClassifyServer server(registry, config);
  server.bind_and_listen();
  ASSERT_GT(server.tcp_port(), 0);
  std::thread accept_thread([&server] { server.run(); });

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(server.tcp_port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0)
      << std::strerror(errno);
  Client client(fd);
  client.send("phd1 ping\n");
  EXPECT_EQ(client.read_line(), "ok pong");
  server.stop();
  accept_thread.join();
}

TEST(ServeListener, StopShutsDownIdleConnections) {
  ModelRegistry registry;
  registry.add("subj0", trained_classifier(11));
  ServeConfig config;
  config.unix_path = ::testing::TempDir() + "/pulphd_serve_stop.sock";
  ::unlink(config.unix_path.c_str());
  ClassifyServer server(registry, config);
  server.bind_and_listen();
  std::thread accept_thread([&server] { server.run(); });
  Client client(connect_unix(config.unix_path));
  client.send("phd1 ping\n");
  EXPECT_EQ(client.read_line(), "ok pong");
  // stop() must unblock the connection thread parked in read().
  server.stop();
  accept_thread.join();
  EXPECT_TRUE(client.at_eof());
}

/// Blocks until the armed "serve.classify" stall has fired, i.e. a request
/// is executing inside it.
void wait_for_stall() {
  for (int i = 0; failpoint::trip_count("serve.classify") == 0; ++i) {
    ASSERT_LT(i, 5000) << "the stalled request never started";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(ServeListener, ConnectionsOnDifferentShardsAreIndependent) {
  ModelRegistry registry;
  registry.add("subj0", trained_classifier(11));
  ServeConfig config;
  config.unix_path = ::testing::TempDir() + "/pulphd_serve_shards.sock";
  config.workers = 2;
  ::unlink(config.unix_path.c_str());
  ClassifyServer server(registry, config);
  server.bind_and_listen();
  std::thread accept_thread([&server] { server.run(); });

  const std::vector<hd::Trial> trials = query_trials();
  const std::vector<hd::AmDecision> offline =
      registry.resolve("subj0")->classifier.predict_batch(trials);
  auto expect_offline = [&offline](Client& client) {
    EXPECT_EQ(client.read_line(), "ok classify model=subj0 results=3");
    for (const hd::AmDecision& expected : offline) {
      const hd::AmDecision served = parse_result_line(client.read_line());
      EXPECT_EQ(served.label, expected.label);
      EXPECT_EQ(served.distances, expected.distances);
    }
  };
  // A's classify stalls 300 ms on its shard. B connects afterwards, so
  // turn-by-turn placement puts it on the other shard, which must answer
  // B at once instead of queueing it behind A.
  failpoint::configure("serve.classify=stall(300):once");
  Client a(connect_unix(config.unix_path));
  a.send(format_classify_request("subj0", trials));
  wait_for_stall();
  Client b(connect_unix(config.unix_path));
  const auto sent = std::chrono::steady_clock::now();
  b.send(format_classify_request("subj0", trials));
  expect_offline(b);
  EXPECT_LT(std::chrono::steady_clock::now() - sent, std::chrono::milliseconds(150));
  expect_offline(a);
  failpoint::clear();
  server.stop();
  accept_thread.join();
}

TEST(ServeListener, StopDuringAnExecutingRequestWaitsForItThenShutsDown) {
  ModelRegistry registry;
  registry.add("subj0", trained_classifier(11));
  ServeConfig config;
  config.unix_path = ::testing::TempDir() + "/pulphd_serve_stop_busy.sock";
  config.workers = 2;
  ::unlink(config.unix_path.c_str());
  ClassifyServer server(registry, config);
  server.bind_and_listen();
  std::atomic<bool> returned{false};
  std::thread accept_thread([&server, &returned] {
    server.run();
    returned.store(true);
  });

  // The idle connection lands on one shard, the stalled one on the other.
  Client idle(connect_unix(config.unix_path));
  idle.send("phd1 ping\n");
  EXPECT_EQ(idle.read_line(), "ok pong");
  failpoint::configure("serve.classify=stall(300):once");
  Client busy(connect_unix(config.unix_path));
  busy.send(format_classify_request("subj0", query_trials()));
  wait_for_stall();
  const auto stalled = std::chrono::steady_clock::now();
  server.stop();
  // run() waits for the executing request instead of abandoning its shard.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(returned.load());
  accept_thread.join();
  EXPECT_GE(std::chrono::steady_clock::now() - stalled, std::chrono::milliseconds(250));
  EXPECT_NE(::access(config.unix_path.c_str(), F_OK), 0) << "socket path left behind";
  EXPECT_TRUE(idle.at_eof());
  // The busy connection is closed too, once its answer (if any) is sent.
  char buf[4096];
  while (::read(busy.fd(), buf, sizeof(buf)) > 0) {
  }
  EXPECT_EQ(::read(busy.fd(), buf, sizeof(buf)), 0);
  failpoint::clear();
}

TEST(ServeListener, MixedTextAndBinaryConnectionsShareOneListener) {
  ModelRegistry registry;
  registry.add("subj0", trained_classifier(11));
  ServeConfig config;
  config.unix_path = ::testing::TempDir() + "/pulphd_serve_mixed.sock";
  config.workers = 2;
  ::unlink(config.unix_path.c_str());
  ClassifyServer server(registry, config);
  server.bind_and_listen();
  std::thread accept_thread([&server] { server.run(); });

  const std::vector<hd::Trial> trials = query_trials();
  const std::vector<hd::AmDecision> offline =
      registry.resolve("subj0")->classifier.predict_batch(trials);
  {
    // One text and one binary client, interleaved on the same listener.
    Client text(connect_unix(config.unix_path));
    Client binary(connect_unix(config.unix_path));
    binary.send(std::string(kBinaryMagic));
    text.send(format_classify_request("subj0", trials));
    binary.send(format_binary_classify_request("subj0", trials));
    EXPECT_EQ(text.read_line(), "ok classify model=subj0 results=3");
    const BinaryResponse response = binary.read_frame();
    ASSERT_EQ(response.type, kFrameResults);
    ASSERT_EQ(response.decisions.size(), offline.size());
    for (std::size_t i = 0; i < offline.size(); ++i) {
      EXPECT_EQ(parse_result_line(text.read_line()).distances, offline[i].distances);
      EXPECT_EQ(response.decisions[i].label, offline[i].label);
      EXPECT_EQ(response.decisions[i].distances, offline[i].distances);
    }
  }
  server.stop();
  accept_thread.join();
}

TEST(ServeListener, StreamingSessionSurvivesPipeliningOnTheEventLoop) {
  // The shard path: the whole session (open + every push + close) is sent
  // as one pipelined burst, so the per-connection session state must
  // survive the shard executing the requests one at a time, between reads
  // of the same buffered input, while a second connection streams
  // concurrently.
  ModelRegistry registry;
  registry.add("subj0", trained_classifier(11, /*ngram=*/3));
  ServeConfig config;
  config.unix_path = ::testing::TempDir() + "/pulphd_serve_stream.sock";
  config.workers = 2;
  ::unlink(config.unix_path.c_str());
  ClassifyServer server(registry, config);
  server.bind_and_listen();
  std::thread accept_thread([&server] { server.run(); });
  {
    const std::vector<hd::Sample> stream = sample_stream(23);
    const std::vector<hd::Trial> slices = stream_window_slices(stream, /*window=*/5, /*hop=*/4);
    const std::vector<hd::AmDecision> offline =
        registry.resolve("subj0")->classifier.predict_batch(slices);
    Client a(connect_unix(config.unix_path));
    Client b(connect_unix(config.unix_path));
    for (Client* client : {&a, &b}) {
      std::string burst(kBinaryMagic);
      burst += format_binary_stream_open_request("subj0", /*window=*/5, /*hop=*/4);
      for (std::size_t sent = 0; sent < stream.size(); sent += 4) {
        burst += format_binary_stream_push_request(
            std::span<const hd::Sample>(stream).subspan(sent, std::min<std::size_t>(
                                                                  4, stream.size() - sent)));
      }
      burst += format_binary_command(kFrameStreamClose);
      client->send(burst);
    }
    for (Client* client : {&a, &b}) {
      EXPECT_EQ(client->read_frame().type, kFrameStreamOpened);
      std::vector<hd::AmDecision> streamed;
      for (std::size_t sent = 0; sent < stream.size(); sent += 4) {
        const BinaryResponse response = client->read_frame();
        ASSERT_EQ(response.type, kFrameStreamWindows);
        EXPECT_EQ(response.first_window, streamed.size());
        streamed.insert(streamed.end(), response.decisions.begin(), response.decisions.end());
      }
      ASSERT_EQ(streamed.size(), offline.size());
      for (std::size_t w = 0; w < offline.size(); ++w) {
        EXPECT_EQ(streamed[w].label, offline[w].label);
        EXPECT_EQ(streamed[w].distances, offline[w].distances);
      }
      const BinaryResponse closed = client->read_frame();
      ASSERT_EQ(closed.type, kFrameStreamClosed);
      EXPECT_EQ(closed.windows_total, offline.size());
    }
  }
  server.stop();
  accept_thread.join();
}

TEST(ServeListener, PipelinedBinaryBurstIsAnsweredInOrder) {
  ModelRegistry registry;
  registry.add("subj0", trained_classifier(11));
  ServeConfig config;
  config.unix_path = ::testing::TempDir() + "/pulphd_serve_burst.sock";
  ::unlink(config.unix_path.c_str());
  ClassifyServer server(registry, config);
  server.bind_and_listen();
  std::thread accept_thread([&server] { server.run(); });

  const std::vector<hd::Trial> trials = query_trials();
  Client client(connect_unix(config.unix_path));
  // The whole burst goes out before any response is read: 8 classifies of
  // varying size, a ping, then quit. Responses must come back in request
  // order with the right per-request result counts.
  std::string burst(kBinaryMagic);
  std::vector<std::size_t> expected_counts;
  for (std::size_t k = 0; k < 8; ++k) {
    const std::size_t count = (k % trials.size()) + 1;
    const std::vector<hd::Trial> subset(trials.begin(),
                                        trials.begin() + static_cast<std::ptrdiff_t>(count));
    burst += format_binary_classify_request("subj0", subset);
    expected_counts.push_back(count);
  }
  burst += format_binary_command(kFramePing);
  burst += format_binary_command(kFrameQuit);
  client.send(burst);
  for (const std::size_t count : expected_counts) {
    const BinaryResponse response = client.read_frame();
    ASSERT_EQ(response.type, kFrameResults);
    const std::vector<hd::Trial> subset(trials.begin(),
                                        trials.begin() + static_cast<std::ptrdiff_t>(count));
    const std::vector<hd::AmDecision> offline =
        registry.resolve("subj0")->classifier.predict_batch(subset);
    ASSERT_EQ(response.decisions.size(), offline.size());
    for (std::size_t i = 0; i < offline.size(); ++i) {
      EXPECT_EQ(response.decisions[i].distances, offline[i].distances);
    }
  }
  EXPECT_EQ(client.read_frame().type, kFramePong);
  EXPECT_EQ(client.read_frame().type, kFrameBye);
  EXPECT_TRUE(client.at_eof());
  server.stop();
  accept_thread.join();
}

// One 64 KiB write of pipelined phd2 pings is over 13,000 requests; the
// shard decodes each as it runs it, and every one is answered in order. A
// `models` request after every 1,000 pings marks the order.
TEST(ServeListener, OneReadOfPipelinedPingsIsAnsweredInOrder) {
  ModelRegistry registry;
  registry.add("subj0", trained_classifier(11));
  Harness harness(registry);
  Client& client = harness.client();
  const std::string ping = format_binary_command(kFramePing);
  const std::string models = format_binary_command(kFrameModels);
  std::string burst(kBinaryMagic);
  std::vector<std::uint8_t> expected;
  while (burst.size() + ping.size() <= 64 * 1024) {
    const bool marker = expected.size() % 1000 == 999;
    burst += marker ? models : ping;
    expected.push_back(marker ? kFrameModelList : kFramePong);
  }
  ASSERT_GT(expected.size(), 13000u);
  client.send(burst);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(client.read_frame().type, expected[i]) << "response " << i;
  }
  client.send(format_binary_command(kFrameQuit));
  EXPECT_EQ(client.read_frame().type, kFrameBye);
  EXPECT_TRUE(client.at_eof());
}

// A pipelining client does not decide how many requests its connection
// holds decoded. While a stalled classify holds the only shard, a second
// connection pipelines 16 one-channel classify frames, all in its socket
// before the shard reads it. The shard decodes each frame only when it is
// about to run it, so the live heap's peak stays under the frames' bytes
// (twice over, for buffer growth) plus two decoded requests; decoding the
// whole burst ahead of running it would hold sixteen.
TEST(ServeListener, PipelinedFramesHoldOneDecodedRequest) {
  hd::ClassifierConfig cfg;
  cfg.dim = 512;
  cfg.channels = 1;
  cfg.levels = 8;
  cfg.max_value = 7.0;
  cfg.classes = 2;
  hd::HdClassifier clf(cfg);
  for (std::size_t c = 0; c < cfg.classes; ++c) {
    clf.train(hd::Trial(8, hd::Sample{static_cast<float>(5 * c)}), c);
  }
  ModelRegistry registry;
  registry.add("m", std::move(clf));
  ServeConfig config;
  config.workers = 1;
  Harness harness(registry, config);
  // 1,000 samples a frame: 4 bytes each on the wire, a row of its own once
  // decoded. The 16 frames fit one 64 KiB socket read.
  const std::vector<hd::Trial> trials = {hd::Trial(1000, hd::Sample{2.5f})};
  const std::string frame = format_binary_classify_request("m", trials);
  constexpr std::size_t kFrames = 16;
  std::string burst;
  for (std::size_t i = 0; i < kFrames; ++i) burst += frame;
  ASSERT_LT(burst.size(), std::size_t{64} << 10);
  std::int64_t decoded_bytes = 0;
  {
    ConnectionSession session;
    session.feed(std::string(kBinaryMagic) + frame);
    const std::int64_t before = g_live_bytes.load();
    const std::optional<WireEvent> event = session.next();
    decoded_bytes = g_live_bytes.load() - before;
    ASSERT_TRUE(event.has_value() && event->request.has_value());
  }
  // One frame answered first builds the shard's encoder and leaves the
  // second connection's pool holding one request's rows.
  Client& first = harness.client();
  Client second = harness.connect();
  second.send(std::string(kBinaryMagic) + frame);
  ASSERT_EQ(second.read_frame().type, kFrameResults);

  failpoint::configure("serve.classify=stall(300):once");
  first.send(format_classify_request("m", std::vector<hd::Trial>{hd::Trial(8, hd::Sample{2.5f})}));
  wait_for_stall();
  const std::int64_t before = g_live_bytes.load();
  g_peak_live_bytes = before;
  second.send(burst);
  EXPECT_EQ(first.read_line(), "ok classify model=m results=1");
  first.read_line();  // the result row
  EXPECT_EQ(second.read_frame().type, kFrameResults);
  const std::int64_t peak = g_peak_live_bytes.load() - before;
  EXPECT_LT(peak, 2 * static_cast<std::int64_t>(burst.size()) + 2 * decoded_bytes)
      << "one decoded request is " << decoded_bytes << " bytes";
  for (std::size_t i = 1; i < kFrames; ++i) {
    ASSERT_EQ(second.read_frame().type, kFrameResults) << "response " << i;
  }
  failpoint::clear();
}

TEST(ServeListener, SlowReaderBacklogIsFlushedByWritableEvents) {
  ModelRegistry registry;
  registry.add("subj0", trained_classifier(11));
  ServeConfig config;
  config.unix_path = ::testing::TempDir() + "/pulphd_serve_slow.sock";
  config.workers = 2;
  ::unlink(config.unix_path.c_str());
  ClassifyServer server(registry, config);
  server.bind_and_listen();
  std::thread accept_thread([&server] { server.run(); });

  // Each request is ~16 KiB but its response is ~35 KiB (512 result
  // lines), so 32 pipelined requests produce ~1 MiB of responses — far
  // over the socket send buffer. The client deliberately reads nothing
  // while the server answers, forcing send() into EAGAIN with the rest
  // parked in the connection's outbuf; delivering that backlog depends
  // entirely on EPOLLOUT resuming the flush.
  const std::vector<hd::Trial> trials(512, hd::Trial{{0.5f, 1.5f, 2.5f, 3.5f}});
  const std::vector<hd::AmDecision> offline =
      registry.resolve("subj0")->classifier.predict_batch(trials);
  constexpr std::size_t kRequests = 32;
  Client client(connect_unix(config.unix_path));
  std::string burst;
  for (std::size_t k = 0; k < kRequests; ++k) {
    burst += format_classify_request("subj0", trials);
  }
  client.send(burst);
  // Give the shard time to answer into the full socket: the stall this
  // guards against only exists once outbuf is non-empty with EPOLLOUT as
  // the only wake-up left.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  for (std::size_t k = 0; k < kRequests; ++k) {
    ASSERT_EQ(client.read_line(), "ok classify model=subj0 results=512");
    for (const hd::AmDecision& expected : offline) {
      const hd::AmDecision served = parse_result_line(client.read_line());
      ASSERT_EQ(served.label, expected.label);
      ASSERT_EQ(served.distances, expected.distances);
    }
  }
  client.send("phd1 quit\n");
  EXPECT_EQ(client.read_line(), "ok bye");
  EXPECT_TRUE(client.at_eof());
  server.stop();
  accept_thread.join();
}

TEST(ServeListener, OverLimitConnectionsAreAnsweredOverloadedAndClosed) {
  ModelRegistry registry;
  registry.add("subj0", trained_classifier(11));
  ServeConfig config;
  config.unix_path = ::testing::TempDir() + "/pulphd_serve_cap.sock";
  config.max_connections = 2;
  ::unlink(config.unix_path.c_str());
  ClassifyServer server(registry, config);
  server.bind_and_listen();
  std::thread accept_thread([&server] { server.run(); });

  Client first(connect_unix(config.unix_path));
  Client second(connect_unix(config.unix_path));
  // Round-trips prove both connections are registered before the third
  // arrives (connect() alone can succeed while the accept is still queued).
  first.send("phd1 ping\n");
  EXPECT_EQ(first.read_line(), "ok pong");
  second.send("phd1 ping\n");
  EXPECT_EQ(second.read_line(), "ok pong");

  Client third(connect_unix(config.unix_path));
  const std::string refusal = third.read_line();
  EXPECT_TRUE(refusal.starts_with("err code=overloaded")) << refusal;
  EXPECT_TRUE(third.at_eof());

  // The refused connection cost nothing: the admitted ones still work, and
  // closing one frees a slot for a newcomer.
  first.send("phd1 ping\n");
  EXPECT_EQ(first.read_line(), "ok pong");
  second.close_now();
  for (int attempt = 0;; ++attempt) {
    Client retry(connect_unix(config.unix_path));
    retry.send("phd1 ping\n");
    char c = 0;
    if (::read(retry.fd(), &c, 1) == 1 && c == 'o') break;  // admitted
    ASSERT_LT(attempt, 100) << "slot was never freed after a close";
  }
  server.stop();
  accept_thread.join();
}

TEST(ServeListener, RefusalsPastTheLingerCapAreClosedUnansweredAndFreeTheirCount) {
  // The server lets at most 64 refused connections linger at once (each is
  // drained until its peer hangs up); past that the acceptor closes a
  // newcomer without a word.
  constexpr std::size_t kLingerCap = 64;
  ModelRegistry registry;
  registry.add("subj0", trained_classifier(11));
  ServeConfig config;
  config.unix_path = ::testing::TempDir() + "/pulphd_serve_linger.sock";
  config.max_connections = 1;
  ::unlink(config.unix_path.c_str());
  ClassifyServer server(registry, config);
  server.bind_and_listen();
  std::thread accept_thread([&server] { server.run(); });

  Client admitted(connect_unix(config.unix_path));
  admitted.send("phd1 ping\n");
  EXPECT_EQ(admitted.read_line(), "ok pong");

  // Each refusal line is written after the acceptor counted that refusal,
  // so once all 64 are read the linger count is at its cap.
  std::vector<Client> refused;
  for (std::size_t i = 0; i < kLingerCap; ++i) {
    refused.emplace_back(connect_unix(config.unix_path));
    const std::string line = refused.back().read_line();
    ASSERT_TRUE(line.starts_with("err code=overloaded")) << i << ": " << line;
  }
  {
    Client slammed(connect_unix(config.unix_path));
    char buf[64];
    EXPECT_EQ(::read(slammed.fd(), buf, sizeof(buf)), 0) << "closed unanswered: zero bytes, EOF";
  }

  // Hanging up one lingering refusal frees its count: a newcomer is
  // answered again (after the shard has reaped the closed one). The ping
  // would draw a pong if the close had freed an admitted slot instead; it
  // is sent raw because a slammed newcomer may already be closed.
  refused.pop_back();
  for (int attempt = 0;; ++attempt) {
    Client newcomer(connect_unix(config.unix_path));
    (void)::send(newcomer.fd(), "phd1 ping\n", 10, MSG_NOSIGNAL);
    char c = 0;
    if (::read(newcomer.fd(), &c, 1) == 1) {
      EXPECT_EQ(std::string(1, c) + newcomer.read_line(),
                "err code=overloaded msg=server is at its connection limit (1); retry later");
      break;
    }
    ASSERT_LT(attempt, 1000) << "the closed refusal never freed its count";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  refused.clear();
  admitted.send("phd1 ping\n");
  EXPECT_EQ(admitted.read_line(), "ok pong");
  server.stop();
  accept_thread.join();
}

TEST(ServeListener, IdleConnectionsAreClosedAfterTheTimeout) {
  ModelRegistry registry;
  registry.add("subj0", trained_classifier(11));
  ServeConfig config;
  config.unix_path = ::testing::TempDir() + "/pulphd_serve_idle.sock";
  config.idle_timeout = std::chrono::milliseconds(50);
  ::unlink(config.unix_path.c_str());
  ClassifyServer server(registry, config);
  server.bind_and_listen();
  std::thread accept_thread([&server] { server.run(); });

  Client client(connect_unix(config.unix_path));
  client.send("phd1 ping\n");
  EXPECT_EQ(client.read_line(), "ok pong");
  // No further requests: the server must close the connection on its own
  // (at_eof blocks until it does; a missing sweep would hang this test).
  EXPECT_TRUE(client.at_eof());
  server.stop();
  accept_thread.join();
}

TEST(ServeListener, MidFrameDisconnectLeavesTheServerServing) {
  ModelRegistry registry;
  registry.add("subj0", trained_classifier(11));
  ServeConfig config;
  config.unix_path = ::testing::TempDir() + "/pulphd_serve_midframe.sock";
  ::unlink(config.unix_path.c_str());
  ClassifyServer server(registry, config);
  server.bind_and_listen();
  std::thread accept_thread([&server] { server.run(); });

  {
    Client dying(connect_unix(config.unix_path));
    const std::string wire =
        std::string(kBinaryMagic) + format_binary_classify_request("subj0", query_trials());
    dying.send(wire.substr(0, wire.size() - 7));
    dying.close_now();  // EOF lands mid-frame: nothing to answer, just drop
  }
  Client alive(connect_unix(config.unix_path));
  alive.send(std::string(kBinaryMagic) + format_binary_command(kFramePing));
  EXPECT_EQ(alive.read_frame().type, kFramePong);
  server.stop();
  accept_thread.join();
}

TEST(ServeListener, RefusesToStartWithoutAnyListener) {
  ModelRegistry registry;
  registry.add("subj0", trained_classifier(11));
  ClassifyServer server(registry, ServeConfig{});
  EXPECT_THROW(server.bind_and_listen(), std::runtime_error);
}

// A connection's input buffer holds one largest frame: a framing limit past
// it could leave a full buffer with no complete request, so it is refused.
TEST(ServeListener, RefusesFramingLimitsPastTheInputBound) {
  ModelRegistry registry;
  ServeConfig line;
  line.max_line_bytes = kMaxFrameBytes + 1;
  EXPECT_THROW(ClassifyServer(registry, line), std::invalid_argument);
  ServeConfig frame;
  frame.max_frame_bytes = kMaxFrameBytes + 1;
  EXPECT_THROW(ClassifyServer(registry, frame), std::invalid_argument);
}

}  // namespace
}  // namespace pulphd::serve
