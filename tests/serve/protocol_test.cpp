#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "common/status.hpp"

// Every operator new in this test binary records its size while a test has
// tracking on, so a test can assert that a decode sized nothing from a
// hostile wire count.
namespace {
std::atomic<bool> g_track_allocations{false};
std::atomic<std::size_t> g_largest_allocation{0};
}  // namespace

// Out of line, like the deletes below, so the compiler cannot pair an
// inlined malloc()/free() with the other side and report a mismatch that is
// not one.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_track_allocations) g_largest_allocation = std::max(g_largest_allocation.load(), size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace pulphd::serve {
namespace {

/// Feeds `text` (protocol lines, '\n'-separated) to a parser and returns
/// every completed request.
std::vector<Request> parse_all(RequestParser& parser, const std::string& text) {
  std::vector<Request> out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (auto request = parser.consume_line(line)) out.push_back(std::move(*request));
  }
  return out;
}

/// A parser between requests takes the next line as a new request; one
/// still inside a body would read it as a sample line and fail.
void expect_between_requests(RequestParser& parser) {
  const auto request = parser.consume_line("phd1 ping");
  ASSERT_TRUE(request.has_value());
  EXPECT_TRUE(std::holds_alternative<PingRequest>(*request));
}

std::string code_of(RequestParser& parser, const std::string& text) {
  try {
    parse_all(parser, text);
  } catch (const CodedError& e) {
    return e.code();
  }
  return "";
}

TEST(ServeProtocolParse, SimpleCommands) {
  RequestParser parser;
  const auto requests = parse_all(parser, "phd1 ping\nphd1 models\nphd1 quit\n");
  ASSERT_EQ(requests.size(), 3u);
  EXPECT_TRUE(std::holds_alternative<PingRequest>(requests[0]));
  EXPECT_TRUE(std::holds_alternative<ModelsRequest>(requests[1]));
  EXPECT_TRUE(std::holds_alternative<QuitRequest>(requests[2]));
}

TEST(ServeProtocolParse, ToleratesCarriageReturnsAndBlankLines) {
  RequestParser parser;
  const auto requests = parse_all(parser, "\nphd1 ping\r\n\r\nphd1 ping\n");
  EXPECT_EQ(requests.size(), 2u);
}

TEST(ServeProtocolParse, ClassifyWithModelAndTwoTrials) {
  RequestParser parser;
  const auto requests = parse_all(parser,
                                  "phd1 classify model=subj1 trials=2\n"
                                  "trial samples=2\n"
                                  "1 2.5 3\n"
                                  "4 5 6\n"
                                  "trial samples=1\n"
                                  "-7 0.125 9\n");
  ASSERT_EQ(requests.size(), 1u);
  const auto& classify = std::get<ClassifyRequest>(requests[0]);
  EXPECT_EQ(classify.model, "subj1");
  ASSERT_EQ(classify.trials.size(), 2u);
  ASSERT_EQ(classify.trials[0].size(), 2u);
  EXPECT_EQ(classify.trials[0][0], (hd::Sample{1.0f, 2.5f, 3.0f}));
  EXPECT_EQ(classify.trials[0][1], (hd::Sample{4.0f, 5.0f, 6.0f}));
  ASSERT_EQ(classify.trials[1].size(), 1u);
  EXPECT_EQ(classify.trials[1][0], (hd::Sample{-7.0f, 0.125f, 9.0f}));
}

TEST(ServeProtocolParse, ClassifyWithoutModelRoutesToDefault) {
  RequestParser parser;
  const auto requests = parse_all(parser, "phd1 classify trials=1\ntrial samples=1\n1\n");
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(std::get<ClassifyRequest>(requests[0]).model, "");
}

TEST(ServeProtocolParse, IdleTracksClassifyBody) {
  RequestParser parser;
  EXPECT_EQ(parser.consume_line("phd1 classify trials=1"), std::nullopt);
  EXPECT_EQ(parser.consume_line("trial samples=2"), std::nullopt);
  EXPECT_EQ(parser.consume_line("1 2"), std::nullopt);
  EXPECT_TRUE(parser.consume_line("3 4").has_value());
  expect_between_requests(parser);
}

TEST(ServeProtocolParse, BackToBackRequestsOnOneConnection) {
  RequestParser parser;
  const auto requests = parse_all(parser,
                                  "phd1 classify trials=1\ntrial samples=1\n1 2\n"
                                  "phd1 ping\n"
                                  "phd1 classify model=m trials=1\ntrial samples=1\n3 4\n");
  ASSERT_EQ(requests.size(), 3u);
  EXPECT_TRUE(std::holds_alternative<PingRequest>(requests[1]));
  EXPECT_EQ(std::get<ClassifyRequest>(requests[2]).model, "m");
}

TEST(ServeProtocolParse, MalformedFramesReportStableCodes) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"phd2 ping\n", "unsupported-version"},
      {"PHD1 ping\n", "unsupported-version"},
      {"phd1 bogus\n", "bad-request"},
      {"phd1 ping extra\n", "bad-request"},
      {"phd1 classify\n", "bad-request"},
      {"phd1 classify trials=\n", "bad-request"},
      {"phd1 classify trials=zero\n", "bad-request"},
      {"phd1 classify trials=0\n", "bad-request"},
      {"phd1 classify trials=1 extra=1\n", "bad-request"},
      {"phd1 classify model=bad/name trials=1\n", "bad-request"},
      {"phd1 classify trials=99999999\n", "too-large"},
      {"phd1 classify trials=1\nsamples=1\n", "bad-request"},
      {"phd1 classify trials=1\ntrial samples=0\n", "bad-request"},
      {"phd1 classify trials=1\ntrial samples=99999999\n", "too-large"},
      {"phd1 classify trials=1\ntrial samples=1\n\n", "bad-request"},
      {"phd1 classify trials=1\ntrial samples=1\n1 fish\n", "bad-request"},
      {"phd1 classify trials=1\ntrial samples=1\n1 inf\n", "bad-request"},
      {"phd1 classify trials=1\ntrial samples=1\nnan\n", "bad-request"},
  };
  for (const auto& [text, code] : cases) {
    RequestParser parser;
    EXPECT_EQ(code_of(parser, text), code) << "input: " << text;
  }
}

TEST(ServeProtocolParse, FramingLostTracksClassifyFailures) {
  // Single-line failures leave framing intact.
  for (const std::string line : {"phd2 ping", "phd1 bogus", "phd1 ping extra"}) {
    RequestParser parser;
    EXPECT_THROW((void)parser.consume_line(line), CodedError);
    EXPECT_FALSE(parser.framing_lost()) << line;
  }
  // Any classify failure — header or body — loses framing: the client has
  // already pipelined trial lines behind it.
  for (const std::string text :
       {"phd1 classify trials=0\n", "phd1 classify trials=99999999\n",
        "phd1 classify trials=nope\n", "phd1 classify trials=1\ntrial samples=oops\n",
        "phd1 classify trials=1\ntrial samples=1\nbad float\n"}) {
    RequestParser parser;
    EXPECT_THROW(parse_all(parser, text), CodedError) << text;
    EXPECT_TRUE(parser.framing_lost()) << text;
  }
  // A successful request (classify included) clears the flag.
  RequestParser parser;
  EXPECT_THROW((void)parser.consume_line("phd1 classify trials=0"), CodedError);
  const auto requests =
      parse_all(parser, "phd1 classify trials=1\ntrial samples=1\n1 2\n");
  EXPECT_EQ(requests.size(), 1u);
  EXPECT_FALSE(parser.framing_lost());
}

TEST(ServeProtocolParse, ResetsToIdleAfterError) {
  RequestParser parser;
  EXPECT_EQ(parser.consume_line("phd1 classify trials=1"), std::nullopt);
  EXPECT_THROW((void)parser.consume_line("trial samples=oops"), CodedError);
  // A fresh request parses normally afterwards.
  const auto request = parser.consume_line("phd1 ping");
  ASSERT_TRUE(request.has_value());
  EXPECT_TRUE(std::holds_alternative<PingRequest>(*request));
}

TEST(ServeProtocolRoundTrip, ClassifyRequestSurvivesFormatting) {
  std::vector<hd::Trial> trials = {
      {{0.1f, 21.0f, 3.14159274f}, {1e-7f, 1234567.0f, -3.25f}},
      {{0.333333343f, 2.0f, 7.875f}},
  };
  const std::string wire = format_classify_request("subj0", trials);
  RequestParser parser;
  std::vector<Request> requests;
  std::istringstream lines(wire);
  std::string line;
  while (std::getline(lines, line)) {
    if (auto request = parser.consume_line(line)) requests.push_back(std::move(*request));
  }
  ASSERT_EQ(requests.size(), 1u);
  const auto& classify = std::get<ClassifyRequest>(requests[0]);
  EXPECT_EQ(classify.model, "subj0");
  // %.9g formatting + from_chars parsing round-trips binary32 exactly.
  EXPECT_EQ(classify.trials, trials);
}

TEST(ServeProtocolRoundTrip, ResultLinesSurviveFormatting) {
  std::vector<hd::AmDecision> decisions(2);
  decisions[0].label = 3;
  decisions[0].distance = 120;
  decisions[0].distances = {300, 250, 199, 120, 500};
  decisions[1].label = 0;
  decisions[1].distance = 0;
  decisions[1].distances = {0, 1};
  const std::string wire = ResponseEncoder(Wire::kText).classify("m", decisions);
  std::istringstream lines(wire);
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_EQ(header, "ok classify model=m results=2");
  for (const hd::AmDecision& expected : decisions) {
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    const hd::AmDecision parsed = parse_result_line(line);
    EXPECT_EQ(parsed.label, expected.label);
    EXPECT_EQ(parsed.distance, expected.distance);
    EXPECT_EQ(parsed.distances, expected.distances);
  }
}

TEST(ServeProtocolFormat, ModelsResponse) {
  const std::vector<ModelInfo> infos = {
      {"subj0", 10000, 4, 5, 1, true},
      {"subj1", 10000, 4, 5, 1, false},
  };
  EXPECT_EQ(ResponseEncoder(Wire::kText).models(infos),
            "ok models count=2\n"
            "model name=subj0 dim=10000 channels=4 classes=5 ngram=1 default=1\n"
            "model name=subj1 dim=10000 channels=4 classes=5 ngram=1 default=0\n");
}

TEST(ServeProtocolFormat, ErrorFlattensNewlines) {
  EXPECT_EQ(ResponseEncoder(Wire::kText).error(kErrInternal, "boom\nsecond line"),
            "err code=internal msg=boom second line\n");
}

TEST(ServeProtocolFormat, MalformedResultLinesThrow) {
  EXPECT_THROW((void)parse_result_line("nonsense"), CodedError);
  EXPECT_THROW((void)parse_result_line("result label=x distance=1 distances=1"), CodedError);
  EXPECT_THROW((void)parse_result_line("result label=1 distance=1 distances=1,fish"), CodedError);
  EXPECT_THROW((void)parse_result_line("result label=1 distance=1 distances=1 extra"), CodedError);
}

// --- phd2 binary framing ---------------------------------------------------

std::string le32(std::uint32_t value) {
  std::string out(4, '\0');
  out[0] = static_cast<char>(value & 0xff);
  out[1] = static_cast<char>((value >> 8) & 0xff);
  out[2] = static_cast<char>((value >> 16) & 0xff);
  out[3] = static_cast<char>((value >> 24) & 0xff);
  return out;
}

/// Wraps a payload in the u32-LE length prefix, the phd2 frame shape.
std::string make_frame(const std::string& payload) {
  return le32(static_cast<std::uint32_t>(payload.size())) + payload;
}

/// A BinaryRequestParser over an input buffer kept the way a
/// ConnectionSession keeps one: the bytes fed so far, and how many of them
/// the parser has consumed.
class FrameInput {
 public:
  explicit FrameInput(std::size_t max_frame_bytes = kMaxFrameBytes) : parser_(max_frame_bytes) {}

  void feed(std::string_view bytes) { bytes_.append(bytes); }

  std::optional<Request> next() {
    std::string_view pending = std::string_view(bytes_).substr(offset_);
    try {
      std::optional<Request> request = parser_.next(pending);
      offset_ = bytes_.size() - pending.size();
      return request;
    } catch (const CodedError&) {
      offset_ = bytes_.size() - pending.size();
      throw;
    }
  }

  bool framing_lost() const { return parser_.framing_lost(); }

 private:
  BinaryRequestParser parser_;
  std::string bytes_;
  std::size_t offset_ = 0;
};

/// A parser holding no partial frame decodes the next frame fed to it on
/// its own; leftover bytes would misframe it.
void expect_between_requests(FrameInput& parser) {
  parser.feed(format_binary_command(kFramePing));
  const auto request = parser.next();
  ASSERT_TRUE(request.has_value());
  EXPECT_TRUE(std::holds_alternative<PingRequest>(*request));
  EXPECT_FALSE(parser.next().has_value());
}

/// Feeds bytes and returns the code of the first CodedError next() throws
/// ("" when every buffered frame decodes cleanly).
std::string binary_code_of(FrameInput& parser, const std::string& bytes) {
  parser.feed(bytes);
  try {
    while (parser.next()) {
    }
  } catch (const CodedError& e) {
    return e.code();
  }
  return "";
}

TEST(ServeBinaryParse, CommandsRoundTrip) {
  FrameInput parser;
  parser.feed(format_binary_command(kFramePing));
  parser.feed(format_binary_command(kFrameModels));
  parser.feed(format_binary_command(kFrameQuit));
  ASSERT_TRUE(std::holds_alternative<PingRequest>(*parser.next()));
  ASSERT_TRUE(std::holds_alternative<ModelsRequest>(*parser.next()));
  ASSERT_TRUE(std::holds_alternative<QuitRequest>(*parser.next()));
  EXPECT_FALSE(parser.next().has_value());
  expect_between_requests(parser);
}

TEST(ServeBinaryParse, ClassifyRoundTripsBitExactly) {
  // Awkward float values on purpose: raw float32 bits must survive without
  // any text round-trip at all.
  std::vector<hd::Trial> trials;
  trials.push_back({{0.1f, 6.9f, 3.3333333f}, {2.0f, 5.0f, 0.125f}});
  trials.push_back({{1e-38f, -0.0f, 7.0f}});
  FrameInput parser;
  parser.feed(format_binary_classify_request("subj1", trials));
  const auto request = parser.next();
  ASSERT_TRUE(request.has_value());
  const auto& classify = std::get<ClassifyRequest>(*request);
  EXPECT_EQ(classify.model, "subj1");
  EXPECT_EQ(classify.trials, trials);
  expect_between_requests(parser);
}

TEST(ServeBinaryParse, TruncatedLengthPrefixWaits) {
  // Fewer than 4 bytes cannot even declare a length: not an error, just an
  // incomplete frame. EOF here is a peer dying mid-frame, with nothing to
  // answer.
  FrameInput parser;
  parser.feed(std::string("\x05\x00", 2));
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_FALSE(parser.framing_lost());
}

TEST(ServeBinaryParse, ByteAtATimeDeliveryReassembles) {
  const std::vector<hd::Trial> one_trial = {{{1.5f, 2.5f}}};
  const std::string wire = format_binary_classify_request("m", one_trial);
  FrameInput parser;
  std::optional<Request> request;
  for (const char byte : wire) {
    ASSERT_FALSE(request.has_value());
    parser.feed(std::string_view(&byte, 1));
    if (auto r = parser.next()) request = std::move(r);
  }
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(std::get<ClassifyRequest>(*request).trials[0][0][1], 2.5f);
  expect_between_requests(parser);
}

TEST(ServeBinaryParse, MidFrameDropIsDetectable) {
  const std::string wire = format_binary_command(kFramePing);
  FrameInput parser;
  parser.feed(wire.substr(0, wire.size() - 1));
  EXPECT_FALSE(parser.next().has_value());
  parser.feed(wire.substr(wire.size() - 1));
  EXPECT_TRUE(std::holds_alternative<PingRequest>(*parser.next()));
  expect_between_requests(parser);
}

TEST(ServeBinaryParse, OversizedDeclaredLengthLosesFraming) {
  FrameInput parser(/*max_frame_bytes=*/1024);
  parser.feed(le32(2048));
  try {
    parser.next();
    FAIL() << "expected a too-large CodedError";
  } catch (const CodedError& e) {
    EXPECT_EQ(e.code(), kErrTooLarge);
  }
  // The declared length can no longer be trusted, so neither can any byte
  // after it: framing is lost and the buffered garbage is discarded.
  EXPECT_TRUE(parser.framing_lost());
  expect_between_requests(parser);
}

TEST(ServeBinaryParse, MalformedPayloadsKeepFramingAndReportStableCodes) {
  const std::string inf_bits = le32(0x7f800000);  // float32 +inf
  const struct {
    std::string payload;
    std::string_view code;
  } kCases[] = {
      // Empty payload: no type byte at all.
      {"", kErrBadRequest},
      // Unknown request type.
      {std::string(1, '\x7f'), kErrBadRequest},
      // Trailing bytes after a body-less command.
      {std::string(1, static_cast<char>(kFramePing)) + "x", kErrBadRequest},
      // Classify truncated inside its declared sample data.
      {std::string(1, static_cast<char>(kFrameClassify)) + std::string(1, '\0') + le32(1) +
           le32(1) + std::string("\x02\x00", 2) + le32(0x3f800000),
       kErrBadRequest},
      // Classify with zero trials.
      {std::string(1, static_cast<char>(kFrameClassify)) + std::string(1, '\0') + le32(0),
       kErrBadRequest},
      // Classify declaring more trials than the request limit.
      {std::string(1, static_cast<char>(kFrameClassify)) + std::string(1, '\0') +
           le32(static_cast<std::uint32_t>(kMaxTrialsPerRequest + 1)),
       kErrTooLarge},
      // Zero channels.
      {std::string(1, static_cast<char>(kFrameClassify)) + std::string(1, '\0') + le32(1) +
           le32(1) + std::string("\x00\x00", 2),
       kErrBadRequest},
      // Non-finite sample value.
      {std::string(1, static_cast<char>(kFrameClassify)) + std::string(1, '\0') + le32(1) +
           le32(1) + std::string("\x01\x00", 2) + inf_bits,
       kErrBadRequest},
  };
  for (const auto& c : kCases) {
    FrameInput parser;
    EXPECT_EQ(binary_code_of(parser, make_frame(c.payload)), c.code);
    // The error was confined to its own delimited frame: the very next
    // frame on the same parser must decode normally.
    EXPECT_FALSE(parser.framing_lost());
    parser.feed(format_binary_command(kFramePing));
    EXPECT_TRUE(std::holds_alternative<PingRequest>(*parser.next()));
  }
}

/// A response parser that consumed every byte fed to it decodes the next
/// frame on its own; leftover bytes would misframe it.
void expect_response_boundary(BinaryResponseParser& parser) {
  parser.feed(ResponseEncoder(Wire::kBinary).pong());
  const auto response = parser.next();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->type, kFramePong);
  EXPECT_FALSE(parser.next().has_value());
}

TEST(ServeBinaryResponses, RoundTripThroughResponseParser) {
  const ResponseEncoder encoder(Wire::kBinary);
  BinaryResponseParser parser;

  parser.feed(encoder.pong());
  EXPECT_EQ(parser.next()->type, kFramePong);
  parser.feed(encoder.bye());
  EXPECT_EQ(parser.next()->type, kFrameBye);

  std::vector<ModelInfo> infos;
  infos.push_back({"subj0", 10000, 4, 5, 3, true});
  infos.push_back({"subj1", 512, 8, 3, 1, false});
  parser.feed(encoder.models(infos));
  const auto models = parser.next();
  ASSERT_EQ(models->type, kFrameModelList);
  ASSERT_EQ(models->models.size(), 2u);
  EXPECT_EQ(models->models[0].name, "subj0");
  EXPECT_EQ(models->models[0].dim, 10000u);
  EXPECT_TRUE(models->models[0].is_default);
  EXPECT_EQ(models->models[1].channels, 8u);
  EXPECT_FALSE(models->models[1].is_default);

  std::vector<hd::AmDecision> decisions(2);
  decisions[0].label = 2;
  decisions[0].distance = 1234;
  decisions[0].distances = {4000, 2222, 1234};
  decisions[1].label = 0;
  decisions[1].distance = 7;
  decisions[1].distances = {7, 5011, 4999};
  parser.feed(encoder.classify("subj0", decisions));
  const auto results = parser.next();
  ASSERT_EQ(results->type, kFrameResults);
  EXPECT_EQ(results->model, "subj0");
  ASSERT_EQ(results->decisions.size(), 2u);
  EXPECT_EQ(results->decisions[0].label, 2u);
  EXPECT_EQ(results->decisions[0].distances, decisions[0].distances);
  EXPECT_EQ(results->decisions[1].distance, 7u);

  parser.feed(encoder.error(kErrBadTrial, "wrong channel count", /*fatal=*/false));
  const auto kept = parser.next();
  ASSERT_EQ(kept->type, kFrameError);
  EXPECT_EQ(kept->error_code, kErrBadTrial);
  EXPECT_EQ(kept->error_message, "wrong channel count");
  EXPECT_FALSE(kept->fatal);

  parser.feed(encoder.error(kErrTooLarge, "frame over limit", /*fatal=*/true));
  EXPECT_TRUE(parser.next()->fatal);
  expect_response_boundary(parser);
}

// --- connection session: negotiation + framing -----------------------------

TEST(ServeSession, NegotiatesTextFromFirstBytes) {
  ConnectionSession session;
  const auto events = session.consume("phd1 ping\nphd1 quit\n");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_TRUE(std::holds_alternative<PingRequest>(*events[0].request));
  EXPECT_TRUE(std::holds_alternative<QuitRequest>(*events[1].request));
  EXPECT_EQ(session.wire(), Wire::kText);
  EXPECT_FALSE(session.dead());
}

TEST(ServeSession, SplitMagicStillNegotiatesBinary) {
  ConnectionSession session;
  EXPECT_TRUE(session.consume("PH").empty());
  const auto events = session.consume(std::string("D2") + format_binary_command(kFramePing));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<PingRequest>(*events[0].request));
  EXPECT_EQ(session.wire(), Wire::kBinary);
}

TEST(ServeSession, TextLineOnABinaryConnectionIsAFatalFrameError) {
  // After the magic, every byte is framing: an interleaved text line reads
  // as an absurd length prefix ("phd1" = ~827 MB), so the server answers a
  // fatal binary too-large error and drops the connection.
  ConnectionSession session;
  const auto events = session.consume(std::string(kBinaryMagic) + "phd1 ping\n");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_FALSE(events[0].request.has_value());
  EXPECT_TRUE(events[0].drop);
  BinaryResponseParser parser;
  parser.feed(events[0].output);
  const auto error = parser.next();
  ASSERT_EQ(error->type, kFrameError);
  EXPECT_EQ(error->error_code, kErrTooLarge);
  EXPECT_TRUE(error->fatal);
  EXPECT_TRUE(session.dead());
  EXPECT_TRUE(session.consume("anything").empty());  // dead sessions ignore input
}

TEST(ServeSession, BinaryMagicOnATextConnectionIsAVersionError) {
  // The reverse interleaving: a text connection later sending "PHD2 ..."
  // is just an unsupported-version line — answered, connection kept.
  ConnectionSession session;
  const auto events = session.consume("phd1 ping\nPHD2 ping\nphd1 ping\n");
  ASSERT_EQ(events.size(), 3u);
  EXPECT_TRUE(std::holds_alternative<PingRequest>(*events[0].request));
  EXPECT_FALSE(events[1].request.has_value());
  EXPECT_NE(events[1].output.find(kErrUnsupportedVersion), std::string::npos);
  EXPECT_FALSE(events[1].drop);
  EXPECT_TRUE(std::holds_alternative<PingRequest>(*events[2].request));
}

TEST(ServeSession, BinaryPayloadErrorKeepsTheConnection) {
  ConnectionSession session;
  const std::string bad = make_frame(std::string(1, '\x7f'));  // unknown type
  const auto events = session.consume(std::string(kBinaryMagic) + bad +
                                      format_binary_command(kFramePing));
  ASSERT_EQ(events.size(), 2u);
  EXPECT_FALSE(events[0].request.has_value());
  EXPECT_FALSE(events[0].drop);
  BinaryResponseParser parser;
  parser.feed(events[0].output);
  EXPECT_EQ(parser.next()->error_code, kErrBadRequest);
  EXPECT_TRUE(std::holds_alternative<PingRequest>(*events[1].request));
  EXPECT_FALSE(session.dead());
}

TEST(ServeSession, OversizedFrameDropsTheConnection) {
  ConnectionSession session(ConnectionSession::Limits{kMaxLineBytes, 64});
  const auto events = session.consume(std::string(kBinaryMagic) + le32(65));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].drop);
  EXPECT_TRUE(session.dead());
}

TEST(ServeSession, OverlongUnterminatedTextLineDrops) {
  ConnectionSession session(ConnectionSession::Limits{16, kMaxFrameBytes});
  // No newline yet, but already over the line limit: framing can never
  // recover, so the session must not wait for a terminator that may never
  // come.
  const auto events = session.consume(std::string(32, 'a'));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NE(events[0].output.find(kErrTooLarge), std::string::npos);
  EXPECT_TRUE(events[0].drop);
  EXPECT_TRUE(session.dead());
}

// A session decodes nothing ahead of next(): each call takes exactly one
// request's bytes off the buffered input, in stream order, and the partial
// request after the last complete one stays buffered until the next feed
// completes it.
TEST(ServeSession, NextDecodesOneRequestAtATimeAndKeepsThePartialRest) {
  const std::vector<hd::Trial> trials = {{{1.0f, 2.0f}, {3.0f, 4.0f}, {5.0f, 6.0f}},
                                         {{7.0f, 8.0f}}};
  for (const Wire wire : {Wire::kBinary, Wire::kText}) {
    SCOPED_TRACE(wire == Wire::kBinary ? "binary" : "text");
    const bool binary = wire == Wire::kBinary;
    const std::string ping = binary ? format_binary_command(kFramePing) : "phd1 ping\n";
    const std::string classify = binary ? format_binary_classify_request("m", trials)
                                        : format_classify_request("m", trials);
    const std::string models = binary ? format_binary_command(kFrameModels) : "phd1 models\n";
    // Pings at even positions, classifies at odd ones; the models request
    // last arrives in two reads, split in its middle.
    const std::vector<std::string> requests = {ping, classify, ping, classify, models};
    std::string bytes = binary ? std::string(kBinaryMagic) : "";
    for (const std::string& request : requests) bytes += request;
    const std::size_t split = bytes.size() - models.size() / 2;

    ConnectionSession session;
    session.feed(std::string_view(bytes).substr(0, split));
    std::size_t buffered = split - (binary ? kBinaryMagic.size() : 0);
    for (std::size_t i = 0; i + 1 < requests.size(); ++i) {
      SCOPED_TRACE("request " + std::to_string(i));
      std::optional<WireEvent> event = session.next();
      ASSERT_TRUE(event.has_value());
      ASSERT_TRUE(event->request.has_value());
      if (i % 2 == 0) {
        EXPECT_TRUE(std::holds_alternative<PingRequest>(*event->request));
      } else {
        EXPECT_EQ(std::get<ClassifyRequest>(*event->request).trials, trials);
      }
      buffered -= requests[i].size();
      EXPECT_EQ(session.buffered(), buffered);
    }
    EXPECT_FALSE(session.next().has_value());
    EXPECT_EQ(session.buffered(), models.size() - models.size() / 2);

    session.feed(std::string_view(bytes).substr(split));
    std::optional<WireEvent> last = session.next();
    ASSERT_TRUE(last.has_value());
    ASSERT_TRUE(last->request.has_value());
    EXPECT_TRUE(std::holds_alternative<ModelsRequest>(*last->request));
    EXPECT_EQ(session.buffered(), 0u);
    EXPECT_FALSE(session.next().has_value());
    EXPECT_FALSE(session.dead());
  }
}

// --- streaming request family ----------------------------------------------

TEST(ServeProtocolParse, StreamLifecycleParses) {
  RequestParser parser;
  const auto requests = parse_all(parser,
                                  "phd1 stream-open model=subj1 window=8 hop=2\n"
                                  "phd1 stream-push samples=2\n"
                                  "1 2.5 3\n"
                                  "4 5 6\n"
                                  "phd1 stream-close\n");
  ASSERT_EQ(requests.size(), 3u);
  const auto& open = std::get<StreamOpenRequest>(requests[0]);
  EXPECT_EQ(open.model, "subj1");
  EXPECT_EQ(open.window, 8u);
  EXPECT_EQ(open.hop, 2u);
  const auto& push = std::get<StreamPushRequest>(requests[1]);
  ASSERT_EQ(push.samples.size(), 2u);
  EXPECT_EQ(push.samples[0], (hd::Sample{1.0f, 2.5f, 3.0f}));
  EXPECT_EQ(push.samples[1], (hd::Sample{4.0f, 5.0f, 6.0f}));
  EXPECT_TRUE(std::holds_alternative<StreamCloseRequest>(requests[2]));
  expect_between_requests(parser);
}

TEST(ServeProtocolParse, StreamOpenWithoutModelRoutesToDefault) {
  RequestParser parser;
  const auto requests = parse_all(parser, "phd1 stream-open window=4 hop=4\n");
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(std::get<StreamOpenRequest>(requests[0]).model, "");
}

TEST(ServeProtocolParse, StreamMalformedHeadersReportStableCodes) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"phd1 stream-open\n", "bad-request"},
      {"phd1 stream-open window=8\n", "bad-request"},
      {"phd1 stream-open hop=2\n", "bad-request"},
      {"phd1 stream-open window=0 hop=1\n", "bad-request"},
      {"phd1 stream-open window=8 hop=0\n", "bad-request"},
      {"phd1 stream-open window=8 hop=2 extra=1\n", "bad-request"},
      {"phd1 stream-open window=999999 hop=1\n", "too-large"},
      // Overlap cap: (window-1)/hop + 1 concurrently open windows.
      {"phd1 stream-open window=65536 hop=1\n", "too-large"},
      {"phd1 stream-push samples=0\n", "bad-request"},
      {"phd1 stream-push samples=fish\n", "bad-request"},
      {"phd1 stream-push\n", "bad-request"},
      {"phd1 stream-push samples=999999\n", "too-large"},
      {"phd1 stream-close extra\n", "bad-request"},
      {"phd1 stream-push samples=1\nnot floats\n", "bad-request"},
  };
  for (const auto& [text, code] : cases) {
    RequestParser parser;
    EXPECT_EQ(code_of(parser, text), code) << text;
  }
}

TEST(ServeProtocolParse, StreamPushBodyFailureLosesFraming) {
  // Like classify: a failed stream-push (header or body) may leave already
  // pipelined sample lines in the stream, so framing is lost...
  RequestParser parser;
  EXPECT_EQ(code_of(parser, "phd1 stream-push samples=2\n1 2\nbogus line\n"), "bad-request");
  EXPECT_TRUE(parser.framing_lost());
  // ...while a failed single-line stream-open/close keeps the connection.
  RequestParser parser2;
  EXPECT_EQ(code_of(parser2, "phd1 stream-open window=0 hop=1\n"), "bad-request");
  EXPECT_FALSE(parser2.framing_lost());
  EXPECT_TRUE(std::holds_alternative<PingRequest>(*parser2.consume_line("phd1 ping")));
}

TEST(ServeProtocolRoundTrip, StreamWindowLinesSurviveFormatting) {
  std::vector<hd::AmDecision> decisions(2);
  decisions[0].label = 3;
  decisions[0].distance = 120;
  decisions[0].distances = {300, 250, 199, 120, 500};
  decisions[1].label = 1;
  decisions[1].distance = 42;
  decisions[1].distances = {77, 42};
  const std::string wire =
      ResponseEncoder(Wire::kText).stream_windows(/*first_index=*/7, decisions);
  std::istringstream lines(wire);
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_EQ(header, "ok stream-push windows=2");
  for (std::size_t w = 0; w < decisions.size(); ++w) {
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    const auto [index, parsed] = parse_window_line(line);
    EXPECT_EQ(index, 7u + w);
    EXPECT_EQ(parsed.label, decisions[w].label);
    EXPECT_EQ(parsed.distance, decisions[w].distance);
    EXPECT_EQ(parsed.distances, decisions[w].distances);
  }
  EXPECT_EQ(ResponseEncoder(Wire::kText).stream_opened("m", 8, 2),
            "ok stream-open model=m window=8 hop=2\n");
  EXPECT_EQ(ResponseEncoder(Wire::kText).stream_closed(11), "ok stream-close windows=11\n");
  EXPECT_THROW((void)parse_window_line("window index=x label=1 distance=1 distances=1"),
               CodedError);
  EXPECT_THROW((void)parse_window_line("result label=1 distance=1 distances=1"), CodedError);
}

TEST(ServeBinaryParse, StreamFramesRoundTripBitExactly) {
  FrameInput parser;
  parser.feed(format_binary_stream_open_request("subj1", /*window=*/256, /*hop=*/65));
  const auto open_request = parser.next();
  ASSERT_TRUE(open_request.has_value());
  const auto& open = std::get<StreamOpenRequest>(*open_request);
  EXPECT_EQ(open.model, "subj1");
  EXPECT_EQ(open.window, 256u);
  EXPECT_EQ(open.hop, 65u);

  // Awkward float values on purpose: raw float32 bits, no text round-trip.
  const std::vector<hd::Sample> samples = {{0.1f, 6.9f, 3.3333333f}, {1e-38f, -0.0f, 7.0f}};
  parser.feed(format_binary_stream_push_request(samples));
  const auto push_request = parser.next();
  ASSERT_TRUE(push_request.has_value());
  EXPECT_EQ(std::get<StreamPushRequest>(*push_request).samples, samples);

  parser.feed(format_binary_command(kFrameStreamClose));
  EXPECT_TRUE(std::holds_alternative<StreamCloseRequest>(*parser.next()));
  expect_between_requests(parser);
}

TEST(ServeBinaryParse, StreamMalformedPayloadsKeepFramingAndReportStableCodes) {
  const struct {
    std::string payload;
    std::string_view code;
  } kCases[] = {
      // stream-open truncated before the hop field.
      {std::string(1, static_cast<char>(kFrameStreamOpen)) + std::string(1, '\0') + le32(8),
       kErrBadRequest},
      // stream-open with window=0 / hop=0.
      {std::string(1, static_cast<char>(kFrameStreamOpen)) + std::string(1, '\0') + le32(0) +
           le32(1),
       kErrBadRequest},
      {std::string(1, static_cast<char>(kFrameStreamOpen)) + std::string(1, '\0') + le32(8) +
           le32(0),
       kErrBadRequest},
      // stream-open over the per-trial sample limit / the overlap cap.
      {std::string(1, static_cast<char>(kFrameStreamOpen)) + std::string(1, '\0') +
           le32(static_cast<std::uint32_t>(kMaxSamplesPerTrial + 1)) + le32(1024),
       kErrTooLarge},
      {std::string(1, static_cast<char>(kFrameStreamOpen)) + std::string(1, '\0') +
           le32(static_cast<std::uint32_t>(kMaxSamplesPerTrial)) + le32(1),
       kErrTooLarge},
      // stream-push with zero samples / zero channels / truncated data.
      {std::string(1, static_cast<char>(kFrameStreamPush)) + le32(0) + std::string("\x02\x00", 2),
       kErrBadRequest},
      {std::string(1, static_cast<char>(kFrameStreamPush)) + le32(1) + std::string("\x00\x00", 2),
       kErrBadRequest},
      {std::string(1, static_cast<char>(kFrameStreamPush)) + le32(1) + std::string("\x02\x00", 2) +
           le32(0x3f800000),
       kErrBadRequest},
      // stream-close with trailing bytes.
      {std::string(1, static_cast<char>(kFrameStreamClose)) + "x", kErrBadRequest},
  };
  for (const auto& c : kCases) {
    FrameInput parser;
    EXPECT_EQ(binary_code_of(parser, make_frame(c.payload)), c.code);
    EXPECT_FALSE(parser.framing_lost());
    parser.feed(format_binary_command(kFramePing));
    EXPECT_TRUE(std::holds_alternative<PingRequest>(*parser.next()));
  }
}

TEST(ServeBinaryResponses, StreamResponsesRoundTripThroughResponseParser) {
  const ResponseEncoder encoder(Wire::kBinary);
  BinaryResponseParser parser;

  parser.feed(encoder.stream_opened("subj0", /*window=*/128, /*hop=*/32));
  const auto opened = parser.next();
  ASSERT_EQ(opened->type, kFrameStreamOpened);
  EXPECT_EQ(opened->model, "subj0");
  EXPECT_EQ(opened->window, 128u);
  EXPECT_EQ(opened->hop, 32u);

  std::vector<hd::AmDecision> decisions(2);
  decisions[0].label = 2;
  decisions[0].distance = 1234;
  decisions[0].distances = {4000, 2222, 1234};
  decisions[1].label = 0;
  decisions[1].distance = 7;
  decisions[1].distances = {7, 5011, 4999};
  parser.feed(encoder.stream_windows(/*first_index=*/41, decisions));
  const auto windows = parser.next();
  ASSERT_EQ(windows->type, kFrameStreamWindows);
  EXPECT_EQ(windows->first_window, 41u);
  ASSERT_EQ(windows->decisions.size(), 2u);
  EXPECT_EQ(windows->decisions[0].label, 2u);
  EXPECT_EQ(windows->decisions[0].distances, decisions[0].distances);
  EXPECT_EQ(windows->decisions[1].distance, 7u);

  // An empty push answer (no window completed) still frames cleanly.
  parser.feed(encoder.stream_windows(/*first_index=*/0, {}));
  EXPECT_EQ(parser.next()->decisions.size(), 0u);

  parser.feed(encoder.stream_closed(/*windows=*/43));
  const auto closed = parser.next();
  ASSERT_EQ(closed->type, kFrameStreamClosed);
  EXPECT_EQ(closed->windows_total, 43u);
  expect_response_boundary(parser);
}

// --- phd2 in-place sample decode -------------------------------------------

/// `samples` rows of `channels` distinct, exactly representable values.
hd::Trial sample_rows(std::size_t samples, std::size_t channels, float base) {
  hd::Trial rows(samples, hd::Sample(channels));
  for (std::size_t s = 0; s < samples; ++s) {
    for (std::size_t c = 0; c < channels; ++c) {
      rows[s][c] = base + static_cast<float>(s * channels + c) * 0.25f;
    }
  }
  return rows;
}

/// One valid frame of each sample-carrying kind plus the payload offsets
/// at which cutting it short must fail: every byte of every header, and
/// the start of every row of every body.
struct CutCase {
  std::string frame;
  std::vector<std::size_t> cuts;
};

std::vector<CutCase> cut_cases() {
  const std::size_t row_bytes = 3 * sizeof(float);
  std::vector<CutCase> cases;
  const std::vector<hd::Trial> trials = {sample_rows(4, 3, 1.0f), sample_rows(2, 3, 2.0f)};
  CutCase classify{format_binary_classify_request("m", trials), {}};
  std::size_t pos = 0;
  const auto header = [&](std::vector<std::size_t>& cuts, std::size_t bytes) {
    for (std::size_t i = 0; i < bytes; ++i) cuts.push_back(pos++);
  };
  const auto body = [&](std::vector<std::size_t>& cuts, std::size_t rows) {
    for (std::size_t r = 0; r < rows; ++r, pos += row_bytes) cuts.push_back(pos);
  };
  header(classify.cuts, 1 + 1 + 1 + 4);  // type, name length, "m", trial count
  header(classify.cuts, 4 + 2);          // trial 0: samples, channels
  body(classify.cuts, 4);
  header(classify.cuts, 4 + 2);  // trial 1
  body(classify.cuts, 2);
  EXPECT_EQ(pos + 4, classify.frame.size());
  cases.push_back(std::move(classify));

  CutCase push{format_binary_stream_push_request(sample_rows(5, 3, 3.0f)), {}};
  pos = 0;
  header(push.cuts, 1 + 4 + 2);  // type, samples, channels
  body(push.cuts, 5);
  EXPECT_EQ(pos + 4, push.frame.size());
  cases.push_back(std::move(push));
  return cases;
}

/// Decodes the next frame, which must succeed, and compares it with what
/// `frame` alone decodes to.
void expect_decodes_like(FrameInput& parser, const std::string& frame) {
  FrameInput reference;
  reference.feed(frame);
  const std::optional<Request> expected = reference.next();
  ASSERT_TRUE(expected.has_value());
  const std::optional<Request> got = parser.next();
  ASSERT_TRUE(got.has_value());
  if (const auto* classify = std::get_if<ClassifyRequest>(&*expected)) {
    EXPECT_EQ(std::get<ClassifyRequest>(*got).trials, classify->trials);
  } else {
    EXPECT_EQ(std::get<StreamPushRequest>(*got).samples,
              std::get<StreamPushRequest>(*expected).samples);
  }
}

TEST(ServeBinaryParse, CutAtEveryHeaderByteAndRowBoundaryIsANonFatalBadRequest) {
  for (const CutCase& c : cut_cases()) {
    const std::string payload = c.frame.substr(4);
    for (const std::size_t cut : c.cuts) {
      SCOPED_TRACE("frame type " + std::to_string(static_cast<unsigned>(payload[0])) +
                   " cut at payload byte " + std::to_string(cut));
      FrameInput parser;
      parser.feed(make_frame(payload.substr(0, cut)) + c.frame);
      EXPECT_EQ(binary_code_of(parser, ""), kErrBadRequest);
      EXPECT_FALSE(parser.framing_lost());
      expect_decodes_like(parser, c.frame);
      expect_between_requests(parser);
    }
  }
}

TEST(ServeBinaryParse, NonFiniteValueAnywhereInABodyIsRejected) {
  const float kBad[] = {std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity()};
  // The first, middle and last value of a 3 x 3 body.
  const std::size_t kAt[][2] = {{0, 0}, {1, 1}, {2, 2}};
  for (const float bad : kBad) {
    for (const auto& at : kAt) {
      hd::Trial rows = sample_rows(3, 3, 1.0f);
      rows[at[0]][at[1]] = bad;
      const std::vector<hd::Trial> trials = {sample_rows(2, 3, 0.0f), rows};
      const std::string frames[] = {format_binary_classify_request("", trials),
                                    format_binary_stream_push_request(rows)};
      for (const std::string& frame : frames) {
        SCOPED_TRACE("value " + std::to_string(bad) + " at row " + std::to_string(at[0]));
        FrameInput parser;
        EXPECT_EQ(binary_code_of(parser, frame), kErrBadRequest);
        EXPECT_FALSE(parser.framing_lost());
        parser.feed(format_binary_command(kFramePing));
        EXPECT_TRUE(std::holds_alternative<PingRequest>(*parser.next()));
      }
    }
  }
}

TEST(ServeBinaryParse, HostileCountsFailBeforeAnyAllocationSizedFromThem) {
  const std::string kMaxSamples = le32(static_cast<std::uint32_t>(kMaxSamplesPerTrial));
  const std::string kMaxChannels("\xff\xff", 2);
  const std::string kTinyBody(12, '\0');
  const std::string payloads[] = {
      // One trial claiming 65536 x 65535 values (16 GiB) in a 12-byte body.
      std::string(1, static_cast<char>(kFrameClassify)) + std::string(1, '\0') + le32(1) +
          kMaxSamples + kMaxChannels + kTinyBody,
      // The most trials a request may declare, in a frame that holds none.
      std::string(1, static_cast<char>(kFrameClassify)) + std::string(1, '\0') +
          le32(static_cast<std::uint32_t>(kMaxTrialsPerRequest)) + kTinyBody,
      std::string(1, static_cast<char>(kFrameStreamPush)) + kMaxSamples + kMaxChannels + kTinyBody,
  };
  for (const std::string& payload : payloads) {
    FrameInput parser;
    parser.feed(make_frame(payload));
    g_largest_allocation = 0;
    g_track_allocations = true;
    const std::string code = binary_code_of(parser, "");
    g_track_allocations = false;
    EXPECT_EQ(code, kErrBadRequest);
    // Error-message strings only; a reserve sized from the counts would be
    // megabytes.
    EXPECT_LT(g_largest_allocation.load(), 1024u);
    EXPECT_FALSE(parser.framing_lost());
  }
}

TEST(ServeBinaryParse, ThousandsOfBackToBackSmallFramesDecodeInOrder) {
  // 5 samples x 4 channels: a 91-byte frame (4 length + 1 type + 4 + 2 +
  // 80 sample bytes).
  constexpr std::size_t kFrames = 2000;
  std::string wire;
  for (std::size_t i = 0; i < kFrames; ++i) {
    wire += format_binary_stream_push_request(sample_rows(5, 4, static_cast<float>(i)));
  }
  ASSERT_EQ(wire.size(), kFrames * 91);
  // All at once, byte by byte, and in chunks that straddle frames (which
  // is what makes the parser compact its decoded prefix).
  for (const std::size_t chunk : {wire.size(), std::size_t{1}, std::size_t{1000}}) {
    SCOPED_TRACE("chunk " + std::to_string(chunk));
    FrameInput parser;
    std::size_t decoded = 0;
    for (std::size_t at = 0; at < wire.size(); at += chunk) {
      parser.feed(std::string_view(wire).substr(at, chunk));
      while (auto request = parser.next()) {
        const hd::Trial& samples = std::get<StreamPushRequest>(*request).samples;
        ASSERT_EQ(samples, sample_rows(5, 4, static_cast<float>(decoded)));
        ++decoded;
      }
    }
    EXPECT_EQ(decoded, kFrames);
    expect_between_requests(parser);
  }
}

TEST(ServeProtocolParse, SampleLinesOfChangingWidthStillParse) {
  // Each line reserves the previous line's width; wider, narrower and
  // empty lines must behave exactly as before.
  RequestParser parser;
  const std::string text =
      "phd1 classify trials=2\ntrial samples=2\n1 2\n3 4 5\ntrial samples=1\n6\n"
      "phd1 stream-push samples=2\n7 8 9\n10\n";
  const auto requests = parse_all(parser, text);
  ASSERT_EQ(requests.size(), 2u);
  EXPECT_EQ(std::get<ClassifyRequest>(requests[0]).trials,
            (std::vector<hd::Trial>{{{1, 2}, {3, 4, 5}}, {{6}}}));
  EXPECT_EQ(std::get<StreamPushRequest>(requests[1]).samples, (hd::Trial{{7, 8, 9}, {10}}));
  EXPECT_EQ(code_of(parser, "phd1 classify trials=1\ntrial samples=2\n1 2\n\n"), kErrBadRequest);
  EXPECT_EQ(code_of(parser, "phd1 stream-push samples=2\n1 2\n   \n"), kErrBadRequest);
}

/// A text stream-push of `samples`: the body lines of a one-trial classify
/// under a stream-push header.
std::string format_text_stream_push(const hd::Trial& samples) {
  const std::string classify = format_classify_request("", std::vector<hd::Trial>{samples});
  const std::size_t body = classify.find('\n', classify.find('\n') + 1) + 1;
  return "phd1 stream-push samples=" + std::to_string(samples.size()) + "\n" +
         classify.substr(body);
}

/// The sample rows a decoded request carries, as trials.
std::vector<hd::Trial> decoded_trials(const Request& request) {
  if (const auto* push = std::get_if<StreamPushRequest>(&request)) return {push->samples};
  return std::get<ClassifyRequest>(request).trials;
}

// A session that hands every request back decodes later requests into the
// storage of earlier, differently shaped ones: rows kept from 32 channels
// then carry 1, then 64, and trials change length and count. Every request
// still equals what a fresh session decodes from the same bytes.
TEST(ServeSession, RecycledStorageOfOtherShapesDecodesLikeAFreshSession) {
  for (const Wire wire : {Wire::kText, Wire::kBinary}) {
    SCOPED_TRACE(wire == Wire::kText ? "text" : "binary");
    const std::string magic = wire == Wire::kBinary ? std::string(kBinaryMagic) : "";
    ConnectionSession reused;
    reused.consume(magic);
    // Decodes `bytes` on the reused session and on a fresh one, then hands
    // the reused session's request back.
    const auto decode = [&](const std::string& bytes, const std::vector<hd::Trial>& sent) {
      ConnectionSession fresh;
      fresh.consume(magic);
      const std::vector<WireEvent> expected = fresh.consume(bytes);
      std::vector<WireEvent> events = reused.consume(bytes);
      ASSERT_EQ(expected.size(), 1u);
      ASSERT_EQ(events.size(), 1u);
      ASSERT_TRUE(expected[0].request.has_value());
      ASSERT_TRUE(events[0].request.has_value());
      EXPECT_EQ(events[0].request->index(), expected[0].request->index());
      EXPECT_EQ(decoded_trials(*events[0].request), decoded_trials(*expected[0].request));
      EXPECT_EQ(decoded_trials(*events[0].request), sent);
      reused.recycle(std::move(*events[0].request));
    };
    for (const std::size_t channels : {32u, 1u, 64u}) {
      SCOPED_TRACE(std::to_string(channels) + " channels");
      const float base = static_cast<float>(channels);
      const std::vector<hd::Trial> trials = {sample_rows(20, channels, base),
                                             sample_rows(3, channels, base + 1.0f),
                                             sample_rows(7, channels, base + 2.0f)};
      const hd::Trial push = sample_rows(5, channels, base + 3.0f);
      if (wire == Wire::kBinary) {
        decode(format_binary_classify_request("m", trials), trials);
        decode(format_binary_stream_push_request(push), {push});
      } else {
        decode(format_classify_request("m", trials), trials);
        decode(format_text_stream_push(push), {push});
      }
    }
  }
}

// --- golden wire bytes -------------------------------------------------------
//
// Every literal below is written from docs/protocol.md, not from encoder
// output, so an encoder and a decoder that drifted together still fail here.

/// Bytes from hex digit pairs; spaces only group fields for the reader.
std::string hex(std::string_view digits) {
  std::string out;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (digits[i] == ' ') continue;
    out.push_back(static_cast<char>(std::stoi(std::string(digits.substr(i, 2)), nullptr, 16)));
    ++i;
  }
  return out;
}

std::vector<hd::AmDecision> golden_decisions() {
  std::vector<hd::AmDecision> decisions(2);
  decisions[0].label = 1;
  decisions[0].distance = 3;
  decisions[0].distances = {7, 3};
  decisions[1].label = 258;  // 0x102: both bytes of a u32 field in use
  decisions[1].distance = 0;
  return decisions;
}

TEST(ServeWireGolden, BinaryRequestFrames) {
  EXPECT_EQ(format_binary_command(kFramePing), hex("01000000 01"));
  EXPECT_EQ(format_binary_command(kFrameModels), hex("01000000 02"));
  EXPECT_EQ(format_binary_command(kFrameQuit), hex("01000000 03"));
  EXPECT_EQ(format_binary_command(kFrameStreamClose), hex("01000000 08"));

  // reload = 0x05 name_len:u8 name
  EXPECT_EQ(format_binary_reload_request("subj0"), hex("07000000 05 05") + "subj0");
  EXPECT_EQ(format_binary_reload_request(""), hex("02000000 05 00"));

  // classify = 0x04 name_len:u8 name trials:u32 trials*(samples:u32
  // channels:u16 (samples*channels)*f32); 1.0f = 0x3f800000, -2.0f =
  // 0xc0000000, 0.5f = 0x3f000000, 0.25f = 0x3e800000.
  const std::vector<hd::Trial> trials = {{{1.0f, -2.0f}}, {{0.5f}, {0.25f}}};
  EXPECT_EQ(format_binary_classify_request("m", trials),
            hex("23000000 04 01") + "m" +
                hex("02000000"
                    " 01000000 0200 0000803f 000000c0"
                    " 02000000 0100 0000003f 0000803e"));
  EXPECT_EQ(format_binary_classify_request("", {trials.data(), 1}),
            hex("14000000 04 00 01000000 01000000 0200 0000803f 000000c0"));

  // stream open = 0x06 name_len:u8 name window:u32 hop:u32
  EXPECT_EQ(format_binary_stream_open_request("s", 8, 2),
            hex("0b000000 06 01") + "s" + hex("08000000 02000000"));
  EXPECT_EQ(format_binary_stream_open_request("", 0x10000, 0x101),
            hex("0a000000 06 00 00000100 01010000"));

  // stream push = 0x07 samples:u32 channels:u16 (samples*channels)*f32
  const hd::Trial push = {{1.0f, 0.5f}, {-2.0f, 0.25f}};
  EXPECT_EQ(format_binary_stream_push_request(push),
            hex("17000000 07 02000000 0200 0000803f 0000003f 000000c0 0000803e"));
}

TEST(ServeWireGolden, BinaryResponseFrames) {
  const ResponseEncoder encoder(Wire::kBinary);
  EXPECT_EQ(encoder.pong(), hex("01000000 81"));
  EXPECT_EQ(encoder.bye(), hex("01000000 82"));

  // model list = 0x83 count:u32, then name_len:u8 name dim:u32
  // channels:u32 classes:u32 ngram:u32 is_default:u8
  const std::vector<ModelInfo> infos = {{"a", 10000, 4, 5, 1, true}, {"bc", 256, 32, 3, 4, false}};
  EXPECT_EQ(encoder.models(infos), hex("2c000000 83 02000000 01") + "a" +
                                       hex("10270000 04000000 05000000 01000000 01 02") + "bc" +
                                       hex("00010000 20000000 03000000 04000000 00"));

  // classify results = 0x84 model_len:u8 model count:u32, then per trial
  // label:u32 distance:u32 n:u32 n*distance:u32
  const std::vector<hd::AmDecision> decisions = golden_decisions();
  EXPECT_EQ(encoder.classify("m", decisions),
            hex("27000000 84 01") + "m" +
                hex("02000000"
                    " 01000000 03000000 02000000 07000000 03000000"
                    " 02010000 00000000 00000000"));

  // reload results = 0x85 count:u32, then name_len:u8 name ok:u8
  // msg_len:u16 msg
  const std::vector<ReloadStatus> statuses = {{"a", true, ""}, {"b", false, "bad\nfile"}};
  EXPECT_EQ(encoder.reload(statuses), hex("17000000 85 02000000 01") + "a" + hex("01 0000 01") +
                                          "b" + hex("00 0800") + "bad\nfile");
  // A message longer than a u16 length is clipped to its first 65535 bytes.
  const std::vector<ReloadStatus> long_message = {{"c", false, std::string(70000, 'x')}};
  EXPECT_EQ(encoder.reload(long_message),
            hex("09000100 85 01000000 01") + "c" + hex("00 ffff") + std::string(65535, 'x'));

  // stream opened = 0x86 model_len:u8 model window:u32 hop:u32
  EXPECT_EQ(encoder.stream_opened("s", 8, 2),
            hex("0b000000 86 01") + "s" + hex("08000000 02000000"));

  // stream windows = 0x87 first_index:u64 count:u32, then the classify
  // results row per window
  EXPECT_EQ(encoder.stream_windows(0x100000002, decisions),
            hex("2d000000 87 0200000001000000 02000000"
                " 01000000 03000000 02000000 07000000 03000000"
                " 02010000 00000000 00000000"));
  EXPECT_EQ(encoder.stream_windows(0, {}), hex("0d000000 87 0000000000000000 00000000"));

  // stream closed = 0x88 windows:u64
  EXPECT_EQ(encoder.stream_closed(0x12345678abc), hex("09000000 88 bc8a674523010000"));

  // error = 0xEE code_len:u8 code msg_len:u16 msg fatal:u8
  EXPECT_EQ(encoder.error(kErrBadTrial, "no", /*fatal=*/false),
            hex("10000000 ee 09") + "bad-trial" + hex("0200") + "no" + hex("00"));
  EXPECT_EQ(encoder.error(kErrTooLarge, "big\n", /*fatal=*/true),
            hex("12000000 ee 09") + "too-large" + hex("0400") + "big\n" + hex("01"));
}

TEST(ServeWireGolden, TextResponses) {
  const ResponseEncoder encoder(Wire::kText);
  EXPECT_EQ(encoder.pong(), "ok pong\n");
  EXPECT_EQ(encoder.bye(), "ok bye\n");
  const std::vector<ModelInfo> infos = {{"a", 10000, 4, 5, 1, true}, {"bc", 256, 32, 3, 4, false}};
  EXPECT_EQ(encoder.models(infos),
            "ok models count=2\n"
            "model name=a dim=10000 channels=4 classes=5 ngram=1 default=1\n"
            "model name=bc dim=256 channels=32 classes=3 ngram=4 default=0\n");
  EXPECT_EQ(encoder.models({}), "ok models count=0\n");
  const std::vector<hd::AmDecision> decisions = golden_decisions();
  EXPECT_EQ(encoder.classify("m", decisions),
            "ok classify model=m results=2\n"
            "result label=1 distance=3 distances=7,3\n"
            "result label=258 distance=0 distances=\n");
  // A reload message stays one line: CR and LF become spaces.
  const std::vector<ReloadStatus> statuses = {{"a", true, ""}, {"b", false, "bad\r\nfile"}};
  EXPECT_EQ(encoder.reload(statuses),
            "ok reload count=2\n"
            "reload model=a ok=1\n"
            "reload model=b ok=0 msg=bad  file\n");
  EXPECT_EQ(encoder.stream_opened("s", 8, 2), "ok stream-open model=s window=8 hop=2\n");
  EXPECT_EQ(encoder.stream_windows(4294967298, decisions),
            "ok stream-push windows=2\n"
            "window index=4294967298 label=1 distance=3 distances=7,3\n"
            "window index=4294967299 label=258 distance=0 distances=\n");
  EXPECT_EQ(encoder.stream_windows(0, {}), "ok stream-push windows=0\n");
  EXPECT_EQ(encoder.stream_closed(43), "ok stream-close windows=43\n");
  // Text carries no fatal flag, and the message stays one line.
  EXPECT_EQ(encoder.error(kErrBadTrial, "no", /*fatal=*/false), "err code=bad-trial msg=no\n");
  EXPECT_EQ(encoder.error(kErrTooLarge, "big\r\nline", /*fatal=*/true),
            "err code=too-large msg=big  line\n");
}

// Every verb's append form, appended after bytes already in the buffer,
// adds exactly what its returning form returns, on both wires; so do the
// row-at-a-time classify and stream-push forms.
TEST(ServeWireGolden, AppendFormsMatchReturningForms) {
  const std::vector<ModelInfo> infos = {{"a", 10000, 4, 5, 1, true}, {"bc", 256, 32, 3, 4, false}};
  const std::vector<ReloadStatus> statuses = {{"a", true, ""}, {"b", false, "bad\nfile"}};
  const std::vector<hd::AmDecision> decisions = golden_decisions();
  for (const Wire wire : {Wire::kText, Wire::kBinary}) {
    SCOPED_TRACE(wire == Wire::kText ? "text" : "binary");
    const ResponseEncoder encoder(wire);
    const std::string prefix = "earlier response bytes";
    const auto appended = [&](const auto& append) {
      std::string out = prefix;
      append(out);
      EXPECT_EQ(out.compare(0, prefix.size(), prefix), 0);
      return out.substr(prefix.size());
    };
    EXPECT_EQ(appended([&](std::string& out) { encoder.append_pong(out); }), encoder.pong());
    EXPECT_EQ(appended([&](std::string& out) { encoder.append_bye(out); }), encoder.bye());
    EXPECT_EQ(appended([&](std::string& out) { encoder.append_models(out, infos); }),
              encoder.models(infos));
    EXPECT_EQ(appended([&](std::string& out) { encoder.append_classify(out, "m", decisions); }),
              encoder.classify("m", decisions));
    EXPECT_EQ(appended([&](std::string& out) { encoder.append_reload(out, statuses); }),
              encoder.reload(statuses));
    EXPECT_EQ(appended([&](std::string& out) { encoder.append_stream_opened(out, "s", 8, 2); }),
              encoder.stream_opened("s", 8, 2));
    EXPECT_EQ(appended([&](std::string& out) {
                encoder.append_stream_windows(out, 4294967298, decisions);
              }),
              encoder.stream_windows(4294967298, decisions));
    EXPECT_EQ(appended([&](std::string& out) { encoder.append_stream_closed(out, 43); }),
              encoder.stream_closed(43));
    EXPECT_EQ(appended([&](std::string& out) { encoder.append_error(out, kErrBadTrial, "no"); }),
              encoder.error(kErrBadTrial, "no"));
    EXPECT_EQ(appended([&](std::string& out) {
                encoder.append_error(out, kErrTooLarge, "big\n", /*fatal=*/true);
              }),
              encoder.error(kErrTooLarge, "big\n", /*fatal=*/true));
    EXPECT_EQ(appended([&](std::string& out) {
                const std::size_t start = encoder.open_classify(out, "m", decisions.size());
                for (const hd::AmDecision& d : decisions) encoder.append_result(out, d);
                encoder.close(out, start);
              }),
              encoder.classify("m", decisions));
    EXPECT_EQ(appended([&](std::string& out) {
                std::uint64_t index = 4294967298;
                const std::size_t start = encoder.open_stream_windows(out, index, decisions.size());
                for (const hd::AmDecision& d : decisions) encoder.append_window(out, index++, d);
                encoder.close(out, start);
              }),
              encoder.stream_windows(4294967298, decisions));
  }
}

TEST(ServeWireGolden, TextClassifyRequest) {
  // Values print as %.9g, which round-trips binary32.
  const std::vector<hd::Trial> trials = {{{1.0f, -2.5f}}, {{0.1f}, {1e-7f}}};
  EXPECT_EQ(format_classify_request("subj0", trials),
            "phd1 classify model=subj0 trials=2\n"
            "trial samples=1\n"
            "1 -2.5\n"
            "trial samples=2\n"
            "0.100000001\n"
            "1.00000001e-07\n");
  EXPECT_EQ(format_classify_request("", {trials.data(), 1}),
            "phd1 classify trials=1\ntrial samples=1\n1 -2.5\n");
}

}  // namespace
}  // namespace pulphd::serve
