#include "serve/protocol.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/status.hpp"
#include "hd/serialization.hpp"

namespace pulphd::serve {
namespace {

[[noreturn]] void fail(std::string_view code, const std::string& message) {
  throw CodedError(std::string(code), message);
}

std::string_view strip_cr(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

/// Pops the next space-separated token off `rest` (empty when exhausted).
std::string_view next_token(std::string_view& rest) {
  const std::size_t start = rest.find_first_not_of(' ');
  if (start == std::string_view::npos) {
    rest = {};
    return {};
  }
  rest.remove_prefix(start);
  const std::size_t end = rest.find(' ');
  const std::string_view token = rest.substr(0, end);
  rest.remove_prefix(end == std::string_view::npos ? rest.size() : end);
  return token;
}

/// Splits a "key=value" token; throws bad-request when the key mismatches.
std::string_view expect_kv(std::string_view token, std::string_view key) {
  const std::size_t eq = token.find('=');
  if (eq == std::string_view::npos || token.substr(0, eq) != key) {
    fail(kErrBadRequest,
         "expected " + std::string(key) + "=..., got \"" + std::string(token) + "\"");
  }
  return token.substr(eq + 1);
}

std::size_t parse_size(std::string_view text, std::string_view what) {
  unsigned long long value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    fail(kErrBadRequest, "malformed " + std::string(what) + " count \"" + std::string(text) + "\"");
  }
  return static_cast<std::size_t>(value);
}

float parse_sample_value(std::string_view text) {
  float value = 0.0f;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    fail(kErrBadRequest, "malformed sample value \"" + std::string(text) + "\"");
  }
  if (!std::isfinite(value)) {
    fail(kErrBadRequest, "non-finite sample value \"" + std::string(text) + "\"");
  }
  return value;
}

void append_float(std::string& out, float value) {
  char buf[32];
  // %.9g round-trips binary32 exactly (9 significant decimal digits).
  std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(value));
  out += buf;
}

// --- phd2 little-endian primitives ----------------------------------------

void put_u8(std::string& out, std::uint8_t v) { out.push_back(static_cast<char>(v)); }

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void put_f32(std::string& out, float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u32(out, bits);
}

/// Sequential reader over one frame payload; every read checks bounds and
/// fails with the given error code, so a truncated body can never read
/// out of the frame.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view payload) : data_(payload) {}

  std::size_t remaining() const noexcept { return data_.size() - pos_; }

  std::uint8_t u8(std::string_view what) {
    need(1, what);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint16_t u16(std::string_view what) {
    need(2, what);
    std::uint16_t v = 0;
    for (int i = 1; i >= 0; --i) {
      v = static_cast<std::uint16_t>((v << 8) | static_cast<std::uint8_t>(data_[pos_ + i]));
    }
    pos_ += 2;
    return v;
  }

  std::uint32_t u32(std::string_view what) {
    need(4, what);
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) {
      v = (v << 8) | static_cast<std::uint8_t>(data_[pos_ + i]);
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t u64(std::string_view what) {
    need(8, what);
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
      v = (v << 8) | static_cast<std::uint8_t>(data_[pos_ + i]);
    }
    pos_ += 8;
    return v;
  }

  /// `count` is 64-bit so a product of wire counts is checked unnarrowed.
  std::string_view bytes(std::uint64_t count, std::string_view what) {
    need(count, what);
    const std::string_view view = data_.substr(pos_, static_cast<std::size_t>(count));
    pos_ += view.size();
    return view;
  }

  void expect_exhausted(std::string_view what) {
    if (remaining() != 0) {
      fail(kErrBadRequest, std::string(what) + " frame has " + std::to_string(remaining()) +
                               " trailing byte(s) past its declared content");
    }
  }

 private:
  void need(std::uint64_t count, std::string_view what) {
    if (remaining() < count) {
      fail(kErrBadRequest,
           "frame truncated inside " + std::string(what) + " (need " + std::to_string(count) +
               " more byte(s), have " + std::to_string(remaining()) + ")");
    }
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

/// BinaryRequestParser compacts its decoded prefix only once it is at least
/// this large and at least half the buffer.
constexpr std::size_t kCompactBytes = std::size_t{64} << 10;

/// Wraps a finished payload in the u32 length prefix.
std::string frame(std::string payload) {
  std::string out;
  out.reserve(4 + payload.size());
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out += payload;
  return out;
}

// A phd2 sample row is row-major little-endian binary32, which is the host
// layout of a float row here, so each row decodes with one memcpy.
static_assert(std::endian::native == std::endian::little,
              "phd2 sample rows are copied verbatim; a big-endian host needs a byte swap");

bool all_finite(std::span<const float> row) {
  // Branch-free so the scan vectorizes: a value is non-finite iff its
  // exponent bits are all ones.
  std::uint32_t non_finite = 0;
  for (const float value : row) {
    const std::uint32_t exponent = std::bit_cast<std::uint32_t>(value) & 0x7f800000u;
    non_finite |= static_cast<std::uint32_t>(exponent == 0x7f800000u);
  }
  return non_finite == 0;
}

/// Decodes one sample body: u32 samples, u16 channels, then samples x
/// channels binary32 values, row-major. The body's whole byte count is
/// checked against the frame (in 64 bits) before anything sized from the
/// two counts is allocated; each row is then sized exactly, copied and
/// scanned. `body` names it in errors ("trial", "stream-push").
hd::Trial decode_sample_body(PayloadReader& reader, std::string_view body) {
  const std::uint32_t samples = reader.u32("sample count");
  const std::uint16_t channels = reader.u16("channel count");
  if (samples == 0) fail(kErrBadRequest, std::string(body) + " needs samples >= 1");
  if (samples > kMaxSamplesPerTrial) {
    fail(kErrTooLarge, "samples=" + std::to_string(samples) +
                           " exceeds the per-trial limit of " +
                           std::to_string(kMaxSamplesPerTrial));
  }
  if (channels == 0) fail(kErrBadRequest, std::string(body) + " needs channels >= 1");
  const std::size_t row_bytes = std::size_t{channels} * sizeof(float);
  const std::string_view data = reader.bytes(std::uint64_t{samples} * row_bytes, "sample data");
  hd::Trial rows;
  rows.reserve(samples);
  for (std::size_t offset = 0; offset < data.size(); offset += row_bytes) {
    hd::Sample& row = rows.emplace_back(channels);
    std::memcpy(row.data(), data.data() + offset, row_bytes);
    if (!all_finite(row)) {
      fail(kErrBadRequest, "non-finite sample value in " + std::string(body));
    }
  }
  return rows;
}

Request decode_classify_payload(PayloadReader& reader) {
  ClassifyRequest request;
  const std::uint8_t name_len = reader.u8("classify model-name length");
  request.model = std::string(reader.bytes(name_len, "classify model name"));
  if (name_len > 0 && !hd::is_valid_model_name(request.model)) {
    fail(kErrBadRequest, "invalid model name \"" + request.model + "\"");
  }
  const std::uint32_t trials = reader.u32("classify trial count");
  if (trials == 0) fail(kErrBadRequest, "classify needs trials >= 1");
  if (trials > kMaxTrialsPerRequest) {
    fail(kErrTooLarge, "trials=" + std::to_string(trials) + " exceeds the per-request limit of " +
                           std::to_string(kMaxTrialsPerRequest));
  }
  // Cap the reserve by what the frame can hold (a trial is at least a
  // 6-byte header and one 4-byte value), so a corrupt count fails in the
  // bounds-checked reads instead of sizing an allocation.
  request.trials.reserve(std::min<std::size_t>(trials, reader.remaining() / 10));
  for (std::uint32_t t = 0; t < trials; ++t) {
    request.trials.push_back(decode_sample_body(reader, "trial"));
  }
  reader.expect_exhausted("classify");
  return Request{std::move(request)};
}

Request decode_reload_payload(PayloadReader& reader) {
  ReloadRequest request;
  const std::uint8_t name_len = reader.u8("reload model-name length");
  request.model = std::string(reader.bytes(name_len, "reload model name"));
  if (name_len > 0 && !hd::is_valid_model_name(request.model)) {
    fail(kErrBadRequest, "invalid model name \"" + request.model + "\"");
  }
  reader.expect_exhausted("reload");
  return Request{std::move(request)};
}

/// Model-independent stream-open shape checks, shared by both wires. The
/// model-dependent window >= ngram check happens at execution time.
void validate_stream_shape(std::size_t window, std::size_t hop) {
  if (window == 0) fail(kErrBadRequest, "stream-open needs window >= 1");
  if (hop == 0) fail(kErrBadRequest, "stream-open needs hop >= 1");
  if (window > kMaxSamplesPerTrial) {
    fail(kErrTooLarge, "window=" + std::to_string(window) + " exceeds the per-trial limit of " +
                           std::to_string(kMaxSamplesPerTrial));
  }
  // Upper bound of the open-window overlap over any model (n >= 1); keeps
  // the per-session counter-slot pool small.
  const std::size_t overlap = (window - 1) / hop + 1;
  if (overlap > kMaxStreamActiveWindows) {
    fail(kErrTooLarge, "window=" + std::to_string(window) + " hop=" + std::to_string(hop) +
                           " overlaps " + std::to_string(overlap) +
                           " windows, limit is " + std::to_string(kMaxStreamActiveWindows));
  }
}

Request decode_stream_open_payload(PayloadReader& reader) {
  StreamOpenRequest request;
  const std::uint8_t name_len = reader.u8("stream-open model-name length");
  request.model = std::string(reader.bytes(name_len, "stream-open model name"));
  if (name_len > 0 && !hd::is_valid_model_name(request.model)) {
    fail(kErrBadRequest, "invalid model name \"" + request.model + "\"");
  }
  request.window = reader.u32("stream-open window");
  request.hop = reader.u32("stream-open hop");
  reader.expect_exhausted("stream-open");
  validate_stream_shape(request.window, request.hop);
  return Request{std::move(request)};
}

Request decode_stream_push_payload(PayloadReader& reader) {
  StreamPushRequest request{decode_sample_body(reader, "stream-push")};
  reader.expect_exhausted("stream-push");
  return Request{std::move(request)};
}

Request decode_request_payload(std::string_view payload) {
  if (payload.empty()) fail(kErrBadRequest, "empty frame (no type byte)");
  PayloadReader reader(payload);
  const std::uint8_t type = reader.u8("frame type");
  switch (type) {
    case kFramePing:
      reader.expect_exhausted("ping");
      return Request{PingRequest{}};
    case kFrameModels:
      reader.expect_exhausted("models");
      return Request{ModelsRequest{}};
    case kFrameQuit:
      reader.expect_exhausted("quit");
      return Request{QuitRequest{}};
    case kFrameClassify:
      return decode_classify_payload(reader);
    case kFrameReload:
      return decode_reload_payload(reader);
    case kFrameStreamOpen:
      return decode_stream_open_payload(reader);
    case kFrameStreamPush:
      return decode_stream_push_payload(reader);
    case kFrameStreamClose:
      reader.expect_exhausted("stream-close");
      return Request{StreamCloseRequest{}};
    default:
      fail(kErrBadRequest,
           "unknown request frame type " + std::to_string(static_cast<unsigned>(type)));
  }
}

}  // namespace

std::optional<Request> RequestParser::consume_line(std::string_view line) {
  line = strip_cr(line);
  const bool was_mid_body = pending_ != nullptr || pending_push_ != nullptr;
  framing_lost_ = false;
  try {
    if (pending_push_ != nullptr) return consume_push_sample_line(line);
    if (pending_ == nullptr) return consume_header(line);
    if (remaining_samples_ == 0) {
      consume_trial_header(line);
      return std::nullopt;
    }
    consume_sample_line(line);
    if (remaining_trials_ == 0) {
      Request done = std::move(*pending_);
      pending_.reset();
      return done;
    }
    return std::nullopt;
  } catch (...) {
    // Reset to idle so one bad request never poisons the next; the caller
    // checks framing_lost() to decide whether the connection survives.
    pending_.reset();
    remaining_trials_ = 0;
    remaining_samples_ = 0;
    pending_push_.reset();
    remaining_push_samples_ = 0;
    if (was_mid_body) framing_lost_ = true;
    throw;
  }
}

std::optional<Request> RequestParser::consume_header(std::string_view line) {
  std::string_view rest = line;
  const std::string_view version = next_token(rest);
  if (version.empty()) return std::nullopt;  // blank lines between requests are ignored
  if (version != kProtocolVersionToken) {
    fail(kErrUnsupportedVersion, "unsupported protocol version \"" + std::string(version) +
                                     "\" (this server speaks " +
                                     std::string(kProtocolVersionToken) + ")");
  }
  const std::string_view command = next_token(rest);
  if (command == "ping" || command == "models" || command == "quit") {
    if (!next_token(rest).empty()) {
      fail(kErrBadRequest, "unexpected trailing fields after \"" + std::string(command) + "\"");
    }
    if (command == "ping") return Request{PingRequest{}};
    if (command == "models") return Request{ModelsRequest{}};
    return Request{QuitRequest{}};
  }
  if (command == "reload") {
    ReloadRequest request;
    std::string_view token = next_token(rest);
    if (!token.empty()) {
      request.model = std::string(expect_kv(token, "model"));
      if (!hd::is_valid_model_name(request.model)) {
        fail(kErrBadRequest, "invalid model name \"" + request.model + "\"");
      }
      if (!next_token(rest).empty()) {
        fail(kErrBadRequest, "unexpected trailing fields after model=");
      }
    }
    return Request{std::move(request)};
  }
  if (command == "stream-open") {
    StreamOpenRequest request;
    std::string_view token = next_token(rest);
    if (token.starts_with("model=")) {
      request.model = std::string(expect_kv(token, "model"));
      if (!hd::is_valid_model_name(request.model)) {
        fail(kErrBadRequest, "invalid model name \"" + request.model + "\"");
      }
      token = next_token(rest);
    }
    request.window = parse_size(expect_kv(token, "window"), "window");
    request.hop = parse_size(expect_kv(next_token(rest), "hop"), "hop");
    if (!next_token(rest).empty()) {
      fail(kErrBadRequest, "unexpected trailing fields after hop=");
    }
    validate_stream_shape(request.window, request.hop);
    return Request{std::move(request)};
  }
  if (command == "stream-close") {
    if (!next_token(rest).empty()) {
      fail(kErrBadRequest, "unexpected trailing fields after \"stream-close\"");
    }
    return Request{StreamCloseRequest{}};
  }
  if (command == "stream-push") {
    // Like classify: once the header announced body lines, any failure
    // below loses framing — the client has already pipelined the samples.
    framing_lost_ = true;
    const std::size_t samples = parse_size(expect_kv(next_token(rest), "samples"), "samples");
    if (!next_token(rest).empty()) {
      fail(kErrBadRequest, "unexpected trailing fields after samples=");
    }
    if (samples == 0) fail(kErrBadRequest, "stream-push needs samples >= 1");
    if (samples > kMaxSamplesPerTrial) {
      fail(kErrTooLarge, "samples=" + std::to_string(samples) +
                             " exceeds the per-trial limit of " +
                             std::to_string(kMaxSamplesPerTrial));
    }
    pending_push_ = std::make_unique<StreamPushRequest>();
    pending_push_->samples.reserve(samples);
    remaining_push_samples_ = samples;
    row_width_ = 0;
    framing_lost_ = false;  // header parsed fully; body lines frame normally
    return std::nullopt;
  }
  if (command != "classify") {
    fail(kErrBadRequest, "unknown command \"" + std::string(command) + "\"");
  }
  // From here any failure loses framing: a pipelining client has already
  // sent the trial lines this header announced.
  framing_lost_ = true;
  auto request = std::make_unique<ClassifyRequest>();
  std::string_view token = next_token(rest);
  if (token.starts_with("model=")) {
    request->model = std::string(expect_kv(token, "model"));
    if (!hd::is_valid_model_name(request->model)) {
      fail(kErrBadRequest, "invalid model name \"" + request->model + "\"");
    }
    token = next_token(rest);
  }
  const std::size_t trials = parse_size(expect_kv(token, "trials"), "trials");
  if (!next_token(rest).empty()) {
    fail(kErrBadRequest, "unexpected trailing fields after trials=");
  }
  if (trials == 0) fail(kErrBadRequest, "classify needs trials >= 1");
  if (trials > kMaxTrialsPerRequest) {
    fail(kErrTooLarge, "trials=" + std::to_string(trials) + " exceeds the per-request limit of " +
                           std::to_string(kMaxTrialsPerRequest));
  }
  request->trials.reserve(trials);
  pending_ = std::move(request);
  remaining_trials_ = trials;
  remaining_samples_ = 0;
  row_width_ = 0;
  framing_lost_ = false;  // header parsed fully; body lines frame normally
  return std::nullopt;
}

void RequestParser::consume_trial_header(std::string_view line) {
  std::string_view rest = line;
  const std::string_view keyword = next_token(rest);
  if (keyword != "trial") {
    fail(kErrBadRequest,
         "expected a \"trial samples=...\" line, got \"" + std::string(line) + "\"");
  }
  const std::size_t samples = parse_size(expect_kv(next_token(rest), "samples"), "samples");
  if (!next_token(rest).empty()) {
    fail(kErrBadRequest, "unexpected trailing fields after samples=");
  }
  if (samples == 0) fail(kErrBadRequest, "a trial needs samples >= 1");
  if (samples > kMaxSamplesPerTrial) {
    fail(kErrTooLarge, "samples=" + std::to_string(samples) +
                           " exceeds the per-trial limit of " +
                           std::to_string(kMaxSamplesPerTrial));
  }
  pending_->trials.emplace_back();
  pending_->trials.back().reserve(samples);
  remaining_samples_ = samples;
}

void RequestParser::consume_sample_line(std::string_view line) {
  hd::Sample sample;
  sample.reserve(row_width_);
  std::string_view rest = line;
  for (std::string_view token = next_token(rest); !token.empty(); token = next_token(rest)) {
    sample.push_back(parse_sample_value(token));
  }
  if (sample.empty()) fail(kErrBadRequest, "empty sample line inside a trial body");
  row_width_ = sample.size();
  pending_->trials.back().push_back(std::move(sample));
  if (--remaining_samples_ == 0) --remaining_trials_;
}

std::optional<Request> RequestParser::consume_push_sample_line(std::string_view line) {
  hd::Sample sample;
  sample.reserve(row_width_);
  std::string_view rest = line;
  for (std::string_view token = next_token(rest); !token.empty(); token = next_token(rest)) {
    sample.push_back(parse_sample_value(token));
  }
  if (sample.empty()) fail(kErrBadRequest, "empty sample line inside a stream-push body");
  row_width_ = sample.size();
  pending_push_->samples.push_back(std::move(sample));
  if (--remaining_push_samples_ > 0) return std::nullopt;
  Request done = std::move(*pending_push_);
  pending_push_.reset();
  return done;
}

std::string format_pong() { return "ok pong\n"; }

std::string format_bye() { return "ok bye\n"; }

std::string format_models_response(std::span<const ModelInfo> models) {
  std::string out = "ok models count=" + std::to_string(models.size()) + "\n";
  for (const ModelInfo& m : models) {
    out += "model name=" + m.name + " dim=" + std::to_string(m.dim) +
           " channels=" + std::to_string(m.channels) + " classes=" + std::to_string(m.classes) +
           " ngram=" + std::to_string(m.ngram) + " default=" + (m.is_default ? "1" : "0") + "\n";
  }
  return out;
}

std::string format_classify_response(const std::string& model,
                                     std::span<const hd::AmDecision> decisions) {
  std::string out =
      "ok classify model=" + model + " results=" + std::to_string(decisions.size()) + "\n";
  for (const hd::AmDecision& d : decisions) {
    out += "result label=" + std::to_string(d.label) + " distance=" + std::to_string(d.distance) +
           " distances=";
    for (std::size_t i = 0; i < d.distances.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(d.distances[i]);
    }
    out += '\n';
  }
  return out;
}

std::string format_reload_response(std::span<const ReloadStatus> statuses) {
  std::string out = "ok reload count=" + std::to_string(statuses.size()) + "\n";
  for (const ReloadStatus& s : statuses) {
    out += "reload model=" + s.name + " ok=" + (s.ok ? "1" : "0");
    if (!s.message.empty()) {
      out += " msg=";
      // Keep the row a single line, like format_error.
      for (const char c : s.message) out += (c == '\n' || c == '\r') ? ' ' : c;
    }
    out += '\n';
  }
  return out;
}

std::string format_stream_opened_response(const std::string& model, std::size_t window,
                                          std::size_t hop) {
  return "ok stream-open model=" + model + " window=" + std::to_string(window) +
         " hop=" + std::to_string(hop) + "\n";
}

std::string format_stream_windows_response(std::uint64_t first_index,
                                           std::span<const hd::AmDecision> decisions) {
  std::string out = "ok stream-push windows=" + std::to_string(decisions.size()) + "\n";
  for (std::size_t w = 0; w < decisions.size(); ++w) {
    const hd::AmDecision& d = decisions[w];
    out += "window index=" + std::to_string(first_index + w) +
           " label=" + std::to_string(d.label) + " distance=" + std::to_string(d.distance) +
           " distances=";
    for (std::size_t i = 0; i < d.distances.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(d.distances[i]);
    }
    out += '\n';
  }
  return out;
}

std::string format_stream_closed_response(std::uint64_t windows) {
  return "ok stream-close windows=" + std::to_string(windows) + "\n";
}

std::string format_error(std::string_view code, std::string_view message) {
  std::string out = "err code=" + std::string(code) + " msg=";
  for (const char c : message) out += (c == '\n' || c == '\r') ? ' ' : c;
  out += '\n';
  return out;
}

std::string format_classify_request(const std::string& model,
                                    std::span<const hd::Trial> trials) {
  std::string out = std::string(kProtocolVersionToken) + " classify";
  if (!model.empty()) out += " model=" + model;
  out += " trials=" + std::to_string(trials.size()) + "\n";
  for (const hd::Trial& trial : trials) {
    out += "trial samples=" + std::to_string(trial.size()) + "\n";
    for (const hd::Sample& sample : trial) {
      for (std::size_t c = 0; c < sample.size(); ++c) {
        if (c > 0) out += ' ';
        append_float(out, sample[c]);
      }
      out += '\n';
    }
  }
  return out;
}

hd::AmDecision parse_result_line(std::string_view line) {
  std::string_view rest = strip_cr(line);
  if (next_token(rest) != "result") {
    fail(kErrBadRequest, "expected a \"result ...\" line, got \"" + std::string(line) + "\"");
  }
  hd::AmDecision decision;
  decision.label = parse_size(expect_kv(next_token(rest), "label"), "label");
  decision.distance = parse_size(expect_kv(next_token(rest), "distance"), "distance");
  std::string_view distances = expect_kv(next_token(rest), "distances");
  while (!distances.empty()) {
    const std::size_t comma = distances.find(',');
    decision.distances.push_back(parse_size(distances.substr(0, comma), "distances"));
    distances.remove_prefix(comma == std::string_view::npos ? distances.size() : comma + 1);
  }
  if (!next_token(rest).empty()) {
    fail(kErrBadRequest, "unexpected trailing fields on a result line");
  }
  return decision;
}

std::pair<std::uint64_t, hd::AmDecision> parse_window_line(std::string_view line) {
  std::string_view rest = strip_cr(line);
  if (next_token(rest) != "window") {
    fail(kErrBadRequest, "expected a \"window ...\" line, got \"" + std::string(line) + "\"");
  }
  const std::uint64_t index = parse_size(expect_kv(next_token(rest), "index"), "index");
  hd::AmDecision decision;
  decision.label = parse_size(expect_kv(next_token(rest), "label"), "label");
  decision.distance = parse_size(expect_kv(next_token(rest), "distance"), "distance");
  std::string_view distances = expect_kv(next_token(rest), "distances");
  while (!distances.empty()) {
    const std::size_t comma = distances.find(',');
    decision.distances.push_back(parse_size(distances.substr(0, comma), "distances"));
    distances.remove_prefix(comma == std::string_view::npos ? distances.size() : comma + 1);
  }
  if (!next_token(rest).empty()) {
    fail(kErrBadRequest, "unexpected trailing fields on a window line");
  }
  return {index, std::move(decision)};
}

// --- phd2 binary framing ---------------------------------------------------

void BinaryRequestParser::feed(std::string_view bytes) {
  // Reclaim the decoded prefix: all of it once drained, otherwise only when
  // it is large and at least half the buffer, so a stream of small frames
  // costs amortized O(1) per byte instead of one front erase per frame.
  if (offset_ == buffer_.size()) {
    buffer_.clear();
    offset_ = 0;
  } else if (offset_ >= kCompactBytes && offset_ >= buffer_.size() / 2) {
    buffer_.erase(0, offset_);
    offset_ = 0;
  }
  buffer_.append(bytes.data(), bytes.size());
}

std::optional<Request> BinaryRequestParser::next() {
  const std::string_view pending = std::string_view(buffer_).substr(offset_);
  if (pending.size() < 4) return std::nullopt;
  PayloadReader prefix(pending);
  const std::uint32_t length = prefix.u32("frame length");
  if (length > max_frame_bytes_) {
    // The length prefix itself is the framing: once it exceeds the limit
    // the stream can no longer be delimited, so the connection must go.
    framing_lost_ = true;
    const std::string message = "frame declares " + std::to_string(length) +
                                " payload bytes, limit is " + std::to_string(max_frame_bytes_);
    buffer_.clear();
    offset_ = 0;
    fail(kErrTooLarge, message);
  }
  if (pending.size() - 4 < length) return std::nullopt;
  offset_ += 4 + std::size_t{length};
  framing_lost_ = false;
  // Any decode failure below happened inside a fully delimited frame: the
  // frame is already consumed, so the connection stays frameable. The
  // payload view stays valid because nothing touches buffer_ until the
  // next feed().
  return decode_request_payload(pending.substr(4, length));
}

std::string ResponseEncoder::pong() const {
  if (wire_ == Wire::kText) return format_pong();
  std::string payload;
  put_u8(payload, kFramePong);
  return frame(std::move(payload));
}

std::string ResponseEncoder::bye() const {
  if (wire_ == Wire::kText) return format_bye();
  std::string payload;
  put_u8(payload, kFrameBye);
  return frame(std::move(payload));
}

std::string ResponseEncoder::models(std::span<const ModelInfo> models) const {
  if (wire_ == Wire::kText) return format_models_response(models);
  std::string payload;
  put_u8(payload, kFrameModelList);
  put_u32(payload, static_cast<std::uint32_t>(models.size()));
  for (const ModelInfo& m : models) {
    put_u8(payload, static_cast<std::uint8_t>(m.name.size()));
    payload += m.name;
    put_u32(payload, static_cast<std::uint32_t>(m.dim));
    put_u32(payload, static_cast<std::uint32_t>(m.channels));
    put_u32(payload, static_cast<std::uint32_t>(m.classes));
    put_u32(payload, static_cast<std::uint32_t>(m.ngram));
    put_u8(payload, m.is_default ? 1 : 0);
  }
  return frame(std::move(payload));
}

std::string ResponseEncoder::classify(const std::string& model,
                                      std::span<const hd::AmDecision> decisions) const {
  if (wire_ == Wire::kText) return format_classify_response(model, decisions);
  std::string payload;
  put_u8(payload, kFrameResults);
  put_u8(payload, static_cast<std::uint8_t>(model.size()));
  payload += model;
  put_u32(payload, static_cast<std::uint32_t>(decisions.size()));
  for (const hd::AmDecision& d : decisions) {
    put_u32(payload, static_cast<std::uint32_t>(d.label));
    put_u32(payload, static_cast<std::uint32_t>(d.distance));
    put_u32(payload, static_cast<std::uint32_t>(d.distances.size()));
    for (const std::size_t distance : d.distances) {
      put_u32(payload, static_cast<std::uint32_t>(distance));
    }
  }
  return frame(std::move(payload));
}

std::string ResponseEncoder::reload(std::span<const ReloadStatus> statuses) const {
  if (wire_ == Wire::kText) return format_reload_response(statuses);
  std::string payload;
  put_u8(payload, kFrameReloadResult);
  put_u32(payload, static_cast<std::uint32_t>(statuses.size()));
  for (const ReloadStatus& s : statuses) {
    put_u8(payload, static_cast<std::uint8_t>(s.name.size()));
    payload += s.name;
    put_u8(payload, s.ok ? 1 : 0);
    const std::size_t msg_len =
        std::min<std::size_t>(s.message.size(), std::numeric_limits<std::uint16_t>::max());
    put_u16(payload, static_cast<std::uint16_t>(msg_len));
    payload.append(s.message.data(), msg_len);
  }
  return frame(std::move(payload));
}

std::string ResponseEncoder::stream_opened(const std::string& model, std::size_t window,
                                           std::size_t hop) const {
  if (wire_ == Wire::kText) return format_stream_opened_response(model, window, hop);
  std::string payload;
  put_u8(payload, kFrameStreamOpened);
  put_u8(payload, static_cast<std::uint8_t>(model.size()));
  payload += model;
  put_u32(payload, static_cast<std::uint32_t>(window));
  put_u32(payload, static_cast<std::uint32_t>(hop));
  return frame(std::move(payload));
}

std::string ResponseEncoder::stream_windows(std::uint64_t first_index,
                                            std::span<const hd::AmDecision> decisions) const {
  if (wire_ == Wire::kText) return format_stream_windows_response(first_index, decisions);
  std::string payload;
  put_u8(payload, kFrameStreamWindows);
  put_u64(payload, first_index);
  put_u32(payload, static_cast<std::uint32_t>(decisions.size()));
  for (const hd::AmDecision& d : decisions) {
    put_u32(payload, static_cast<std::uint32_t>(d.label));
    put_u32(payload, static_cast<std::uint32_t>(d.distance));
    put_u32(payload, static_cast<std::uint32_t>(d.distances.size()));
    for (const std::size_t distance : d.distances) {
      put_u32(payload, static_cast<std::uint32_t>(distance));
    }
  }
  return frame(std::move(payload));
}

std::string ResponseEncoder::stream_closed(std::uint64_t windows) const {
  if (wire_ == Wire::kText) return format_stream_closed_response(windows);
  std::string payload;
  put_u8(payload, kFrameStreamClosed);
  put_u64(payload, windows);
  return frame(std::move(payload));
}

std::string ResponseEncoder::error(std::string_view code, std::string_view message,
                                   bool fatal) const {
  if (wire_ == Wire::kText) return format_error(code, message);
  std::string payload;
  put_u8(payload, kFrameError);
  put_u8(payload, static_cast<std::uint8_t>(code.size()));
  payload += code;
  const std::size_t msg_len =
      std::min<std::size_t>(message.size(), std::numeric_limits<std::uint16_t>::max());
  put_u16(payload, static_cast<std::uint16_t>(msg_len));
  payload.append(message.data(), msg_len);
  put_u8(payload, fatal ? 1 : 0);
  return frame(std::move(payload));
}

std::string format_binary_command(std::uint8_t type) {
  std::string payload;
  put_u8(payload, type);
  return frame(std::move(payload));
}

std::string format_binary_reload_request(const std::string& model) {
  std::string payload;
  put_u8(payload, kFrameReload);
  put_u8(payload, static_cast<std::uint8_t>(model.size()));
  payload += model;
  return frame(std::move(payload));
}

std::string format_binary_classify_request(const std::string& model,
                                           std::span<const hd::Trial> trials) {
  std::string payload;
  put_u8(payload, kFrameClassify);
  put_u8(payload, static_cast<std::uint8_t>(model.size()));
  payload += model;
  put_u32(payload, static_cast<std::uint32_t>(trials.size()));
  for (const hd::Trial& trial : trials) {
    put_u32(payload, static_cast<std::uint32_t>(trial.size()));
    const std::size_t channels = trial.empty() ? 0 : trial.front().size();
    put_u16(payload, static_cast<std::uint16_t>(channels));
    for (const hd::Sample& sample : trial) {
      for (const float value : sample) put_f32(payload, value);
    }
  }
  return frame(std::move(payload));
}

std::string format_binary_stream_open_request(const std::string& model, std::uint32_t window,
                                              std::uint32_t hop) {
  std::string payload;
  put_u8(payload, kFrameStreamOpen);
  put_u8(payload, static_cast<std::uint8_t>(model.size()));
  payload += model;
  put_u32(payload, window);
  put_u32(payload, hop);
  return frame(std::move(payload));
}

std::string format_binary_stream_push_request(std::span<const hd::Sample> samples) {
  std::string payload;
  put_u8(payload, kFrameStreamPush);
  put_u32(payload, static_cast<std::uint32_t>(samples.size()));
  const std::size_t channels = samples.empty() ? 0 : samples.front().size();
  put_u16(payload, static_cast<std::uint16_t>(channels));
  for (const hd::Sample& sample : samples) {
    for (const float value : sample) put_f32(payload, value);
  }
  return frame(std::move(payload));
}

std::optional<BinaryResponse> BinaryResponseParser::next() {
  if (buffer_.size() < 4) return std::nullopt;
  PayloadReader prefix(buffer_);
  const std::uint32_t length = prefix.u32("frame length");
  if (length > kMaxFrameBytes) fail(kErrBadRequest, "response frame over the frame limit");
  if (buffer_.size() < 4u + length) return std::nullopt;
  const std::string payload = buffer_.substr(4, length);
  buffer_.erase(0, 4u + length);

  PayloadReader reader(payload);
  BinaryResponse response;
  response.type = reader.u8("response type");
  switch (response.type) {
    case kFramePong:
    case kFrameBye:
      break;
    case kFrameModelList: {
      const std::uint32_t count = reader.u32("model count");
      for (std::uint32_t i = 0; i < count; ++i) {
        ModelInfo info;
        info.name = std::string(reader.bytes(reader.u8("model name length"), "model name"));
        info.dim = reader.u32("model dim");
        info.channels = reader.u32("model channels");
        info.classes = reader.u32("model classes");
        info.ngram = reader.u32("model ngram");
        info.is_default = reader.u8("model default flag") != 0;
        response.models.push_back(std::move(info));
      }
      break;
    }
    case kFrameResults: {
      response.model =
          std::string(reader.bytes(reader.u8("result model-name length"), "result model name"));
      const std::uint32_t results = reader.u32("result count");
      for (std::uint32_t i = 0; i < results; ++i) {
        hd::AmDecision decision;
        decision.label = reader.u32("result label");
        decision.distance = reader.u32("result distance");
        const std::uint32_t classes = reader.u32("result class count");
        // The count came off the wire: cap the reserve by what the frame
        // can actually hold (4 bytes per distance), so a corrupt count
        // fails in the bounds-checked read below instead of attempting a
        // multi-gigabyte allocation here.
        decision.distances.reserve(std::min<std::size_t>(classes, reader.remaining() / 4));
        for (std::uint32_t c = 0; c < classes; ++c) {
          decision.distances.push_back(reader.u32("result distances"));
        }
        response.decisions.push_back(std::move(decision));
      }
      break;
    }
    case kFrameReloadResult: {
      const std::uint32_t count = reader.u32("reload count");
      for (std::uint32_t i = 0; i < count; ++i) {
        ReloadStatus status;
        status.name =
            std::string(reader.bytes(reader.u8("reload model-name length"), "reload model name"));
        status.ok = reader.u8("reload ok flag") != 0;
        status.message =
            std::string(reader.bytes(reader.u16("reload message length"), "reload message"));
        response.reloads.push_back(std::move(status));
      }
      break;
    }
    case kFrameStreamOpened: {
      response.model = std::string(
          reader.bytes(reader.u8("stream-open model-name length"), "stream-open model name"));
      response.window = reader.u32("stream-open window");
      response.hop = reader.u32("stream-open hop");
      break;
    }
    case kFrameStreamWindows: {
      response.first_window = reader.u64("stream window index");
      const std::uint32_t windows = reader.u32("stream window count");
      for (std::uint32_t i = 0; i < windows; ++i) {
        hd::AmDecision decision;
        decision.label = reader.u32("window label");
        decision.distance = reader.u32("window distance");
        const std::uint32_t classes = reader.u32("window class count");
        // Same wire-count reserve cap as kFrameResults: a corrupt count
        // must fail in the bounds-checked read, not in a huge reserve.
        decision.distances.reserve(std::min<std::size_t>(classes, reader.remaining() / 4));
        for (std::uint32_t c = 0; c < classes; ++c) {
          decision.distances.push_back(reader.u32("window distances"));
        }
        response.decisions.push_back(std::move(decision));
      }
      break;
    }
    case kFrameStreamClosed: {
      response.windows_total = reader.u64("stream-close window count");
      break;
    }
    case kFrameError: {
      response.error_code =
          std::string(reader.bytes(reader.u8("error code length"), "error code"));
      response.error_message =
          std::string(reader.bytes(reader.u16("error message length"), "error message"));
      response.fatal = reader.u8("error fatal flag") != 0;
      break;
    }
    default:
      fail(kErrBadRequest,
           "unknown response frame type " + std::to_string(static_cast<unsigned>(response.type)));
  }
  reader.expect_exhausted("response");
  return response;
}

// --- Connection session: negotiation + unified framing ---------------------

ConnectionSession::ConnectionSession() : ConnectionSession(Limits{}) {}

ConnectionSession::ConnectionSession(Limits limits)
    : limits_(limits), binary_(limits.max_frame_bytes) {}

bool ConnectionSession::mid_request() const noexcept {
  switch (mode_) {
    case Mode::kNegotiating:
      return !line_buffer_.empty();
    case Mode::kText:
      return !line_buffer_.empty() || !text_.idle();
    case Mode::kBinary:
      return !binary_.idle();
    case Mode::kDead:
      return false;
  }
  return false;
}

std::vector<WireEvent> ConnectionSession::consume(std::string_view bytes) {
  std::vector<WireEvent> events;
  if (mode_ == Mode::kDead) return events;
  if (mode_ == Mode::kNegotiating) {
    line_buffer_.append(bytes.data(), bytes.size());
    const std::size_t probe = std::min(line_buffer_.size(), kBinaryMagic.size());
    if (std::string_view(line_buffer_).substr(0, probe) != kBinaryMagic.substr(0, probe)) {
      // Not (a prefix of) the magic: a text connection. No valid phd1 line
      // starts with 'P', so this cannot misfire on real text traffic.
      mode_ = Mode::kText;
      const std::string pending = std::move(line_buffer_);
      line_buffer_.clear();
      consume_text(pending, events);
    } else if (line_buffer_.size() >= kBinaryMagic.size()) {
      mode_ = Mode::kBinary;
      const std::string pending = line_buffer_.substr(kBinaryMagic.size());
      line_buffer_.clear();
      consume_binary(pending, events);
    }
    // else: a strict prefix of the magic — wait for more bytes.
    return events;
  }
  if (mode_ == Mode::kText) {
    consume_text(bytes, events);
  } else {
    consume_binary(bytes, events);
  }
  return events;
}

void ConnectionSession::consume_text(std::string_view bytes, std::vector<WireEvent>& events) {
  line_buffer_.append(bytes.data(), bytes.size());
  std::size_t start = 0;
  while (mode_ == Mode::kText) {
    const std::size_t newline = line_buffer_.find('\n', start);
    if (newline == std::string::npos) {
      line_buffer_.erase(0, start);
      if (line_buffer_.size() > limits_.max_line_bytes) {
        // An unterminated line already over the limit: framing is lost.
        mode_ = Mode::kDead;
        events.push_back({std::nullopt,
                          format_error(kErrTooLarge, "line exceeds " +
                                                         std::to_string(limits_.max_line_bytes) +
                                                         " bytes"),
                          true});
      }
      return;
    }
    if (newline - start > limits_.max_line_bytes) {
      mode_ = Mode::kDead;
      events.push_back({std::nullopt,
                        format_error(kErrTooLarge, "line exceeds " +
                                                       std::to_string(limits_.max_line_bytes) +
                                                       " bytes"),
                        true});
      return;
    }
    const std::string_view line(line_buffer_.data() + start, newline - start);
    try {
      if (auto request = text_.consume_line(line)) {
        events.push_back({std::move(request), {}, false});
      }
    } catch (const CodedError& e) {
      const bool drop = text_.framing_lost();
      if (drop) mode_ = Mode::kDead;
      events.push_back({std::nullopt, format_error(e.code(), e.what()), drop});
      if (drop) return;
    }
    start = newline + 1;
  }
  line_buffer_.erase(0, start);
}

void ConnectionSession::consume_binary(std::string_view bytes, std::vector<WireEvent>& events) {
  binary_.feed(bytes);
  while (true) {
    try {
      auto request = binary_.next();
      if (!request.has_value()) return;
      events.push_back({std::move(request), {}, false});
    } catch (const CodedError& e) {
      const bool drop = binary_.framing_lost();
      if (drop) mode_ = Mode::kDead;
      events.push_back(
          {std::nullopt, ResponseEncoder(Wire::kBinary).error(e.code(), e.what(), drop), drop});
      if (drop) return;
    }
  }
}

}  // namespace pulphd::serve
