#include "serve/protocol.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/status.hpp"
#include "hd/encoder.hpp"
#include "hd/serialization.hpp"

namespace pulphd::serve {
namespace {

[[noreturn]] void fail(std::string_view code, const std::string& message) {
  throw CodedError(std::string(code), message);
}

/// The `trials`/`samples`/`window` count rule of both wires: at least 1, and
/// at most `limit` (too-large past it).
std::size_t checked_count(std::uint64_t count, std::string_view key, std::size_t limit) {
  if (count == 0) fail(kErrBadRequest, std::string(key) + " must be >= 1");
  if (count > limit) {
    fail(kErrTooLarge, std::string(key) + "=" + std::to_string(count) + " exceeds the limit of " +
                           std::to_string(limit));
  }
  return static_cast<std::size_t>(count);
}

/// A routed model name off either wire ("" = the registry default is
/// handled by the caller).
std::string valid_model_name(std::string_view name) {
  std::string model(name);
  if (!hd::is_valid_model_name(model)) fail(kErrBadRequest, "invalid model name \"" + model + "\"");
  return model;
}

/// Model-independent stream-open shape checks, shared by both wires. The
/// model-dependent window >= ngram check happens at execution time.
void validate_stream_shape(std::size_t window, std::size_t hop) {
  if (window == 0 || hop == 0) fail(kErrBadRequest, "stream-open needs window >= 1 and hop >= 1");
  checked_count(window, "window", kMaxSamplesPerTrial);
  // Upper bound of the open-window overlap over any model (n >= 1); keeps
  // the per-session hop-block ring small.
  const std::size_t overlap = hd::StreamingEncoder::active_windows(window, hop, 1);
  if (overlap > kMaxStreamActiveWindows) {
    fail(kErrTooLarge, "window=" + std::to_string(window) + " hop=" + std::to_string(hop) +
                           " overlaps " + std::to_string(overlap) +
                           " windows, limit is " + std::to_string(kMaxStreamActiveWindows));
  }
}

// --- phd1 text fields -------------------------------------------------------

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

/// Throws bad-request unless `rest` is exhausted; `after` names the last
/// field read.
void expect_end(std::string_view rest, std::string_view after) {
  if (!next_token(rest).empty()) {
    fail(kErrBadRequest, "unexpected trailing fields after " + std::string(after));
  }
}

/// Pops a line's leading keyword; throws bad-request unless it is `keyword`.
std::string_view after_keyword(std::string_view line, std::string_view keyword) {
  std::string_view rest = strip_cr(line);
  if (next_token(rest) != keyword) {
    fail(kErrBadRequest, "expected a \"" + std::string(keyword) + " ...\" line, got \"" +
                             std::string(line) + "\"");
  }
  return rest;
}

std::size_t parse_size(std::string_view text, std::string_view what) {
  unsigned long long value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    fail(kErrBadRequest, "malformed " + std::string(what) + " count \"" + std::string(text) + "\"");
  }
  return static_cast<std::size_t>(value);
}

/// The "key=N" count that ends a header line: nothing may follow it, and N
/// obeys checked_count.
std::size_t final_count(std::string_view& rest, std::string_view key, std::size_t limit) {
  const std::size_t count = parse_size(expect_kv(next_token(rest), key), key);
  expect_end(rest, key);
  return checked_count(count, key, limit);
}

/// Pops the optional "model=NAME" field off the front of `rest`; "" when
/// the next token is something else.
std::string model_field(std::string_view& rest) {
  std::string_view after = rest;
  const std::string_view token = next_token(after);
  if (!token.starts_with("model=")) return {};
  rest = after;
  return valid_model_name(expect_kv(token, "model"));
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

/// Appends one sample line: the values with "%.9g", which round-trips
/// binary32 exactly (9 significant decimal digits).
void append_sample_line(std::string& out, const hd::Sample& sample) {
  for (std::size_t c = 0; c < sample.size(); ++c) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), c == 0 ? "%.9g" : " %.9g", static_cast<double>(sample[c]));
    out += buf;
  }
  out += '\n';
}

/// Appends `value` in decimal without a temporary string.
void append_number(std::string& out, std::uint64_t value) {
  char digits[20];
  const std::to_chars_result end = std::to_chars(digits, digits + sizeof(digits), value);
  out.append(digits, end.ptr);
}

/// Appends a decision row's fields after its keyword:
/// "label=L distance=D distances=d0,d1,...\n".
void append_decision(std::string& out, const hd::AmDecision& d) {
  out += "label=";
  append_number(out, d.label);
  out += " distance=";
  append_number(out, d.distance);
  out += " distances=";
  for (std::size_t i = 0; i < d.distances.size(); ++i) {
    if (i > 0) out += ',';
    append_number(out, d.distances[i]);
  }
  out += '\n';
}

/// Parses what append_decision wrote; nothing may follow it.
hd::AmDecision parse_decision(std::string_view rest) {
  hd::AmDecision decision;
  decision.label = parse_size(expect_kv(next_token(rest), "label"), "label");
  decision.distance = parse_size(expect_kv(next_token(rest), "distance"), "distance");
  std::string_view distances = expect_kv(next_token(rest), "distances");
  while (!distances.empty()) {
    const std::size_t comma = distances.find(',');
    decision.distances.push_back(parse_size(distances.substr(0, comma), "distances"));
    distances.remove_prefix(comma == std::string_view::npos ? distances.size() : comma + 1);
  }
  expect_end(rest, "distances=");
  return decision;
}

/// Appends `text` with CR and LF turned into spaces, so it stays one line.
void append_one_line(std::string& out, std::string_view text) {
  for (const char c : text) out += (c == '\n' || c == '\r') ? ' ' : c;
}

// --- phd2 binary fields -----------------------------------------------------

// phd2 is little-endian, the host order here, so every field and every
// sample row is copied verbatim.
static_assert(std::endian::native == std::endian::little,
              "phd2 fields are copied verbatim; a big-endian host needs a byte swap");

/// Appends `value` as a little-endian field of sizeof(T) bytes.
template <typename T>
void put(std::string& out, T value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.append(bytes, sizeof(T));
}

/// A u8-length string: model names and error codes, which are short.
void put_str8(std::string& out, std::string_view text) {
  put<std::uint8_t>(out, text.size());
  out += text;
}

/// A u16-length string, clipped to its first 65535 bytes.
void put_str16(std::string& out, std::string_view text) {
  text = text.substr(0, std::numeric_limits<std::uint16_t>::max());
  put<std::uint16_t>(out, text.size());
  out += text;
}

/// Starts a frame at the end of `out`: room for the u32 length prefix,
/// then the type byte. Returns where the frame starts.
std::size_t open_frame(std::string& out, std::uint8_t type) {
  const std::size_t start = out.size();
  out.append(4, '\0');
  out.push_back(static_cast<char>(type));
  return start;
}

/// Fills in the length prefix of the frame open_frame began at `start`.
void close_frame(std::string& out, std::size_t start) {
  const auto length = static_cast<std::uint32_t>(out.size() - start - 4);
  std::memcpy(out.data() + start, &length, sizeof(length));
}

/// A whole frame of `type` built by `body(out)`, in a new string.
template <typename Body>
std::string frame(std::uint8_t type, Body&& body) {
  std::string out;
  open_frame(out, type);
  body(out);
  close_frame(out, 0);
  return out;
}

/// A sample body: u32 samples, u16 channels (the first row's), then the
/// rows' binary32 values, row-major.
void put_sample_body(std::string& out, std::span<const hd::Sample> samples) {
  put<std::uint32_t>(out, samples.size());
  put<std::uint16_t>(out, samples.empty() ? 0 : samples[0].size());
  for (const hd::Sample& sample : samples) {
    out.append(reinterpret_cast<const char*>(sample.data()), sample.size() * sizeof(float));
  }
}

/// label:u32 distance:u32 n:u32 n*distance:u32.
void put_decision(std::string& out, const hd::AmDecision& d) {
  put<std::uint32_t>(out, d.label);
  put<std::uint32_t>(out, d.distance);
  put<std::uint32_t>(out, d.distances.size());
  for (const std::size_t distance : d.distances) put<std::uint32_t>(out, distance);
}

/// Sequential reader over one frame payload; every read checks bounds and
/// fails with bad-request, so a truncated body can never read out of the
/// frame.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view payload) : data_(payload) {}

  std::size_t remaining() const noexcept { return data_.size() - pos_; }

  /// A little-endian field of sizeof(T) bytes.
  template <typename T>
  T get(std::string_view what) {
    T value{};
    std::memcpy(&value, bytes(sizeof(T), what).data(), sizeof(T));
    return value;
  }

  /// `count` is 64-bit so a product of wire counts is checked unnarrowed.
  std::string_view bytes(std::uint64_t count, std::string_view what) {
    if (remaining() < count) {
      fail(kErrBadRequest,
           "frame truncated inside " + std::string(what) + " (need " + std::to_string(count) +
               " more byte(s), have " + std::to_string(remaining()) + ")");
    }
    const std::string_view view = data_.substr(pos_, static_cast<std::size_t>(count));
    pos_ += view.size();
    return view;
  }

  std::string str8(std::string_view what) {
    return std::string(bytes(get<std::uint8_t>(what), what));
  }

  std::string str16(std::string_view what) {
    return std::string(bytes(get<std::uint16_t>(what), what));
  }

  void expect_exhausted(std::string_view what) {
    if (remaining() != 0) {
      fail(kErrBadRequest, std::string(what) + " frame has " + std::to_string(remaining()) +
                               " trailing byte(s) past its declared content");
    }
  }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

/// The binary model-name field: a u8-length name, "" for the default.
std::string model_field(PayloadReader& reader) {
  const std::string model = reader.str8("model name");
  return model.empty() ? model : valid_model_name(model);
}

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

/// Decodes what put_sample_body wrote, into storage drawn from `pool`. The
/// body's whole byte count is checked against the frame (in 64 bits)
/// before anything sized from the two counts is allocated; each row is
/// then sized, copied and scanned.
hd::Trial decode_sample_body(PayloadReader& reader, SamplePool& pool) {
  const auto samples = reader.get<std::uint32_t>("sample count");
  const auto channels = reader.get<std::uint16_t>("channel count");
  checked_count(samples, "samples", kMaxSamplesPerTrial);
  if (channels == 0) fail(kErrBadRequest, "a sample body needs channels >= 1");
  const std::size_t row_bytes = std::size_t{channels} * sizeof(float);
  const std::string_view data = reader.bytes(std::uint64_t{samples} * row_bytes, "sample data");
  hd::Trial rows = pool.trial();
  rows.reserve(samples);
  for (std::size_t offset = 0; offset < data.size(); offset += row_bytes) {
    hd::Sample& row = rows.emplace_back(pool.row());
    row.resize(channels);
    std::memcpy(row.data(), data.data() + offset, row_bytes);
    if (!all_finite(row)) fail(kErrBadRequest, "non-finite sample value in a sample body");
  }
  return rows;
}

std::vector<hd::AmDecision> get_decisions(PayloadReader& reader) {
  std::vector<hd::AmDecision> decisions;
  for (auto count = reader.get<std::uint32_t>("decision count"); count > 0; --count) {
    hd::AmDecision& decision = decisions.emplace_back();
    decision.label = reader.get<std::uint32_t>("decision label");
    decision.distance = reader.get<std::uint32_t>("decision distance");
    const auto classes = reader.get<std::uint32_t>("decision class count");
    // The count came off the wire: cap the reserve by what the frame can
    // actually hold (4 bytes per distance), so a corrupt count fails in the
    // bounds-checked read below instead of attempting a multi-gigabyte
    // allocation here.
    decision.distances.reserve(std::min<std::size_t>(classes, reader.remaining() / 4));
    for (std::uint32_t c = 0; c < classes; ++c) {
      decision.distances.push_back(reader.get<std::uint32_t>("decision distances"));
    }
  }
  return decisions;
}

Request decode_request_payload(std::string_view payload, SamplePool& pool) {
  if (payload.empty()) fail(kErrBadRequest, "empty frame (no type byte)");
  PayloadReader reader(payload);
  const auto type = reader.get<std::uint8_t>("frame type");
  switch (type) {
    case kFramePing:
      reader.expect_exhausted("ping");
      return PingRequest{};
    case kFrameModels:
      reader.expect_exhausted("models");
      return ModelsRequest{};
    case kFrameQuit:
      reader.expect_exhausted("quit");
      return QuitRequest{};
    case kFrameClassify: {
      ClassifyRequest request{model_field(reader), pool.trial_list()};
      const std::size_t trials = checked_count(reader.get<std::uint32_t>("trial count"), "trials",
                                               kMaxTrialsPerRequest);
      // Cap the reserve by what the frame can hold (a trial is at least a
      // 6-byte header and one 4-byte value), so a corrupt count fails in
      // the bounds-checked reads instead of sizing an allocation.
      request.trials.reserve(std::min(trials, reader.remaining() / 10));
      for (std::size_t t = 0; t < trials; ++t) {
        request.trials.push_back(decode_sample_body(reader, pool));
      }
      reader.expect_exhausted("classify");
      return request;
    }
    case kFrameReload: {
      ReloadRequest request{model_field(reader)};
      reader.expect_exhausted("reload");
      return request;
    }
    case kFrameStreamOpen: {
      StreamOpenRequest request{model_field(reader)};
      request.window = reader.get<std::uint32_t>("stream-open window");
      request.hop = reader.get<std::uint32_t>("stream-open hop");
      reader.expect_exhausted("stream-open");
      validate_stream_shape(request.window, request.hop);
      return request;
    }
    case kFrameStreamPush: {
      StreamPushRequest request{decode_sample_body(reader, pool)};
      reader.expect_exhausted("stream-push");
      return request;
    }
    case kFrameStreamClose:
      reader.expect_exhausted("stream-close");
      return StreamCloseRequest{};
    default:
      fail(kErrBadRequest,
           "unknown request frame type " + std::to_string(static_cast<unsigned>(type)));
  }
}

}  // namespace

// --- phd1 request parsing ---------------------------------------------------

std::optional<Request> RequestParser::consume_line(std::string_view line) {
  line = strip_cr(line);
  const bool was_mid_body = pending_.has_value();
  framing_lost_ = false;
  try {
    if (!pending_) return consume_header(line);
    if (remaining_samples_ == 0) {
      std::string_view rest = after_keyword(line, "trial");
      begin_trial(final_count(rest, "samples", kMaxSamplesPerTrial));
      return std::nullopt;
    }
    consume_sample_line(line);
    if (--remaining_samples_ > 0 || --remaining_trials_ > 0) return std::nullopt;
    Request done = stream_push_ ? Request{StreamPushRequest{std::move(pending_->trials[0])}}
                                : Request{std::move(*pending_)};
    // A stream-push leaves its one-trial list behind; the pool keeps it.
    pool_.keep(std::move(pending_->trials));
    pending_.reset();
    return done;
  } catch (...) {
    // Reset to idle so one bad request never poisons the next; the caller
    // checks framing_lost() to decide whether the connection survives.
    pending_.reset();
    remaining_trials_ = 0;
    remaining_samples_ = 0;
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
  if (command == "ping" || command == "models" || command == "quit" ||
      command == "stream-close") {
    expect_end(rest, command);
    if (command == "ping") return PingRequest{};
    if (command == "models") return ModelsRequest{};
    if (command == "quit") return QuitRequest{};
    return StreamCloseRequest{};
  }
  if (command == "reload") {
    ReloadRequest request{model_field(rest)};
    expect_end(rest, command);
    return request;
  }
  if (command == "stream-open") {
    StreamOpenRequest request{model_field(rest)};
    request.window = parse_size(expect_kv(next_token(rest), "window"), "window");
    request.hop = parse_size(expect_kv(next_token(rest), "hop"), "hop");
    expect_end(rest, "hop=");
    validate_stream_shape(request.window, request.hop);
    return request;
  }
  stream_push_ = command == "stream-push";
  if (!stream_push_ && command != "classify") {
    fail(kErrBadRequest, "unknown command \"" + std::string(command) + "\"");
  }
  // From here any failure loses framing: a pipelining client has already
  // sent the body lines this header announced. A stream-push body reads as
  // a classify body of one trial whose header is the request's.
  framing_lost_ = true;
  pending_.emplace().trials = pool_.trial_list();
  row_width_ = 0;
  if (stream_push_) {
    remaining_trials_ = 1;
    begin_trial(final_count(rest, "samples", kMaxSamplesPerTrial));
  } else {
    pending_->model = model_field(rest);
    remaining_trials_ = final_count(rest, "trials", kMaxTrialsPerRequest);
    pending_->trials.reserve(remaining_trials_);
  }
  framing_lost_ = false;  // header parsed fully; body lines frame normally
  return std::nullopt;
}

void RequestParser::begin_trial(std::size_t samples) {
  pending_->trials.push_back(pool_.trial());
  pending_->trials.back().reserve(samples);
  remaining_samples_ = samples;
}

void RequestParser::consume_sample_line(std::string_view line) {
  hd::Sample sample = pool_.row();
  sample.reserve(row_width_);
  std::string_view rest = line;
  for (std::string_view token = next_token(rest); !token.empty(); token = next_token(rest)) {
    sample.push_back(parse_sample_value(token));
  }
  if (sample.empty()) fail(kErrBadRequest, "empty sample line inside a request body");
  row_width_ = sample.size();
  pending_->trials.back().push_back(std::move(sample));
}

// --- sample storage handed back by answered requests -----------------------

void SamplePool::recycle(Request&& request) {
  if (auto* classify = std::get_if<ClassifyRequest>(&request)) {
    keep(std::move(classify->trials));
  } else if (auto* push = std::get_if<StreamPushRequest>(&request)) {
    keep(std::move(push->samples));
  }
}

void SamplePool::keep(std::vector<hd::Trial>&& trials) {
  for (hd::Trial& trial : trials) keep(std::move(trial));
  put(lists_, std::move(trials));
}

void SamplePool::keep(hd::Trial&& trial) {
  for (hd::Sample& row : trial) put(rows_, std::move(row));
  put(trials_, std::move(trial));
}

// --- phd1 client side -------------------------------------------------------

std::string format_classify_request(const std::string& model,
                                    std::span<const hd::Trial> trials) {
  std::string out = std::string(kProtocolVersionToken) + " classify";
  if (!model.empty()) out += " model=" + model;
  out += " trials=" + std::to_string(trials.size()) + "\n";
  for (const hd::Trial& trial : trials) {
    out += "trial samples=" + std::to_string(trial.size()) + "\n";
    for (const hd::Sample& sample : trial) append_sample_line(out, sample);
  }
  return out;
}

hd::AmDecision parse_result_line(std::string_view line) {
  return parse_decision(after_keyword(line, "result"));
}

std::pair<std::uint64_t, hd::AmDecision> parse_window_line(std::string_view line) {
  std::string_view rest = after_keyword(line, "window");
  const std::uint64_t index = parse_size(expect_kv(next_token(rest), "index"), "index");
  return {index, parse_decision(rest)};
}

// --- phd2 binary framing ---------------------------------------------------

std::optional<Request> BinaryRequestParser::next(std::string_view& input) {
  if (input.size() < 4) return std::nullopt;
  const auto length = PayloadReader(input).get<std::uint32_t>("frame length");
  if (length > max_frame_bytes_) {
    // The length prefix itself is the framing: once it exceeds the limit
    // the stream can no longer be delimited, so the connection must go.
    framing_lost_ = true;
    input.remove_prefix(input.size());
    fail(kErrTooLarge, "frame declares " + std::to_string(length) + " payload bytes, limit is " +
                           std::to_string(max_frame_bytes_));
  }
  if (input.size() - 4 < length) return std::nullopt;
  const std::string_view payload = input.substr(4, length);
  input.remove_prefix(4 + std::size_t{length});
  framing_lost_ = false;
  // Any decode failure below happened inside a fully delimited frame that
  // is already consumed, so the connection stays frameable.
  return decode_request_payload(payload, pool_);
}

// --- responses: the one formatter for both wires ----------------------------

void ResponseEncoder::append_pong(std::string& out) const {
  if (wire_ == Wire::kText) {
    out += "ok pong\n";
  } else {
    close_frame(out, open_frame(out, kFramePong));
  }
}

void ResponseEncoder::append_bye(std::string& out) const {
  if (wire_ == Wire::kText) {
    out += "ok bye\n";
  } else {
    close_frame(out, open_frame(out, kFrameBye));
  }
}

void ResponseEncoder::append_models(std::string& out, std::span<const ModelInfo> models) const {
  if (wire_ == Wire::kText) {
    out += "ok models count=" + std::to_string(models.size()) + "\n";
    for (const ModelInfo& m : models) {
      out += "model name=" + m.name + " dim=" + std::to_string(m.dim) +
             " channels=" + std::to_string(m.channels) +
             " classes=" + std::to_string(m.classes) + " ngram=" + std::to_string(m.ngram) +
             " default=" + (m.is_default ? "1" : "0") + "\n";
    }
    return;
  }
  const std::size_t start = open_frame(out, kFrameModelList);
  put<std::uint32_t>(out, models.size());
  for (const ModelInfo& m : models) {
    put_str8(out, m.name);
    for (const std::size_t field : {m.dim, m.channels, m.classes, m.ngram}) {
      put<std::uint32_t>(out, field);
    }
    put<std::uint8_t>(out, m.is_default);
  }
  close_frame(out, start);
}

std::size_t ResponseEncoder::open_classify(std::string& out, const std::string& model,
                                           std::size_t results) const {
  const std::size_t start = out.size();
  if (wire_ == Wire::kText) {
    out += "ok classify model=";
    out += model;
    out += " results=";
    append_number(out, results);
    out += '\n';
  } else {
    open_frame(out, kFrameResults);
    put_str8(out, model);
    put<std::uint32_t>(out, results);
  }
  return start;
}

void ResponseEncoder::append_result(std::string& out, const hd::AmDecision& decision) const {
  if (wire_ == Wire::kText) {
    out += "result ";
    append_decision(out, decision);
  } else {
    put_decision(out, decision);
  }
}

std::size_t ResponseEncoder::open_stream_windows(std::string& out, std::uint64_t first_index,
                                                 std::size_t windows) const {
  const std::size_t start = out.size();
  if (wire_ == Wire::kText) {
    out += "ok stream-push windows=";
    append_number(out, windows);
    out += '\n';
  } else {
    open_frame(out, kFrameStreamWindows);
    put<std::uint64_t>(out, first_index);
    put<std::uint32_t>(out, windows);
  }
  return start;
}

void ResponseEncoder::append_window(std::string& out, std::uint64_t index,
                                    const hd::AmDecision& decision) const {
  if (wire_ == Wire::kText) {
    out += "window index=";
    append_number(out, index);
    out += ' ';
    append_decision(out, decision);
  } else {
    put_decision(out, decision);  // phd2 carries the first index only
  }
}

void ResponseEncoder::close(std::string& out, std::size_t start) const {
  if (wire_ == Wire::kBinary) close_frame(out, start);
}

void ResponseEncoder::append_classify(std::string& out, const std::string& model,
                                      std::span<const hd::AmDecision> decisions) const {
  const std::size_t start = open_classify(out, model, decisions.size());
  for (const hd::AmDecision& d : decisions) append_result(out, d);
  close(out, start);
}

void ResponseEncoder::append_reload(std::string& out,
                                    std::span<const ReloadStatus> statuses) const {
  if (wire_ == Wire::kText) {
    out += "ok reload count=" + std::to_string(statuses.size()) + "\n";
    for (const ReloadStatus& s : statuses) {
      out += "reload model=" + s.name + " ok=" + (s.ok ? "1" : "0");
      if (!s.message.empty()) {
        out += " msg=";
        append_one_line(out, s.message);
      }
      out += '\n';
    }
    return;
  }
  const std::size_t start = open_frame(out, kFrameReloadResult);
  put<std::uint32_t>(out, statuses.size());
  for (const ReloadStatus& s : statuses) {
    put_str8(out, s.name);
    put<std::uint8_t>(out, s.ok);
    put_str16(out, s.message);
  }
  close_frame(out, start);
}

void ResponseEncoder::append_stream_opened(std::string& out, const std::string& model,
                                           std::size_t window, std::size_t hop) const {
  if (wire_ == Wire::kText) {
    out += "ok stream-open model=";
    out += model;
    out += " window=";
    append_number(out, window);
    out += " hop=";
    append_number(out, hop);
    out += '\n';
    return;
  }
  const std::size_t start = open_frame(out, kFrameStreamOpened);
  put_str8(out, model);
  put<std::uint32_t>(out, window);
  put<std::uint32_t>(out, hop);
  close_frame(out, start);
}

void ResponseEncoder::append_stream_windows(std::string& out, std::uint64_t first_index,
                                            std::span<const hd::AmDecision> decisions) const {
  const std::size_t start = open_stream_windows(out, first_index, decisions.size());
  for (std::size_t w = 0; w < decisions.size(); ++w) {
    append_window(out, first_index + w, decisions[w]);
  }
  close(out, start);
}

void ResponseEncoder::append_stream_closed(std::string& out, std::uint64_t windows) const {
  if (wire_ == Wire::kText) {
    out += "ok stream-close windows=";
    append_number(out, windows);
    out += '\n';
    return;
  }
  const std::size_t start = open_frame(out, kFrameStreamClosed);
  put<std::uint64_t>(out, windows);
  close_frame(out, start);
}

void ResponseEncoder::append_error(std::string& out, std::string_view code,
                                   std::string_view message, bool fatal) const {
  if (wire_ == Wire::kText) {
    out += "err code=";
    out += code;
    out += " msg=";
    append_one_line(out, message);
    out += '\n';
    return;
  }
  const std::size_t start = open_frame(out, kFrameError);
  put_str8(out, code);
  put_str16(out, message);
  put<std::uint8_t>(out, fatal);
  close_frame(out, start);
}

// --- phd2 client side -------------------------------------------------------

std::string format_binary_command(std::uint8_t type) {
  return frame(type, [](std::string&) {});
}

std::string format_binary_reload_request(const std::string& model) {
  return frame(kFrameReload, [&](std::string& out) { put_str8(out, model); });
}

std::string format_binary_classify_request(const std::string& model,
                                           std::span<const hd::Trial> trials) {
  return frame(kFrameClassify, [&](std::string& out) {
    put_str8(out, model);
    put<std::uint32_t>(out, trials.size());
    for (const hd::Trial& trial : trials) put_sample_body(out, trial);
  });
}

std::string format_binary_stream_open_request(const std::string& model, std::uint32_t window,
                                              std::uint32_t hop) {
  return frame(kFrameStreamOpen, [&](std::string& out) {
    put_str8(out, model);
    put<std::uint32_t>(out, window);
    put<std::uint32_t>(out, hop);
  });
}

std::string format_binary_stream_push_request(std::span<const hd::Sample> samples) {
  return frame(kFrameStreamPush, [&](std::string& out) { put_sample_body(out, samples); });
}

std::optional<BinaryResponse> BinaryResponseParser::next() {
  if (buffer_.size() < 4) return std::nullopt;
  const auto length = PayloadReader(buffer_).get<std::uint32_t>("frame length");
  if (length > kMaxFrameBytes) fail(kErrBadRequest, "response frame over the frame limit");
  if (buffer_.size() < 4u + length) return std::nullopt;
  const std::string payload = buffer_.substr(4, length);
  buffer_.erase(0, 4u + length);

  PayloadReader reader(payload);
  BinaryResponse response;
  response.type = reader.get<std::uint8_t>("response type");
  switch (response.type) {
    case kFramePong:
    case kFrameBye:
      break;
    case kFrameModelList:
      for (auto count = reader.get<std::uint32_t>("model count"); count > 0; --count) {
        ModelInfo& info = response.models.emplace_back();
        info.name = reader.str8("model name");
        for (std::size_t* field : {&info.dim, &info.channels, &info.classes, &info.ngram}) {
          *field = reader.get<std::uint32_t>("model field");
        }
        info.is_default = reader.get<std::uint8_t>("model default flag") != 0;
      }
      break;
    case kFrameResults:
      response.model = reader.str8("result model name");
      response.decisions = get_decisions(reader);
      break;
    case kFrameReloadResult:
      for (auto count = reader.get<std::uint32_t>("reload count"); count > 0; --count) {
        ReloadStatus& status = response.reloads.emplace_back();
        status.name = reader.str8("reload model name");
        status.ok = reader.get<std::uint8_t>("reload ok flag") != 0;
        status.message = reader.str16("reload message");
      }
      break;
    case kFrameStreamOpened:
      response.model = reader.str8("stream-open model name");
      response.window = reader.get<std::uint32_t>("stream-open window");
      response.hop = reader.get<std::uint32_t>("stream-open hop");
      break;
    case kFrameStreamWindows:
      response.first_window = reader.get<std::uint64_t>("stream window index");
      response.decisions = get_decisions(reader);
      break;
    case kFrameStreamClosed:
      response.windows_total = reader.get<std::uint64_t>("stream-close window count");
      break;
    case kFrameError:
      response.error_code = reader.str8("error code");
      response.error_message = reader.str16("error message");
      response.fatal = reader.get<std::uint8_t>("error fatal flag") != 0;
      break;
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

void ConnectionSession::feed(std::string_view bytes) {
  if (dead_) return;
  reclaim_consumed(input_, offset_);
  input_.append(bytes.data(), bytes.size());
}

std::optional<WireEvent> ConnectionSession::next() {
  if (dead_) return std::nullopt;
  if (mode_ == Mode::kNegotiating) {
    const std::string_view pending = unread();
    const std::size_t probe = std::min(pending.size(), kBinaryMagic.size());
    if (pending.substr(0, probe) != kBinaryMagic.substr(0, probe)) {
      // Not (a prefix of) the magic: a text connection. No valid phd1 line
      // starts with 'P', so this cannot misfire on real text traffic.
      mode_ = Mode::kText;
    } else if (probe == kBinaryMagic.size()) {
      mode_ = Mode::kBinary;
      offset_ += kBinaryMagic.size();
    } else {
      return std::nullopt;  // a strict prefix of the magic: wait for more bytes
    }
  }
  return mode_ == Mode::kText ? next_text() : next_binary();
}

void ConnectionSession::recycle(Request&& request) {
  if (mode_ == Mode::kBinary) {
    binary_.recycle(std::move(request));
  } else {
    text_.recycle(std::move(request));
  }
}

WireEvent ConnectionSession::die(std::string output) {
  dead_ = true;
  std::string().swap(input_);
  offset_ = 0;
  return {std::nullopt, std::move(output), true};
}

std::optional<WireEvent> ConnectionSession::next_text() {
  const ResponseEncoder encoder(Wire::kText);
  while (true) {
    const std::string_view pending = unread();
    const std::size_t newline = pending.find('\n', scanned_);
    if ((newline == std::string_view::npos ? pending.size() : newline) >
        limits_.max_line_bytes) {
      // A line over the limit, terminated or not: framing is lost, and an
      // unterminated one must not wait for a terminator that may never come.
      return die(encoder.error(
          kErrTooLarge, "line exceeds " + std::to_string(limits_.max_line_bytes) + " bytes"));
    }
    if (newline == std::string_view::npos) {
      scanned_ = pending.size();
      return std::nullopt;
    }
    offset_ += newline + 1;
    scanned_ = 0;
    try {
      // The line is read in place: input_ does not change until the next feed.
      if (auto request = text_.consume_line(pending.substr(0, newline))) {
        return WireEvent{std::move(request), {}, false};
      }
    } catch (const CodedError& e) {
      std::string output = encoder.error(e.code(), e.what());
      if (text_.framing_lost()) return die(std::move(output));
      return WireEvent{std::nullopt, std::move(output), false};
    }
  }
}

std::optional<WireEvent> ConnectionSession::next_binary() {
  std::string_view pending = unread();
  std::optional<WireEvent> event;
  try {
    if (auto request = binary_.next(pending)) event = WireEvent{std::move(request), {}, false};
  } catch (const CodedError& e) {
    const bool drop = binary_.framing_lost();
    event = WireEvent{std::nullopt, ResponseEncoder(Wire::kBinary).error(e.code(), e.what(), drop),
                      drop};
  }
  offset_ = input_.size() - pending.size();
  if (event && event->drop) return die(std::move(event->output));
  return event;
}

}  // namespace pulphd::serve
