// The pulphd serve wire protocols: "phd1" (text) and "phd2" (binary).
//
// phd1 is a line-delimited text protocol so any scripting tool (`nc`, a
// shell heredoc, a Python socket) can drive a model server without
// bindings. phd2 is a length-prefixed binary framing of the same requests
// and responses for bulk traffic: trial samples travel as raw float32
// bits, so the float-format/parse cost that dominates bulk phd1 classifies
// disappears and round-tripping is trivially bit-exact. Both are spoken on
// the same listener: a connection whose first four bytes are the magic
// "PHD2" is binary for its lifetime, anything else is text (every text
// request starts with "phd1", so the sniff is unambiguous).
//
// This header is the single normative implementation; the prose
// specification lives in docs/protocol.md and MUST be updated in lockstep
// with the grammar below (CI's docs job cross-checks the version token,
// the binary magic/frame-type constants, the numeric limits and the
// error-code tokens between the two).
//
// Grammar (one request per line group; lines end in LF, a trailing CR is
// tolerated):
//
//   request   = ping / models / quit / reload / classify /
//               stream-open / stream-push / stream-close
//   ping      = "phd1 ping"
//   models    = "phd1 models"
//   quit      = "phd1 quit"
//   reload    = "phd1 reload" [" model=" name]   ; no name = every model
//   classify  = "phd1 classify" [" model=" name] " trials=" K   ; K >= 1
//               K * trial
//   trial     = "trial samples=" S                              ; S >= 1
//               S * sample
//   sample    = float *(" " float)          ; one value per channel
//   stream-open  = "phd1 stream-open" [" model=" name]
//                  " window=" W " hop=" H       ; W >= 1, H >= 1
//   stream-push  = "phd1 stream-push samples=" S                ; S >= 1
//                  S * sample
//   stream-close = "phd1 stream-close"
//
// A connection holds at most one streaming session. stream-open pins the
// routed model for the session's whole life (a concurrent reload does not
// change an open session; the next stream-open sees the new model) and
// declares the sliding decision window: window w covers pushed samples
// [w*hop, w*hop + window) and its label is bit-identical to a classify of
// that buffered slice. Each stream-push answers with the windows it
// completed — pushing hop samples at a time yields exactly one decision
// per push once the first window has filled.
//
// Responses (single header line, then zero or more body lines):
//
//   "ok pong"
//   "ok bye"                                  ; connection closes after quit
//   "ok models count=" N
//     N * "model name=" name " dim=" D " channels=" C " classes=" K
//         " ngram=" G " default=" ("0"/"1")
//   "ok classify model=" name " results=" K
//     K * "result label=" L " distance=" D " distances=" d0 "," d1 ...
//   "ok reload count=" N
//     N * "reload model=" name " ok=" ("0"/"1") [" msg=" text]
//   "ok stream-open model=" name " window=" W " hop=" H
//   "ok stream-push windows=" K
//     K * "window index=" I " label=" L " distance=" D " distances=" ...
//   "ok stream-close windows=" N              ; total emitted this session
//   "err code=" code " msg=" text-to-end-of-line
//
// Error codes are the stable machine-readable contract (messages are not):
//   bad-request          malformed header/body line
//   unsupported-version  first token is not "phd1"
//   too-large            trials=/samples=/window= exceed the kMax* limits
//                        below
//   unknown-model        model= names no registered model / no default
//   bad-trial            trial incompatible with the routed model
//   bad-stream           stream request out of order (push/close without an
//                        open session, open while one is already open,
//                        window shorter than the model's N-gram), or the
//                        session was invalidated server-side (e.g. a shed
//                        stream-push lost samples) and must be re-opened
//   overloaded           server at its connection cap; sent once at accept
//                        time (always as a text line — the connection
//                        never got to negotiate), then the server shuts its
//                        write side and drains until the peer hangs up
//   timeout              request sat queued past the server's
//                        --request-timeout deadline and was shed unrun
//   internal             unexpected server-side failure
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "hd/associative_memory.hpp"
#include "hd/classifier.hpp"

namespace pulphd::serve {

/// First token of every text request line group; bump for incompatible
/// changes.
inline constexpr std::string_view kProtocolVersionToken = "phd1";

/// Name of the binary protocol revision (documentation and error messages;
/// the wire itself negotiates with kBinaryMagic).
inline constexpr std::string_view kBinaryProtocolName = "phd2";

/// Connection preamble selecting the binary protocol: a client sends these
/// four bytes immediately after connect, before its first frame. Uppercase
/// on purpose — no valid phd1 text line starts with 'P', so the listener
/// can sniff the mode from the first bytes alone.
inline constexpr std::string_view kBinaryMagic = "PHD2";

/// Hard per-request limits, enforced by the parser before any allocation
/// sized from the wire. A classify of kMaxTrialsPerRequest trials of
/// kMaxSamplesPerTrial samples is far beyond any EMG workload; real
/// requests are a handful of ~20-sample trials.
inline constexpr std::size_t kMaxTrialsPerRequest = 4096;
inline constexpr std::size_t kMaxSamplesPerTrial = 65536;
/// A streaming session adds each sample's N-gram once, into its hop block,
/// so the per-sample cost does not grow with the window overlap
/// floor((window-1)/hop) + 1; the counter memory (one ring of that many hop
/// blocks) and each window's readout (the sum of those blocks) still do.
/// This cap keeps a hostile window/hop shape (e.g. window=65536, hop=1)
/// from provisioning tens of thousands of block counters; real hops are a
/// meaningful fraction of the window.
inline constexpr std::size_t kMaxStreamActiveWindows = 256;
/// Framing bound: a single line longer than this is a protocol violation
/// (the server replies `too-large` and closes, since framing is lost).
inline constexpr std::size_t kMaxLineBytes = 1 << 20;

/// Empties a drained connection buffer. One whose capacity grew past
/// kMaxLineBytes (a large frame, a slow reader's backlog, a burst of tiny
/// requests) also gives its memory back, so a connection does not hold its
/// peak for life; a smaller one keeps its capacity for the next request.
template <typename Buffer>
void clear_drained(Buffer& buffer) {
  if (buffer.capacity() * sizeof(typename Buffer::value_type) > kMaxLineBytes) {
    Buffer().swap(buffer);
  } else {
    buffer.clear();
  }
}

/// Reclaims the consumed prefix [0, offset) of a buffer read from the
/// front: all of it once drained (clear_drained), otherwise only when it is
/// at least 64 KiB and at least half the buffer, so consuming costs
/// amortized O(1) per byte instead of one front erase per message.
inline void reclaim_consumed(std::string& buffer, std::size_t& offset) {
  if (offset == buffer.size()) {
    clear_drained(buffer);
    offset = 0;
  } else if (offset >= (std::size_t{64} << 10) && offset >= buffer.size() / 2) {
    buffer.erase(0, offset);
    offset = 0;
  }
}

/// Binary framing bound: the declared payload length of one phd2 frame.
/// A frame declaring more loses framing (the length can no longer be
/// trusted), so the server answers a fatal `too-large` and closes.
inline constexpr std::size_t kMaxFrameBytes = 1 << 24;

/// phd2 frame-type bytes (payload[0]). Requests are < 0x80, responses
/// >= 0x80; kFrameError is deliberately far from both ranges.
inline constexpr std::uint8_t kFramePing = 0x01;
inline constexpr std::uint8_t kFrameModels = 0x02;
inline constexpr std::uint8_t kFrameQuit = 0x03;
inline constexpr std::uint8_t kFrameClassify = 0x04;
inline constexpr std::uint8_t kFrameReload = 0x05;
inline constexpr std::uint8_t kFrameStreamOpen = 0x06;
inline constexpr std::uint8_t kFrameStreamPush = 0x07;
inline constexpr std::uint8_t kFrameStreamClose = 0x08;
inline constexpr std::uint8_t kFramePong = 0x81;
inline constexpr std::uint8_t kFrameBye = 0x82;
inline constexpr std::uint8_t kFrameModelList = 0x83;
inline constexpr std::uint8_t kFrameResults = 0x84;
inline constexpr std::uint8_t kFrameReloadResult = 0x85;
inline constexpr std::uint8_t kFrameStreamOpened = 0x86;
inline constexpr std::uint8_t kFrameStreamWindows = 0x87;
inline constexpr std::uint8_t kFrameStreamClosed = 0x88;
inline constexpr std::uint8_t kFrameError = 0xEE;

/// Stable error-code tokens (see the header comment and docs/protocol.md).
inline constexpr std::string_view kErrBadRequest = "bad-request";
inline constexpr std::string_view kErrUnsupportedVersion = "unsupported-version";
inline constexpr std::string_view kErrTooLarge = "too-large";
inline constexpr std::string_view kErrUnknownModel = "unknown-model";
inline constexpr std::string_view kErrBadTrial = "bad-trial";
inline constexpr std::string_view kErrBadStream = "bad-stream";
inline constexpr std::string_view kErrOverloaded = "overloaded";
inline constexpr std::string_view kErrTimeout = "timeout";
inline constexpr std::string_view kErrInternal = "internal";

struct PingRequest {};
struct ModelsRequest {};
struct QuitRequest {};
struct ClassifyRequest {
  std::string model;              ///< empty = route to the registry default
  std::vector<hd::Trial> trials;  ///< >= 1 trials, each >= 1 samples
};
/// Admin request: re-load model(s) from their source files. A failed
/// reload is reported per-model in the response and never interrupts
/// serving — the previous model keeps answering.
struct ReloadRequest {
  std::string model;  ///< empty = reload every registered model
};
/// Opens the connection's streaming session: pins the routed model and
/// declares the window/hop shape. The parser guarantees window >= 1,
/// hop >= 1, window <= kMaxSamplesPerTrial and the active-window cap;
/// window >= the model's N-gram is checked at execution (model-dependent).
struct StreamOpenRequest {
  std::string model;  ///< empty = route to the registry default
  std::size_t window = 0;
  std::size_t hop = 0;
};
/// Feeds samples to the open session; answered with every window these
/// samples completed. >= 1 samples, each one value per channel.
struct StreamPushRequest {
  hd::Trial samples;
};
/// Ends the session (the connection survives and may open a new one).
struct StreamCloseRequest {};

using Request =
    std::variant<PingRequest, ModelsRequest, QuitRequest, ClassifyRequest, ReloadRequest,
                 StreamOpenRequest, StreamPushRequest, StreamCloseRequest>;

/// The sample storage that answered requests hand back for a decoder to
/// fill again: sample rows, trials and classify trial lists, each kept
/// empty with its capacity, so a request of a shape the connection has
/// already served decodes without allocating. Each request parser owns
/// one. It retains at most kMaxLineBytes, counting each kept vector's
/// capacity plus kSlotBytes; storage past that is freed with its request,
/// so one huge frame never stays pinned.
class SamplePool {
 public:
  /// An empty row, trial or trial list, with the capacity it was kept
  /// with (none when the pool has no such vector).
  hd::Sample row() { return take(rows_); }
  hd::Trial trial() { return take(trials_); }
  std::vector<hd::Trial> trial_list() { return take(lists_); }

  /// Keeps the sample storage of a request that has been answered.
  void recycle(Request&& request);
  /// Keeps the rows of every trial, then the trials, then the list.
  void keep(std::vector<hd::Trial>&& trials);

 private:
  /// Bookkeeping counted per kept vector: its slot in the pool (which may
  /// be half unused after the pool grows) and its heap block's header.
  static constexpr std::size_t kSlotBytes = 64;

  void keep(hd::Trial&& trial);

  template <typename T>
  static std::size_t cost(const std::vector<T>& item) {
    return item.capacity() * sizeof(T) + kSlotBytes;
  }

  template <typename T>
  std::vector<T> take(std::vector<std::vector<T>>& kept) {
    if (kept.empty()) return {};
    std::vector<T> item = std::move(kept.back());
    kept.pop_back();
    bytes_ -= cost(item);
    return item;
  }

  template <typename T>
  void put(std::vector<std::vector<T>>& kept, std::vector<T>&& item) {
    item.clear();
    const std::size_t bytes = cost(item);
    if (item.capacity() == 0 || bytes > kMaxLineBytes - bytes_) return;  // freed by the caller
    kept.push_back(std::move(item));
    bytes_ += bytes;
  }

  std::vector<hd::Sample> rows_;
  std::vector<hd::Trial> trials_;
  std::vector<std::vector<hd::Trial>> lists_;
  std::size_t bytes_ = 0;
};

/// Incremental (push) request parser: feed protocol lines one at a time;
/// a completed request pops out once its last line is consumed. Decoupled
/// from any socket so protocol tests cover it without I/O.
class RequestParser {
 public:
  /// Consumes one line (terminator already stripped; a trailing '\r' is
  /// removed here). Returns the completed request, or std::nullopt while a
  /// multi-line classify/stream-push body still needs lines. Throws
  /// pulphd::CodedError (code = one of the kErr* tokens) on malformed
  /// input; the parser resets to the idle state before throwing.
  std::optional<Request> consume_line(std::string_view line);

  /// Hands an answered request's sample storage back for the next body
  /// lines to parse into.
  void recycle(Request&& request) { pool_.recycle(std::move(request)); }

  /// True when the last consume_line error made the remaining connection
  /// input un-frameable, so the caller must drop the connection: any
  /// failed `classify`/`stream-push` parse (header *or* body), because the
  /// client has typically already pipelined body lines that would otherwise
  /// be misread as fresh requests. Failed single-line requests (ping/
  /// models/quit/unknown/version) leave framing intact and reset this to
  /// false.
  bool framing_lost() const noexcept { return framing_lost_; }

 private:
  std::optional<Request> consume_header(std::string_view line);
  void begin_trial(std::size_t samples);
  void consume_sample_line(std::string_view line);

  /// The request whose body lines are being read. A stream-push reads as a
  /// classify of one trial and becomes a StreamPushRequest when complete.
  std::optional<ClassifyRequest> pending_;
  SamplePool pool_;  ///< what the body's rows, trials and trial list are drawn from
  bool stream_push_ = false;
  std::size_t remaining_trials_ = 0;   ///< trials not yet complete
  std::size_t remaining_samples_ = 0;  ///< 0 = expecting a "trial" header line
  /// Values on the previous sample line of the current body: the next
  /// line's reserve, so a body of same-width rows allocates once per row.
  std::size_t row_width_ = 0;
  bool framing_lost_ = false;
};

/// phd2 (binary) request parser: decodes one complete frame at a time, in
/// place, from the front of the caller's input (the 4-byte connection magic
/// already consumed). Decoupled from any socket so protocol tests cover it
/// without I/O.
class BinaryRequestParser {
 public:
  explicit BinaryRequestParser(std::size_t max_frame_bytes = kMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Decodes the frame at the front of `input` and advances `input` past
  /// it. Returns std::nullopt, `input` untouched, while the length prefix
  /// or payload is still incomplete. Throws pulphd::CodedError on
  /// malformed frames; unlike the text protocol, a malformed *payload*
  /// never loses framing (the length prefix still delimits the frame, and
  /// `input` is already past it), so only an over-limit declared length
  /// sets framing_lost(), and then all of `input` is discarded.
  std::optional<Request> next(std::string_view& input);

  /// Hands an answered request's sample storage back for the next frames
  /// to decode into.
  void recycle(Request&& request) { pool_.recycle(std::move(request)); }

  /// True when the last next() error made the remaining input
  /// un-frameable: the declared payload length exceeded the frame limit,
  /// so the byte stream can no longer be delimited and the caller must
  /// drop the connection.
  bool framing_lost() const noexcept { return framing_lost_; }

 private:
  std::size_t max_frame_bytes_;
  bool framing_lost_ = false;
  SamplePool pool_;  ///< what sample bodies are decoded into
};

/// Outcome of reloading one model, as carried by the `reload` response
/// (ModelRegistry::reload produces these).
struct ReloadStatus {
  std::string name;
  bool ok = false;
  /// Failure detail ("" on success). On failure the previously published
  /// model is untouched and keeps serving.
  std::string message;
};

/// Registry-facing model description used by the `models` response.
struct ModelInfo {
  std::string name;
  std::size_t dim = 0;
  std::size_t channels = 0;
  std::size_t classes = 0;
  std::size_t ngram = 0;
  bool is_default = false;
};

/// Which wire encoding a connection negotiated.
enum class Wire { kText, kBinary };

/// The one response formatter, for either wire encoding, so the
/// request-handling code is written once and stays agnostic of what the
/// connection negotiated. Every verb has an append form, which appends one
/// complete response to `out` and keeps what `out` already holds, and a
/// returning form with the same bytes in a new string.
class ResponseEncoder {
 public:
  explicit ResponseEncoder(Wire wire) : wire_(wire) {}

  Wire wire() const noexcept { return wire_; }

  void append_pong(std::string& out) const;
  void append_bye(std::string& out) const;
  void append_models(std::string& out, std::span<const ModelInfo> models) const;
  /// `model` is the resolved model name the request was routed to (never
  /// empty: default routing reports the default's real name).
  void append_classify(std::string& out, const std::string& model,
                       std::span<const hd::AmDecision> decisions) const;
  void append_reload(std::string& out, std::span<const ReloadStatus> statuses) const;
  /// `model` is the resolved name the session pinned (never empty).
  void append_stream_opened(std::string& out, const std::string& model, std::size_t window,
                            std::size_t hop) const;
  /// The decisions of the windows one stream-push completed (possibly
  /// none); `first_index` is the stream-wide index of the first one —
  /// indices are consecutive within one push.
  void append_stream_windows(std::string& out, std::uint64_t first_index,
                             std::span<const hd::AmDecision> decisions) const;
  void append_stream_closed(std::string& out, std::uint64_t windows) const;
  /// `fatal` marks errors after which the server closes the connection;
  /// phd2 carries it as an explicit flag byte, phd1 implies it from the
  /// error class (see docs/protocol.md). On text, newlines in `message` are
  /// flattened to spaces so the response stays one line; `code` must be a
  /// single token.
  void append_error(std::string& out, std::string_view code, std::string_view message,
                    bool fatal = false) const;

  /// classify and stream_windows a row at a time, for a caller that
  /// produces the decisions one by one: open_* appends the head, which
  /// carries the row count, and returns where the response starts; then
  /// exactly that many append_result / append_window rows; then close.
  std::size_t open_classify(std::string& out, const std::string& model,
                            std::size_t results) const;
  void append_result(std::string& out, const hd::AmDecision& decision) const;
  std::size_t open_stream_windows(std::string& out, std::uint64_t first_index,
                                  std::size_t windows) const;
  void append_window(std::string& out, std::uint64_t index, const hd::AmDecision& decision) const;
  /// Completes the response begun at `start` (fills in a phd2 frame's
  /// length prefix).
  void close(std::string& out, std::size_t start) const;

  std::string pong() const { return returned([&](std::string& out) { append_pong(out); }); }
  std::string bye() const { return returned([&](std::string& out) { append_bye(out); }); }
  std::string models(std::span<const ModelInfo> models) const {
    return returned([&](std::string& out) { append_models(out, models); });
  }
  std::string classify(const std::string& model, std::span<const hd::AmDecision> decisions) const {
    return returned([&](std::string& out) { append_classify(out, model, decisions); });
  }
  std::string reload(std::span<const ReloadStatus> statuses) const {
    return returned([&](std::string& out) { append_reload(out, statuses); });
  }
  std::string stream_opened(const std::string& model, std::size_t window, std::size_t hop) const {
    return returned([&](std::string& out) { append_stream_opened(out, model, window, hop); });
  }
  std::string stream_windows(std::uint64_t first_index,
                             std::span<const hd::AmDecision> decisions) const {
    return returned([&](std::string& out) { append_stream_windows(out, first_index, decisions); });
  }
  std::string stream_closed(std::uint64_t windows) const {
    return returned([&](std::string& out) { append_stream_closed(out, windows); });
  }
  std::string error(std::string_view code, std::string_view message, bool fatal = false) const {
    return returned([&](std::string& out) { append_error(out, code, message, fatal); });
  }

 private:
  template <typename Append>
  static std::string returned(Append&& append) {
    std::string out;
    append(out);
    return out;
  }

  Wire wire_;
};

/// One thing the wire produced, in stream order: a completed request, or
/// bytes the server must transmit now (an error response emitted during
/// parsing), optionally followed by dropping the connection.
struct WireEvent {
  std::optional<Request> request;
  std::string output;  ///< already encoded for the connection's wire mode
  bool drop = false;   ///< close the connection after flushing `output`
};

/// Per-connection protocol state machine: mode negotiation (text vs binary
/// from the first bytes), the connection's one input buffer, request
/// parsing, and parse-error encoding — everything between "raw bytes
/// arrived" and "requests to execute / bytes to send", with no sockets
/// involved, so the epoll server, the fuzzers and the unit tests all drive
/// the identical logic. Requests are decoded one at a time, on demand:
/// until next() is called, what a peer pipelined stays bytes.
class ConnectionSession {
 public:
  struct Limits {
    std::size_t max_line_bytes = kMaxLineBytes;
    std::size_t max_frame_bytes = kMaxFrameBytes;
  };

  ConnectionSession();  ///< protocol-default Limits
  explicit ConnectionSession(Limits limits);

  /// Appends a chunk of bytes off the socket to the input buffer (a dead
  /// session ignores it).
  void feed(std::string_view bytes);

  /// Decodes the next event from the buffered input: a request, or an
  /// error response (with drop set when framing is lost). std::nullopt
  /// while no complete request is buffered, and always once the session is
  /// dead. Never throws protocol errors — they are already encoded into
  /// WireEvent::output. Lines, frames and the negotiation preamble are all
  /// read in place; the text newline search resumes where the last one
  /// stopped.
  std::optional<WireEvent> next();

  /// feed, then every event next() decodes, in stream order.
  std::vector<WireEvent> consume(std::string_view bytes) {
    feed(bytes);
    std::vector<WireEvent> events;
    while (std::optional<WireEvent> event = next()) events.push_back(std::move(*event));
    return events;
  }

  /// Input bytes fed but not yet decoded.
  std::size_t buffered() const noexcept { return input_.size() - offset_; }

  /// Hands the sample storage of a request this session decoded, once it
  /// has been answered, back to the negotiated wire's parser: the next
  /// request decodes into it instead of allocating.
  void recycle(Request&& request);

  /// The negotiated encoding, also after the session died: requests
  /// decoded before the drop are still answered in it. kText while still
  /// negotiating (an error answered before negotiation completes is
  /// readable in a terminal).
  Wire wire() const noexcept { return mode_ == Mode::kBinary ? Wire::kBinary : Wire::kText; }

  ResponseEncoder encoder() const noexcept { return ResponseEncoder(wire()); }

  /// True after a framing-lost event: the connection must be dropped.
  bool dead() const noexcept { return dead_; }

 private:
  enum class Mode { kNegotiating, kText, kBinary };

  std::string_view unread() const noexcept { return std::string_view(input_).substr(offset_); }
  std::optional<WireEvent> next_text();
  std::optional<WireEvent> next_binary();
  /// Marks the session dead, frees its input and returns the drop event.
  WireEvent die(std::string output);

  Mode mode_ = Mode::kNegotiating;
  bool dead_ = false;
  Limits limits_;
  std::string input_;       ///< bytes fed; [0, offset_) is already decoded
  std::size_t offset_ = 0;  ///< reclaimed lazily by feed (reclaim_consumed)
  /// Text mode: bytes past offset_ already searched for a newline.
  std::size_t scanned_ = 0;
  RequestParser text_;
  BinaryRequestParser binary_;
};

// --- Request serialization + response parsing (client side) --------------

/// Formats a complete classify request (header + trial blocks), exactly
/// what a C++ client writes to the socket. Floats are printed with "%.9g",
/// which round-trips binary32 exactly — a server parsing the text recovers
/// bit-identical samples, so predictions match the offline batch path.
std::string format_classify_request(const std::string& model, std::span<const hd::Trial> trials);

/// Parses one "result ..." body line back into an AmDecision (label,
/// winner distance, full distance row). Throws pulphd::CodedError
/// (bad-request) on malformed lines. Round-trips the text
/// ResponseEncoder::classify.
hd::AmDecision parse_result_line(std::string_view line);

/// Parses one "window ..." body line of a stream-push response into its
/// stream-wide window index and decision. Throws pulphd::CodedError
/// (bad-request) on malformed lines. Round-trips the text
/// ResponseEncoder::stream_windows.
std::pair<std::uint64_t, hd::AmDecision> parse_window_line(std::string_view line);

// --- Binary (phd2) client-side helpers ------------------------------------

/// A body-less binary request frame (`type` is kFramePing/kFrameModels/
/// kFrameQuit). The caller still sends kBinaryMagic once, first.
std::string format_binary_command(std::uint8_t type);

/// A binary reload request frame ("" = reload every model).
std::string format_binary_reload_request(const std::string& model);

/// A complete binary classify request frame. Samples travel as raw
/// float32 little-endian bits — no text round-trip at all, so bit-exact
/// by construction.
std::string format_binary_classify_request(const std::string& model,
                                           std::span<const hd::Trial> trials);

/// A binary stream-open request frame ("" = route to the default model).
std::string format_binary_stream_open_request(const std::string& model, std::uint32_t window,
                                              std::uint32_t hop);

/// A binary stream-push request frame: raw float32 little-endian samples,
/// like classify.
std::string format_binary_stream_push_request(std::span<const hd::Sample> samples);
// stream-close is body-less: format_binary_command(kFrameStreamClose).

/// One decoded binary response frame (client side). `type` tells which of
/// the remaining fields are meaningful.
struct BinaryResponse {
  std::uint8_t type = 0;
  std::string model;                      ///< kFrameResults, kFrameStreamOpened
  std::vector<hd::AmDecision> decisions;  ///< kFrameResults, kFrameStreamWindows
  std::vector<ModelInfo> models;          ///< kFrameModelList
  std::vector<ReloadStatus> reloads;      ///< kFrameReloadResult
  std::uint32_t window = 0;               ///< kFrameStreamOpened
  std::uint32_t hop = 0;                  ///< kFrameStreamOpened
  std::uint64_t first_window = 0;         ///< kFrameStreamWindows: index of decisions[0]
  std::uint64_t windows_total = 0;        ///< kFrameStreamClosed
  std::string error_code;                 ///< kFrameError
  std::string error_message;              ///< kFrameError
  bool fatal = false;                     ///< kFrameError: connection drops after it
};

/// Incremental client-side decoder for binary response frames, fed as
/// bytes arrive; the counterpart of BinaryRequestParser. Throws
/// pulphd::CodedError (bad-request) on frames the server should never
/// produce.
class BinaryResponseParser {
 public:
  void feed(std::string_view bytes) { buffer_.append(bytes.data(), bytes.size()); }
  std::optional<BinaryResponse> next();

 private:
  std::string buffer_;
};

}  // namespace pulphd::serve
