#include "fuzz/harness.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/status.hpp"
#include "hd/classifier.hpp"
#include "hd/encoder.hpp"
#include "hd/ops.hpp"
#include "hd/serialization.hpp"
#include "kernels/backend.hpp"
#include "serve/protocol.hpp"
#include "tests/support/encode_oracle.hpp"

namespace pulphd::fuzz {
namespace {

// A parse failure the protocol/loader contracts allow. Everything else —
// std::bad_alloc from an attacker-sized reserve, std::logic_error from a
// broken invariant, a sanitizer report — must escape and crash the run.
[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "fuzz invariant violated: %s\n", what);
  std::abort();
}

#define FUZZ_ASSERT(cond) \
  do {                    \
    if (!(cond)) fail(#cond); \
  } while (0)

/// Deterministic per-input chunk sizes: a tiny xorshift stream seeded from
/// the input itself, so the same input always replays the same chunking
/// (required for crash reproduction) while different inputs explore
/// different read() boundaries.
class ChunkStream {
 public:
  ChunkStream(const std::uint8_t* data, std::size_t size) : state_(0x9e3779b97f4a7c15ULL ^ size) {
    for (std::size_t i = 0; i < std::min<std::size_t>(size, 8); ++i) {
      state_ = (state_ << 8) | data[i];
    }
    if (state_ == 0) state_ = 1;
  }

  /// Next chunk length in [1, remaining]; biased small so frame headers and
  /// the 4-byte magic routinely split across reads.
  std::size_t next(std::size_t remaining) {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    const std::size_t want = 1 + static_cast<std::size_t>(state_ % 37);
    return std::min(want, remaining);
  }

 private:
  std::uint64_t state_;
};

std::string_view as_view(const std::uint8_t* data, std::size_t size) {
  return {reinterpret_cast<const char*>(data), size};
}

/// Drives one ConnectionSession over the input in randomized chunkings and
/// checks the session's lifecycle invariants (dead-after-drop, dead
/// sessions stay silent). Every decoded request is handed back before the
/// next one is decoded, as the daemon does once it has answered, so later
/// requests decode into storage of earlier, differently shaped ones.
void drive_session(const std::uint8_t* data, std::size_t size,
                   serve::ConnectionSession::Limits limits) {
  serve::ConnectionSession session(limits);
  ChunkStream chunks(data, size);
  bool dropped = false;
  std::size_t offset = 0;
  while (offset < size) {
    const std::size_t len = chunks.next(size - offset);
    session.feed(as_view(data + offset, len));
    offset += len;
    while (std::optional<serve::WireEvent> event = session.next()) {
      FUZZ_ASSERT(event->request.has_value() || !event->output.empty() || event->drop);
      FUZZ_ASSERT(!dropped);  // nothing decodes after a drop
      if (event->drop) dropped = true;
      if (event->request) session.recycle(std::move(*event->request));
    }
    if (dropped) {
      FUZZ_ASSERT(session.dead());
      // A dead session must ignore everything that follows.
      session.feed(as_view(data, std::min<std::size_t>(size, 16)));
      FUZZ_ASSERT(!session.next().has_value());
      FUZZ_ASSERT(session.buffered() == 0);
      break;
    }
    FUZZ_ASSERT(!session.dead());
  }
}

}  // namespace

int phd1_one_input(const std::uint8_t* data, std::size_t size) {
  // Pass 1: the line-level RequestParser, exactly as ConnectionSession feeds
  // it (terminators stripped), each request handed back as it completes.
  // consume_line documents reset-before-throw, so after any CodedError the
  // parser takes a new request at once.
  {
    serve::RequestParser parser;
    const std::string_view input = as_view(data, size);
    std::size_t start = 0;
    while (start <= input.size()) {
      const std::size_t nl = input.find('\n', start);
      const std::string_view line =
          input.substr(start, nl == std::string_view::npos ? input.size() - start : nl - start);
      try {
        if (auto request = parser.consume_line(line)) parser.recycle(std::move(*request));
      } catch (const CodedError&) {
        const bool framing_lost = parser.framing_lost();
        const auto ping = parser.consume_line("phd1 ping");
        FUZZ_ASSERT(ping && std::holds_alternative<serve::PingRequest>(*ping));
        if (framing_lost) break;
      }
      if (nl == std::string_view::npos) break;
      start = nl + 1;
    }
  }

  // Pass 2: the full session state machine (negotiation + reassembly) in
  // input-derived chunkings, with limits small enough that fuzz-sized
  // inputs actually reach the too-large / framing-lost paths.
  drive_session(data, size, {/*max_line_bytes=*/256, /*max_frame_bytes=*/1024});
  return 0;
}

int phd2_one_input(const std::uint8_t* data, std::size_t size) {
  // Pass 1: the frame parser over the raw bytes (magic already consumed, as
  // on a negotiated connection). The frame limit is small so a 4-byte
  // declared length can exceed it.
  {
    serve::BinaryRequestParser parser(/*max_frame_bytes=*/512);
    std::string_view input = as_view(data, size);
    try {
      while (auto request = parser.next(input)) parser.recycle(std::move(*request));
    } catch (const CodedError&) {
      if (parser.framing_lost()) {
        // Un-frameable stream: the caller drops the connection; nothing
        // further may be decoded.
        FUZZ_ASSERT(input.empty());
      }
    }
  }

  // Pass 2: negotiation + framing via the session (inputs must earn the
  // "PHD2" magic; the seed corpus provides it), randomized chunkings.
  drive_session(data, size, {/*max_line_bytes=*/256, /*max_frame_bytes=*/512});

  // Pass 3: the client-side response decoder over the same bytes — it
  // parses server-produced frames, so arbitrary input must fail with
  // CodedError, never crash or over-allocate.
  {
    serve::BinaryResponseParser parser;
    parser.feed(as_view(data, size));
    try {
      while (parser.next().has_value()) {
      }
    } catch (const CodedError&) {
    }
  }
  return 0;
}

int model_load_one_input(const std::uint8_t* data, std::size_t size) {
  std::istringstream in(std::string(as_view(data, size)));
  try {
    const hd::ClassifierModel model = hd::load_model(in);
    // A stream that loads must be structurally sound: matrix row counts
    // match the config, every row has the configured dimensionality, and
    // an embedded name (if any) is a valid token.
    FUZZ_ASSERT(model.im.size() == model.config.channels);
    FUZZ_ASSERT(model.cim.size() == model.config.levels);
    FUZZ_ASSERT(model.am.size() == model.config.classes);
    for (const auto* rows : {&model.im, &model.cim, &model.am}) {
      for (const hd::Hypervector& hv : *rows) {
        FUZZ_ASSERT(hv.dim() == model.config.dim);
      }
    }
    FUZZ_ASSERT(model.name.empty() || hd::is_valid_model_name(model.name));
  } catch (const std::runtime_error&) {  // malformed stream or config
  }
  return 0;
}

namespace {

/// Sequential byte reader over the fuzz input; returns 0 once exhausted
/// (callers bound their loops on done()).
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  bool done() const { return pos_ >= size_; }
  std::uint8_t u8() { return done() ? 0 : data_[pos_++]; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// The query of one buffered window, built from the MAP primitives alone
/// on the portable backend: bind + majority per sample, oracle::ngram over every
/// n-sample run, and a BundleAccumulator majority with the classifier's
/// query tie-break. It shares no code with StreamingEncoder, so a bundling
/// bug cannot cancel out.
hd::Hypervector reference_query(const hd::HdClassifier& clf, const hd::Trial& slice) {
  const kernels::ScopedBackend portable(&kernels::portable_backend());
  const std::size_t n = clf.config().ngram;
  std::vector<hd::Hypervector> spatials;
  for (const hd::Sample& sample : slice) {
    spatials.push_back(hd::majority(hd::oracle::bind_channels(clf.spatial_encoder(), sample)));
  }
  hd::BundleAccumulator acc(clf.config().dim);
  for (std::size_t t = 0; t + n <= spatials.size(); ++t) {
    acc.add(hd::oracle::ngram(std::span<const hd::Hypervector>(spatials).subspan(t, n)));
  }
  return acc.finalize(clf.query_tie_break());
}

}  // namespace

int stream_one_input(const std::uint8_t* data, std::size_t size) {
  if (size < 5) return 0;
  ByteReader bytes(data, size);

  // The model/session shape is input-derived but tiny: each iteration
  // builds a fresh classifier, so the item vectors stay cheap.
  hd::ClassifierConfig cfg;
  cfg.dim = 64;
  cfg.levels = 8;
  cfg.max_value = 7.0;
  cfg.channels = 1 + bytes.u8() % 4;
  cfg.ngram = 1 + bytes.u8() % 3;
  std::size_t window = cfg.ngram + bytes.u8() % 6;
  std::size_t hop = 1 + bytes.u8() % 7;
  const hd::HdClassifier clf(cfg);

  // Pass 1: differential op interpreter. A shadow buffer replays the exact
  // samples pushed so far; every window the session emits must be
  // bit-identical to reference_query over the shadow's buffered slice, and
  // the lifecycle counters must track the shadow exactly.
  {
    hd::StreamingEncoder session = clf.make_streaming_encoder();
    session.configure(window, hop);
    hd::Trial shadow;
    std::size_t windows = 0;
    std::uint32_t sample_counter = 0;
    const auto next_sample = [&] {
      hd::Sample sample(cfg.channels);
      for (auto& v : sample) {
        v = static_cast<float>((13 * sample_counter++) % 70u) / 10.0f;
      }
      return sample;
    };
    for (int op = 0; op < 48 && !bytes.done(); ++op) {
      switch (bytes.u8() % 8) {
        case 6:  // reset: fresh recording, same shape
          session.reset();
          shadow.clear();
          windows = 0;
          break;
        case 7: {  // reconfigure: new shape, stream position restarts
          window = cfg.ngram + bytes.u8() % 6;
          hop = 1 + bytes.u8() % 7;
          session.configure(window, hop);
          shadow.clear();
          windows = 0;
          break;
        }
        default: {  // push 1..9 samples (the common op, by weight)
          const std::size_t count = 1 + bytes.u8() % 9;
          hd::Trial chunk;
          for (std::size_t i = 0; i < count; ++i) chunk.push_back(next_sample());
          shadow.insert(shadow.end(), chunk.begin(), chunk.end());
          std::vector<hd::Hypervector> queries;
          session.push(chunk, queries);
          for (const hd::Hypervector& query : queries) {
            const std::size_t start = windows * hop;
            FUZZ_ASSERT(start + window <= shadow.size());
            const hd::Trial slice(shadow.begin() + static_cast<std::ptrdiff_t>(start),
                                  shadow.begin() + static_cast<std::ptrdiff_t>(start + window));
            FUZZ_ASSERT(query == reference_query(clf, slice));
            ++windows;
          }
          // Every completed window was emitted: the next one is the first
          // whose tail the shadow does not yet hold.
          FUZZ_ASSERT(windows * hop + window > shadow.size());
          break;
        }
      }
      FUZZ_ASSERT(session.samples_pushed() == shadow.size());
      FUZZ_ASSERT(session.windows_emitted() == windows);
    }
  }

  // Pass 2: interleaved stream frames (plus reloads and garbage) through
  // the full session state machine in input-derived chunkings — the wire
  // shape a streaming client actually produces, which the generic phd2
  // fuzzer only reaches by accident.
  {
    std::string wire(serve::kBinaryMagic);
    for (int frame = 0; frame < 16 && !bytes.done(); ++frame) {
      switch (bytes.u8() % 6) {
        case 0:
          wire += serve::format_binary_stream_open_request(
              "m", 1 + bytes.u8() % 64, 1 + bytes.u8() % 16);
          break;
        case 1: {
          const std::size_t samples = bytes.u8() % 4;
          const std::size_t channels = 1 + bytes.u8() % 4;
          hd::Trial chunk(samples, hd::Sample(channels));
          for (auto& sample : chunk) {
            for (auto& v : sample) v = static_cast<float>(bytes.u8());
          }
          wire += serve::format_binary_stream_push_request(chunk);
          break;
        }
        case 2:
          wire += serve::format_binary_command(serve::kFrameStreamClose);
          break;
        case 3:
          wire += serve::format_binary_reload_request("m");
          break;
        case 4:
          wire += serve::format_binary_command(serve::kFramePing);
          break;
        default: {  // garbage frame: arbitrary type byte, tiny arbitrary body
          const std::uint8_t type = bytes.u8();
          const std::size_t body = bytes.u8() % 8;
          std::string payload(1, static_cast<char>(type));
          for (std::size_t i = 0; i < body; ++i) {
            payload += static_cast<char>(bytes.u8());
          }
          for (int i = 0; i < 4; ++i) {
            wire += static_cast<char>((payload.size() >> (8 * i)) & 0xFF);
          }
          wire += payload;
          break;
        }
      }
    }
    drive_session(reinterpret_cast<const std::uint8_t*>(wire.data()), wire.size(),
                  {/*max_line_bytes=*/256, /*max_frame_bytes=*/1024});
  }
  return 0;
}

}  // namespace pulphd::fuzz
