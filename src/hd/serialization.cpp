#include "hd/serialization.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/io.hpp"

namespace pulphd::hd {
namespace {

constexpr std::uint32_t kMagic = 0x31444850u;  // "PHD1" little-endian
constexpr std::uint32_t kVersionNameless = 1;  // pre-name streams, still loadable
constexpr std::uint32_t kVersion = 2;
constexpr std::size_t kMaxNameLen = 64;

// Upper bounds on header fields, checked before any allocation. A corrupt or
// hostile stream otherwise dictates the allocation size directly — and a dim
// near SIZE_MAX overflows words_for_dim to 0, which would hand Hypervector an
// empty word vector for a nonzero dim. The caps are far above any real model
// (paper: D = 10,000, 4 channels, 22 levels, 5 classes).
constexpr std::uint64_t kMaxDim = 1ull << 24;
constexpr std::uint64_t kMaxRows = 1ull << 16;     // channels / levels / classes
constexpr std::uint64_t kMaxNgram = 1ull << 16;

void check_header_field(std::uint64_t value, std::uint64_t max, const char* name) {
  if (value > max) {
    throw std::runtime_error(std::string("load_model: header field ") + name +
                             " out of range (" + std::to_string(value) + ")");
  }
}

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw std::runtime_error("load_model: truncated stream");
  return value;
}

void write_matrix(std::ostream& out, const std::vector<Hypervector>& rows) {
  for (const auto& hv : rows) {
    for (const Word w : hv.words()) write_pod(out, w);
  }
}

std::vector<Hypervector> read_matrix(std::istream& in, std::size_t rows, std::size_t dim) {
  std::vector<Hypervector> out;
  out.reserve(rows);
  const std::size_t words = words_for_dim(dim);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<Word> row(words);
    for (auto& w : row) w = read_pod<Word>(in);
    out.emplace_back(dim, std::move(row));
  }
  return out;
}

}  // namespace

bool is_valid_model_name(const std::string& name) {
  if (name.empty() || name.size() > kMaxNameLen) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                    c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

void save_model(const HdClassifier& clf, std::ostream& out, const std::string& name) {
  if (!name.empty() && !is_valid_model_name(name)) {
    throw std::runtime_error("save_model: invalid model name \"" + name +
                             "\" (want 1..64 chars of [A-Za-z0-9._-])");
  }
  const ClassifierConfig& cfg = clf.config();
  write_pod(out, kMagic);
  write_pod(out, kVersion);
  write_pod<std::uint64_t>(out, cfg.dim);
  write_pod<std::uint64_t>(out, cfg.channels);
  write_pod<std::uint64_t>(out, cfg.levels);
  write_pod<double>(out, cfg.min_value);
  write_pod<double>(out, cfg.max_value);
  write_pod<std::uint64_t>(out, cfg.ngram);
  write_pod<std::uint64_t>(out, cfg.classes);
  write_pod<std::uint64_t>(out, cfg.seed);
  write_pod<std::uint64_t>(out, name.size());
  out.write(name.data(), static_cast<std::streamsize>(name.size()));
  write_matrix(out, clf.im().items());
  write_matrix(out, clf.cim().items());
  write_matrix(out, clf.am().prototypes());
  if (!out) throw std::runtime_error("save_model: stream write failed");
}

void save_model_file(const HdClassifier& clf, const std::string& path, const std::string& name) {
  // Serialize fully in memory, then publish crash-safely: the bytes land
  // under a temp sibling and only an fsynced rename exposes them, so a
  // crash (or injected ENOSPC/EIO/short write) at any point leaves either
  // the previous complete checkpoint or the new one — never a torn file.
  // A leftover "<path>.tmp" orphan is inert: loaders only ever open `path`,
  // and the next save removes it.
  std::ostringstream buf(std::ios::binary);
  save_model(clf, buf, name);
  try {
    io::atomic_write_file(path, buf.view());
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string("save_model_file: ") + e.what());
  }
}

ClassifierModel load_model(std::istream& in) {
  if (read_pod<std::uint32_t>(in) != kMagic) throw std::runtime_error("load_model: bad magic");
  const auto version = read_pod<std::uint32_t>(in);
  if (version != kVersionNameless && version != kVersion) {
    throw std::runtime_error("load_model: unsupported version " + std::to_string(version));
  }
  ClassifierModel model;
  const auto dim = read_pod<std::uint64_t>(in);
  const auto channels = read_pod<std::uint64_t>(in);
  const auto levels = read_pod<std::uint64_t>(in);
  model.config.min_value = read_pod<double>(in);
  model.config.max_value = read_pod<double>(in);
  const auto ngram = read_pod<std::uint64_t>(in);
  const auto classes = read_pod<std::uint64_t>(in);
  model.config.seed = read_pod<std::uint64_t>(in);
  if (version >= 2) {
    const auto name_len = read_pod<std::uint64_t>(in);
    check_header_field(name_len, kMaxNameLen, "name_len");
    if (name_len > 0) {
      model.name.resize(static_cast<std::size_t>(name_len));
      in.read(model.name.data(), static_cast<std::streamsize>(name_len));
      if (!in) throw std::runtime_error("load_model: truncated stream");
      if (!is_valid_model_name(model.name)) {
        throw std::runtime_error("load_model: embedded model name is not a valid token");
      }
    }
  }
  check_header_field(dim, kMaxDim, "dim");
  check_header_field(channels, kMaxRows, "channels");
  check_header_field(levels, kMaxRows, "levels");
  check_header_field(ngram, kMaxNgram, "ngram");
  check_header_field(classes, kMaxRows, "classes");
  model.config.dim = static_cast<std::size_t>(dim);
  model.config.channels = static_cast<std::size_t>(channels);
  model.config.levels = static_cast<std::size_t>(levels);
  model.config.ngram = static_cast<std::size_t>(ngram);
  model.config.classes = static_cast<std::size_t>(classes);
  try {
    model.config.validate();
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("load_model: ") + e.what());
  }
  model.im = read_matrix(in, model.config.channels, model.config.dim);
  model.cim = read_matrix(in, model.config.levels, model.config.dim);
  model.am = read_matrix(in, model.config.classes, model.config.dim);
  return model;
}

ClassifierModel load_model_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_model_file: cannot open " + path);
  try {
    return load_model(in);
  } catch (const std::exception& e) {
    // A registry loads many per-subject models in one startup; an anonymous
    // "bad magic" is useless without the file it came from.
    throw std::runtime_error("load_model_file: " + path + ": " + e.what());
  }
}

HdClassifier classifier_from_model(const ClassifierModel& model) {
  // The IM and CIM are seed memories: rebuild them from the stored seed and
  // reject a stream whose rows disagree. Only the AM is loaded from the
  // stream.
  HdClassifier clf(model.config);
  if (clf.im().items() != model.im || clf.cim().items() != model.cim) {
    throw std::runtime_error(
        "classifier_from_model: IM/CIM matrices disagree with the config seed; "
        "the model stream is inconsistent");
  }
  clf.mutable_am().load_prototypes(model.am);
  return clf;
}

}  // namespace pulphd::hd
