#include "hd/serialization.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>

#include "kernels/backend.hpp"

namespace pulphd::hd {
namespace {

HdClassifier trained_classifier() {
  ClassifierConfig cfg;
  cfg.dim = 512;
  cfg.channels = 4;
  cfg.levels = 8;
  cfg.max_value = 7.0;
  cfg.classes = 3;
  cfg.seed = 77;
  HdClassifier clf(cfg);
  for (std::size_t c = 0; c < 3; ++c) {
    Trial t;
    for (int i = 0; i < 10; ++i) {
      t.push_back({static_cast<float>(c), static_cast<float>(7 - c),
                   static_cast<float>(2 * c), 3.0f});
    }
    clf.train(t, c);
  }
  return clf;
}

TEST(Serialization, RoundTripPreservesModel) {
  const HdClassifier original = trained_classifier();
  std::stringstream buffer;
  save_model(original, buffer);
  const ClassifierModel model = load_model(buffer);

  EXPECT_EQ(model.config.dim, original.config().dim);
  EXPECT_EQ(model.config.channels, original.config().channels);
  EXPECT_EQ(model.config.levels, original.config().levels);
  EXPECT_EQ(model.config.classes, original.config().classes);
  EXPECT_EQ(model.im, original.im().items());
  EXPECT_EQ(model.cim, original.cim().items());
  EXPECT_EQ(model.am, original.am().prototypes());
}

TEST(Serialization, RestoredClassifierPredictsIdentically) {
  const HdClassifier original = trained_classifier();
  std::stringstream buffer;
  save_model(original, buffer);
  const ClassifierModel model = load_model(buffer);
  EXPECT_EQ(model.config.seed, original.config().seed);
  const HdClassifier restored = classifier_from_model(model);

  Trial probe;
  for (int i = 0; i < 5; ++i) probe.push_back({1.0f, 6.0f, 2.0f, 3.0f});
  const AmDecision a = original.predict(probe);
  const AmDecision b = restored.predict(probe);
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.distances, b.distances);
}

TEST(Serialization, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/pulphd_model.bin";
  const HdClassifier original = trained_classifier();
  save_model_file(original, path);
  const ClassifierModel model = load_model_file(path);
  EXPECT_EQ(model.am, original.am().prototypes());
  std::remove(path.c_str());
}

TEST(Serialization, RejectsBadMagic) {
  std::stringstream buffer;
  buffer.write("XXXXYYYY", 8);
  EXPECT_THROW((void)load_model(buffer), std::runtime_error);
}

TEST(Serialization, RejectsTruncatedStream) {
  const HdClassifier original = trained_classifier();
  std::stringstream buffer;
  save_model(original, buffer);
  const std::string full = buffer.str();
  for (const std::size_t cut : {4ul, 16ul, 64ul, full.size() - 8}) {
    std::stringstream truncated(full.substr(0, cut));
    EXPECT_THROW((void)load_model(truncated), std::runtime_error) << "cut=" << cut;
  }
}

TEST(Serialization, RejectsWrongVersion) {
  const HdClassifier original = trained_classifier();
  std::stringstream buffer;
  save_model(original, buffer);
  std::string bytes = buffer.str();
  bytes[4] = 0x7F;  // corrupt the version field
  std::stringstream corrupted(bytes);
  EXPECT_THROW((void)load_model(corrupted), std::runtime_error);
}

TEST(Serialization, LoadFileErrorsOnMissingPath) {
  EXPECT_THROW((void)load_model_file("/nonexistent/dir/model.bin"), std::runtime_error);
}

TEST(Serialization, EmbeddedNameRoundTrips) {
  const HdClassifier original = trained_classifier();
  std::stringstream buffer;
  save_model(original, buffer, "subject-3.v2");
  const ClassifierModel model = load_model(buffer);
  EXPECT_EQ(model.name, "subject-3.v2");
  EXPECT_EQ(model.am, original.am().prototypes());
}

TEST(Serialization, UnnamedSaveLoadsWithEmptyName) {
  const HdClassifier original = trained_classifier();
  std::stringstream buffer;
  save_model(original, buffer);
  EXPECT_EQ(load_model(buffer).name, "");
}

TEST(Serialization, SaveRejectsInvalidNames) {
  const HdClassifier original = trained_classifier();
  std::stringstream buffer;
  EXPECT_THROW(save_model(original, buffer, "has space"), std::runtime_error);
  EXPECT_THROW(save_model(original, buffer, "new\nline"), std::runtime_error);
  EXPECT_THROW(save_model(original, buffer, std::string(65, 'a')), std::runtime_error);
}

TEST(Serialization, ModelNameTokenValidation) {
  EXPECT_TRUE(is_valid_model_name("subj0"));
  EXPECT_TRUE(is_valid_model_name("a.b_c-D9"));
  EXPECT_FALSE(is_valid_model_name(""));
  EXPECT_FALSE(is_valid_model_name("has space"));
  EXPECT_FALSE(is_valid_model_name("slash/y"));
  EXPECT_FALSE(is_valid_model_name(std::string(65, 'x')));
}

TEST(Serialization, Version1StreamsStillLoad) {
  // A v1 stream is a v2 stream with the version field set to 1 and the
  // name-length field (8 bytes after the 72-byte fixed header) removed.
  const HdClassifier original = trained_classifier();
  std::stringstream buffer;
  save_model(original, buffer);  // unnamed: name_len = 0, no name bytes
  std::string bytes = buffer.str();
  bytes[4] = 0x01;  // version 2 -> 1 (little-endian u32)
  bytes.erase(72, 8);
  std::stringstream v1(bytes);
  const ClassifierModel model = load_model(v1);
  EXPECT_EQ(model.name, "");
  EXPECT_EQ(model.config.dim, original.config().dim);
  EXPECT_EQ(model.am, original.am().prototypes());
}

TEST(Serialization, LoadFileErrorsNameThePath) {
  // Regression: a multi-model registry startup loads many files; a parse
  // failure must say which one was bad, not just "bad magic".
  const std::string path = ::testing::TempDir() + "/pulphd_garbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "definitely not a model";
  }
  try {
    (void)load_model_file(path);
    FAIL() << "load_model_file should have thrown";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
}

TEST(Serialization, RejectsAbsurdHeaderFields) {
  const HdClassifier original = trained_classifier();
  std::stringstream buffer;
  save_model(original, buffer);
  const std::string bytes = buffer.str();
  // Header layout: magic(4) version(4) dim(8) channels(8) levels(8)
  // min(8) max(8) ngram(8) classes(8) seed(8).
  const auto corrupt_u64 = [&](std::size_t offset, std::uint64_t value) {
    std::string mutated = bytes;
    for (int i = 0; i < 8; ++i) {
      mutated[offset + static_cast<std::size_t>(i)] =
          static_cast<char>((value >> (8 * i)) & 0xFF);
    }
    return mutated;
  };
  // A dim near SIZE_MAX would overflow words_for_dim to 0 and must be
  // rejected before any allocation, as must giant row counts that would
  // otherwise size allocations directly from the stream.
  for (const auto& [offset, value] :
       {std::pair<std::size_t, std::uint64_t>{8, ~std::uint64_t{0} - 30},
        {8, std::uint64_t{1} << 40},
        {16, std::uint64_t{1} << 32},   // channels
        {24, std::uint64_t{1} << 32},   // levels
        {24, 1},                        // levels, below ClassifierConfig's 2
        {48, std::uint64_t{1} << 40},   // ngram
        {48, 0},                        // ngram, below ClassifierConfig's 1
        {56, std::uint64_t{1} << 32}}) {  // classes
    std::stringstream corrupted(corrupt_u64(offset, value));
    EXPECT_THROW((void)load_model(corrupted), std::runtime_error)
        << "offset=" << offset << " value=" << value;
  }
}

// A header with more channels than the spatial kernels take is a config
// error, raised before the channels x D item-memory matrix is read: the
// stream here ends after its header, so reading on would report a
// truncated stream instead.
TEST(Serialization, RejectsMoreChannelsThanTheKernelsTakeBeforeReadingMatrices) {
  const HdClassifier original = trained_classifier();
  std::stringstream buffer;
  save_model(original, buffer);
  // The fixed header (72 bytes) and the empty name's length (8).
  std::string header = buffer.str().substr(0, 72 + 8);
  const std::uint64_t channels = kernels::kMaxEncodeChannels + 1;
  for (int i = 0; i < 8; ++i) {
    header[16 + static_cast<std::size_t>(i)] = static_cast<char>((channels >> (8 * i)) & 0xFF);
  }
  std::stringstream corrupted(header);
  try {
    (void)load_model(corrupted);
    FAIL() << "load_model should have thrown";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("load_model: ClassifierConfig: channels"),
              std::string::npos)
        << e.what();
  }
}

TEST(Serialization, ImOrCimRowsThatDisagreeWithTheSeedAreRejected) {
  // The IM and CIM are rebuilt from the seed; stored rows that differ in a
  // single bit make the stream inconsistent, reported like every other
  // malformed input.
  const HdClassifier original = trained_classifier();
  const std::string path = ::testing::TempDir() + "/pulphd_foreign_rows.bin";
  save_model_file(original, path, "m");
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  // Fixed header (72 bytes), name length (8) and the 1-byte name; then the
  // IM rows, then the CIM rows.
  const std::size_t im_offset = 72 + 8 + 1;
  const std::size_t im_bytes = original.config().channels * original.im().at(0).words().size() *
                               sizeof(Word);
  ASSERT_NO_THROW((void)classifier_from_model(load_model_file(path)));
  for (const std::size_t offset : {im_offset + 5, im_offset + im_bytes + 7}) {
    std::string mutated = bytes;
    mutated[offset] = static_cast<char>(mutated[offset] ^ 0x10);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << mutated;
    }
    EXPECT_THROW((void)classifier_from_model(load_model_file(path)), std::runtime_error)
        << "offset=" << offset;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pulphd::hd
