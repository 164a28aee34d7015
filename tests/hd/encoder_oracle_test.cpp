// The one N-gram encoder (StreamingEncoder, which HdClassifier runs every
// trial through) against a naive sample-at-a-time reference built from the
// MAP primitives alone. Swept over every compiled+supported backend x
// n in {1, 2, 3, 5} x channels in {3, 4} x dims in {33, 97, 256, 10016},
// with trial lengths around the N-gram window and across the encoder's
// 64-sample spatial chunk, and streams pushed in chunks of 1, 5, 7, 100 and
// 200 samples at hops 1, 5, 6, 11 and 64 (hops 5 and 6 put several grams
// into every hop block of a multi-block window, both where a window ends on
// a block boundary and where it splits one). Plus the pieces the encoder is
// built from: rotate_into vs rotated, and the hop-block kernels vs
// BundleAccumulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "hd/classifier.hpp"
#include "hd/encoder.hpp"
#include "hd/ops.hpp"
#include "kernels/backend.hpp"

namespace pulphd::hd {
namespace {

/// Sample-at-a-time reference of the encoding chain: bind + majority per
/// sample (bind_channels appends §5.1's tie-break operand for even channel
/// counts), hd::ngram over every window of n spatials, and a
/// BundleAccumulator majority with the classifier's query tie-break per
/// query. Runs on the portable backend whatever backend the test forces.
class ReferenceEncoder {
 public:
  explicit ReferenceEncoder(const HdClassifier& clf) : clf_(clf) {}

  /// The N-gram of every complete n-sample window, oldest first.
  std::vector<Hypervector> grams(std::span<const Sample> samples) const {
    const kernels::ScopedBackend portable(&kernels::portable_backend());
    const std::size_t n = clf_.config().ngram;
    std::vector<Hypervector> spatials;
    for (const Sample& sample : samples) {
      spatials.push_back(majority(clf_.spatial_encoder().bind_channels(sample)));
    }
    std::vector<Hypervector> out;
    for (std::size_t t = 0; t + n <= spatials.size(); ++t) {
      out.push_back(ngram(std::span<const Hypervector>(spatials).subspan(t, n)));
    }
    return out;
  }

  Hypervector bundle(std::span<const Hypervector> grams) const {
    BundleAccumulator acc(clf_.config().dim);
    for (const Hypervector& gram : grams) acc.add(gram);
    return acc.finalize(clf_.query_tie_break());
  }

  Hypervector query(std::span<const Sample> trial) const { return bundle(grams(trial)); }

  /// The query of every window [w*hop, w*hop + window) the stream completes.
  std::vector<Hypervector> windows(std::span<const Sample> stream, std::size_t window,
                                   std::size_t hop) const {
    const std::vector<Hypervector> all = grams(stream);
    const std::size_t per_window = window - clf_.config().ngram + 1;
    std::vector<Hypervector> out;
    for (std::size_t start = 0; start + per_window <= all.size(); start += hop) {
      out.push_back(bundle(std::span<const Hypervector>(all).subspan(start, per_window)));
    }
    return out;
  }

 private:
  const HdClassifier& clf_;
};

Trial random_trial(std::size_t samples, std::size_t channels, Xoshiro256StarStar& rng) {
  Trial trial(samples, Sample(channels));
  for (auto& sample : trial) {
    for (auto& v : sample) v = static_cast<float>(rng.next() % 2100u) / 100.0f;
  }
  return trial;
}

/// Calls fn(cfg) for every dims x channels x n point of the sweep.
template <typename Fn>
void for_each_sweep_point(Fn&& fn) {
  for (const std::size_t dim : {33u, 97u, 256u, 10016u}) {
    for (const std::size_t channels : {3u, 4u}) {
      for (const std::size_t n : {1u, 2u, 3u, 5u}) {
        ClassifierConfig cfg;
        cfg.dim = dim;
        cfg.channels = channels;
        cfg.ngram = n;
        SCOPED_TRACE(testing::Message() << "dim " << dim << " channels " << channels << " n " << n);
        fn(cfg);
      }
    }
  }
}

/// Calls fn() once per compiled+supported backend, with that backend forced.
template <typename Fn>
void for_each_backend(Fn&& fn) {
  for (const kernels::Backend* backend : kernels::compiled_backends()) {
    if (!backend->supported()) continue;
    const kernels::ScopedBackend forced(backend);
    SCOPED_TRACE(backend->name);
    fn();
  }
}

HdClassifier trained_classifier(const ClassifierConfig& cfg, Xoshiro256StarStar& rng) {
  HdClassifier clf(cfg);
  for (std::size_t label = 0; label < cfg.classes; ++label) {
    clf.train(random_trial(cfg.ngram + 8, cfg.channels, rng), label);
  }
  return clf;
}

TEST(RotateInto, MatchesRotatedOnAllShapes) {
  Xoshiro256StarStar rng(0xf0001);
  for (const std::size_t dim : {1u, 31u, 32u, 33u, 64u, 97u, 10016u}) {
    const Hypervector hv = Hypervector::random(dim, rng);
    for (const std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{5}, dim - 1,
                                dim, 3 * dim + 7}) {
      Hypervector dst(dim);
      dst.flip_bit(0);  // stale content must be overwritten, not OR-ed into
      hv.rotate_into(dst, k);
      EXPECT_EQ(dst, hv.rotated(k)) << "dim " << dim << " k " << k;
    }
  }
}

TEST(RotateInto, RejectsAliasingAndDimMismatch) {
  Hypervector hv(64);
  EXPECT_THROW(hv.rotate_into(hv, 1), std::invalid_argument);
  Hypervector other(65);
  EXPECT_THROW(hv.rotate_into(other, 1), std::invalid_argument);
}

/// Bundles `rows` the way StreamingEncoder does: hop blocks of `block_grams`
/// rows each (the last one partial) through add_to_counter, then one
/// blocks_to_majority readout with the tie-break row for an even row count.
Hypervector hop_block_bundle(const kernels::Backend& backend, std::span<const Hypervector> rows,
                             std::size_t block_grams, const Hypervector& tie_break) {
  const std::size_t dim = tie_break.dim();
  const std::size_t words = words_for_dim(dim);
  const auto planes = static_cast<unsigned>(std::bit_width(block_grams));
  const std::size_t num_blocks = (rows.size() + block_grams - 1) / block_grams;
  std::vector<Word> blocks(num_blocks * planes * words, 0);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    backend.add_to_counter(rows[r].words().data(),
                           blocks.data() + r / block_grams * planes * words, planes, words);
  }
  Hypervector out(dim);
  backend.blocks_to_majority(blocks.data(), num_blocks, planes, rows.size() / 2,
                             rows.size() % 2 == 0 ? tie_break.words().data() : nullptr,
                             out.mutable_words().data(), words);
  return out;
}

TEST(HopBlocks, MatchBundleAccumulator) {
  Xoshiro256StarStar rng(0xf0004);
  for (const std::size_t dim : {63u, 64u, 97u, 10016u}) {
    const Hypervector tie_break = Hypervector::random(dim, rng);
    for (const std::size_t adds : {1u, 2u, 3u, 8u, 9u, 20u}) {
      std::vector<Hypervector> rows;
      for (std::size_t r = 0; r < adds; ++r) rows.push_back(Hypervector::random(dim, rng));
      BundleAccumulator acc(dim);
      for (const auto& row : rows) acc.add(row);
      const Hypervector expected = acc.finalize(tie_break);
      const std::size_t block_sizes[] = {1, 3, 5, adds};
      for (const kernels::Backend* backend : kernels::compiled_backends()) {
        if (!backend->supported()) continue;
        for (const std::size_t block_grams : block_sizes) {
          EXPECT_EQ(hop_block_bundle(*backend, rows, block_grams, tie_break), expected)
              << backend->name << " dim " << dim << " adds " << adds << " block "
              << block_grams;
        }
      }
    }
  }
}

TEST(HopBlocks, EvenCountTiesTakeTheTieBreakRow) {
  // Blocks holding a row and its complement tie in every column: the
  // readout is the tie-break row with one, and all zero ("ties lose")
  // without. A third block holding the row again breaks every tie its way.
  Xoshiro256StarStar rng(0xf0006);
  for (const std::size_t dim : {63u, 10016u}) {
    const std::size_t words = words_for_dim(dim);
    const Hypervector row = Hypervector::random(dim, rng);
    const Hypervector tie_break = Hypervector::random(dim, rng);
    const Hypervector complement = ~row;
    for (const kernels::Backend* backend : kernels::compiled_backends()) {
      if (!backend->supported()) continue;
      std::vector<Word> blocks(3 * words, 0);
      backend->add_to_counter(row.words().data(), blocks.data(), 1, words);
      backend->add_to_counter(complement.words().data(), blocks.data() + words, 1, words);
      backend->add_to_counter(row.words().data(), blocks.data() + 2 * words, 1, words);
      Hypervector out(dim);
      backend->blocks_to_majority(blocks.data(), 2, 1, 1, tie_break.words().data(),
                                  out.mutable_words().data(), words);
      EXPECT_EQ(out, tie_break) << backend->name << " dim " << dim;
      backend->blocks_to_majority(blocks.data(), 2, 1, 1, nullptr, out.mutable_words().data(),
                                  words);
      EXPECT_EQ(out, Hypervector(dim)) << backend->name << " dim " << dim;
      backend->blocks_to_majority(blocks.data(), 3, 1, 1, nullptr, out.mutable_words().data(),
                                  words);
      EXPECT_EQ(out, row) << backend->name << " dim " << dim;
    }
  }
}

// encode_trial (window = n, hop = 1) and encode_query (window = hop = trial
// length) against the reference: shorter than, exactly and one past the
// N-gram window, and either side of the 64-sample spatial chunk.
TEST(EncoderOracle, TrialEncodeMatchesReferenceAcrossTheSweep) {
  Xoshiro256StarStar rng(0xf0005);
  for_each_sweep_point([&](const ClassifierConfig& cfg) {
    const HdClassifier clf(cfg);
    const ReferenceEncoder reference(clf);
    const std::size_t n = cfg.ngram;
    for (const std::size_t samples : {n - 1, n, n + 1, std::size_t{63}, std::size_t{64},
                                      std::size_t{65}, std::size_t{130}}) {
      SCOPED_TRACE(testing::Message() << "samples " << samples);
      const Trial trial = random_trial(samples, cfg.channels, rng);
      const std::vector<Hypervector> grams = reference.grams(trial);
      ASSERT_EQ(grams.size(), samples + 1 - n);
      for_each_backend([&] {
        EXPECT_EQ(clf.encode_trial(trial), grams);
        if (grams.empty()) {
          EXPECT_THROW(clf.encode_query(trial), std::invalid_argument);
        } else {
          EXPECT_EQ(clf.encode_query(trial), reference.bundle(grams));
        }
      });
    }
  });
}

// Uneven trial lengths exercise the oversubscribed shard grain.
TEST(EncoderOracle, EncodeTrialsMatchReferenceAtOneAndFourThreads) {
  Xoshiro256StarStar rng(0xf0007);
  for_each_sweep_point([&](ClassifierConfig cfg) {
    HdClassifier clf(cfg);
    const ReferenceEncoder reference(clf);
    std::vector<Trial> trials;
    std::vector<Hypervector> expected;
    for (const std::size_t extra : {0u, 14u, 2u, 65u, 0u, 6u, 130u, 1u}) {
      trials.push_back(random_trial(cfg.ngram + extra, cfg.channels, rng));
      expected.push_back(reference.query(trials.back()));
    }
    for_each_backend([&] {
      for (const std::size_t threads : {1u, 4u}) {
        clf.set_threads(threads);
        EXPECT_EQ(clf.encode_trials(trials), expected) << "threads " << threads;
      }
    });
  });
}

TEST(EncoderOracle, PredictBatchMatchesReference) {
  Xoshiro256StarStar rng(0xf0008);
  for_each_sweep_point([&](const ClassifierConfig& cfg) {
    HdClassifier clf = trained_classifier(cfg, rng);
    const ReferenceEncoder reference(clf);
    std::vector<Trial> trials;
    std::vector<AmDecision> expected;
    for (const std::size_t samples : {cfg.ngram, std::size_t{20}, std::size_t{65}}) {
      trials.push_back(random_trial(samples, cfg.channels, rng));
      expected.push_back(clf.predict_encoded(reference.query(trials.back())));
    }
    for_each_backend([&] {
      for (const std::size_t threads : {1u, 4u}) {
        clf.set_threads(threads);
        const std::vector<AmDecision> decisions = clf.predict_batch(trials);
        ASSERT_EQ(decisions.size(), expected.size());
        for (std::size_t q = 0; q < expected.size(); ++q) {
          EXPECT_EQ(decisions[q].label, expected[q].label) << "threads " << threads;
          EXPECT_EQ(decisions[q].distance, expected[q].distance) << "threads " << threads;
        }
      }
    });
  });
}

// A session's windows against the reference for every push chunking: the
// temporal ring and the hop-block ring must carry across both push and
// spatial-chunk boundaries. At window 20, hop 5 (the paper's shape) and
// hop 6 with n in {1, 2, 3, 5}, a window is several whole blocks and, for
// most n, the first r = (21 - n) % hop grams of one more.
TEST(EncoderOracle, StreamWindowsMatchReferenceAcrossChunksAndHops) {
  Xoshiro256StarStar rng(0xf0009);
  constexpr std::size_t kWindow = 20;
  for_each_sweep_point([&](const ClassifierConfig& cfg) {
    const HdClassifier clf(cfg);
    const ReferenceEncoder reference(clf);
    const Trial stream = random_trial(210, cfg.channels, rng);
    for (const std::size_t hop : {1u, 5u, 6u, 11u, 64u}) {
      const std::vector<Hypervector> expected = reference.windows(stream, kWindow, hop);
      for_each_backend([&] {
        StreamingEncoder session = clf.make_streaming_encoder();
        session.configure(kWindow, hop);
        for (const std::size_t chunk : {1u, 5u, 7u, 100u, 200u}) {
          session.reset();
          std::vector<Hypervector> queries;
          for (std::size_t base = 0; base < stream.size(); base += chunk) {
            const std::size_t take = std::min(chunk, stream.size() - base);
            session.push(std::span<const Sample>(stream).subspan(base, take), queries);
          }
          EXPECT_EQ(queries, expected) << "hop " << hop << " chunk " << chunk;
        }
      });
    }
  });
}

// Each thread's trial encoder is re-pointed per call: interleaving models
// of equal and different shapes (buffers kept vs rebuilt) must not leak one
// model's memories, ring or counters into another's bits.
TEST(EncoderOracle, InterleavedClassifiersKeepTheirOwnBits) {
  Xoshiro256StarStar rng(0xf000a);
  std::vector<HdClassifier> models;
  for (const auto& [dim, n, seed] : {std::tuple{256u, 3u, 1u}, std::tuple{256u, 3u, 2u},
                                     std::tuple{256u, 2u, 3u}, std::tuple{97u, 3u, 4u}}) {
    ClassifierConfig cfg;
    cfg.dim = dim;
    cfg.ngram = n;
    cfg.seed = seed;
    models.emplace_back(cfg);
  }
  std::vector<Trial> trials;
  for (const std::size_t samples : {9u, 70u, 3u}) trials.push_back(random_trial(samples, 4, rng));
  for (int round = 0; round < 2; ++round) {
    for (const HdClassifier& clf : models) {
      const ReferenceEncoder reference(clf);
      for (const Trial& trial : trials) {
        EXPECT_EQ(clf.encode_query(trial), reference.query(trial));
        EXPECT_EQ(clf.encode_trial(trial), reference.grams(trial));
      }
    }
  }
}

}  // namespace
}  // namespace pulphd::hd
