#include "hd/associative_memory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace pulphd::hd {
namespace {

constexpr std::size_t kDim = 4096;

std::vector<Hypervector> class_seeds(std::size_t classes, std::uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  std::vector<Hypervector> out;
  for (std::size_t c = 0; c < classes; ++c) out.push_back(Hypervector::random(kDim, rng));
  return out;
}

/// A noisy example of a class: the seed with `flips` random components flipped.
Hypervector noisy(const Hypervector& seed, std::size_t flips, Xoshiro256StarStar& rng) {
  Hypervector out = seed;
  for (std::size_t i = 0; i < flips; ++i) {
    out.flip_bit(static_cast<std::size_t>(rng.next_below(out.dim())));
  }
  return out;
}

/// noisy() draws with replacement, so k draws flip (1 - exp(-2k/D)) / 2 of
/// the bits; this inverts that for `rate`. 4D draws reach 0.5 within 2e-4.
std::size_t draws_for_error_rate(double rate) {
  if (rate >= 0.5) return 4 * kDim;
  return static_cast<std::size_t>(
      std::lround(-0.5 * static_cast<double>(kDim) * std::log(1.0 - 2.0 * rate)));
}

TEST(AssociativeMemory, ClassifiesTrainedPatterns) {
  const auto seeds = class_seeds(5, 1);
  AssociativeMemory am(5, kDim, 99);
  Xoshiro256StarStar rng(2);
  for (std::size_t c = 0; c < 5; ++c) {
    for (int i = 0; i < 9; ++i) am.train(c, noisy(seeds[c], kDim / 10, rng));
  }
  for (std::size_t c = 0; c < 5; ++c) {
    const AmDecision d = am.classify(noisy(seeds[c], kDim / 10, rng));
    EXPECT_EQ(d.label, c);
  }
}

TEST(AssociativeMemory, DecisionCarriesAllDistances) {
  const auto seeds = class_seeds(3, 3);
  AssociativeMemory am(3, kDim, 99);
  for (std::size_t c = 0; c < 3; ++c) am.train(c, seeds[c]);
  const AmDecision d = am.classify(seeds[1]);
  ASSERT_EQ(d.distances.size(), 3u);
  EXPECT_EQ(d.label, 1u);
  EXPECT_EQ(d.distance, 0u);
  EXPECT_EQ(d.distances[1], 0u);
  EXPECT_GT(d.distances[0], kDim / 3);
}

TEST(AssociativeMemory, MarginReflectsConfidence) {
  const auto seeds = class_seeds(2, 4);
  AssociativeMemory am(2, kDim, 99);
  am.train(0, seeds[0]);
  am.train(1, seeds[1]);
  const double confident = am.classify(seeds[0]).margin(kDim);
  Xoshiro256StarStar rng(5);
  const double uncertain = am.classify(Hypervector::random(kDim, rng)).margin(kDim);
  EXPECT_GT(confident, uncertain);
  EXPECT_GT(confident, 0.3);
  EXPECT_LT(uncertain, 0.1);
}

TEST(AssociativeMemory, SinglePrototypeIsMajorityOfExamples) {
  AssociativeMemory am(1, 512, 7);
  Xoshiro256StarStar rng(8);
  std::vector<Hypervector> examples;
  for (int i = 0; i < 5; ++i) examples.push_back(Hypervector::random(512, rng));
  am.train_batch(0, examples);
  EXPECT_EQ(am.prototype(0), majority(examples));  // odd count: exact majority
}

TEST(AssociativeMemory, OnlineTrainUpdatesPrototype) {
  // §3: "the AM matrix can be continuously updated for on-line learning".
  const auto seeds = class_seeds(2, 9);
  AssociativeMemory am(2, kDim, 99);
  am.train(0, seeds[0]);
  am.train(1, seeds[1]);
  Xoshiro256StarStar rng(10);
  // Drifted variant of class 0, far enough to be ambiguous at first.
  const Hypervector drifted = noisy(seeds[0], kDim * 2 / 5, rng);
  // Online updates absorb the drifted examples.
  for (int i = 0; i < 8; ++i) am.train(0, noisy(drifted, kDim / 20, rng));
  EXPECT_EQ(am.classify(drifted).label, 0u);
  EXPECT_EQ(am.examples(0), 9u);
}

TEST(AssociativeMemory, IsTrainedRequiresEveryClass) {
  AssociativeMemory am(2, 128, 1);
  EXPECT_FALSE(am.is_trained());
  Xoshiro256StarStar rng(11);
  am.train(0, Hypervector::random(128, rng));
  EXPECT_FALSE(am.is_trained());
  EXPECT_THROW((void)am.classify(Hypervector(128)), std::logic_error);
  am.train(1, Hypervector::random(128, rng));
  EXPECT_TRUE(am.is_trained());
}

TEST(AssociativeMemory, TieBreaksToLowestLabel) {
  AssociativeMemory am(3, 64, 1);
  const Hypervector same(64);
  for (std::size_t c = 0; c < 3; ++c) am.train(c, same);
  EXPECT_EQ(am.classify(same).label, 0u);
}

TEST(AssociativeMemory, LoadPrototypesReplacesModel) {
  const auto seeds = class_seeds(3, 12);
  AssociativeMemory am(3, kDim, 99);
  for (std::size_t c = 0; c < 3; ++c) am.train(c, seeds[(c + 1) % 3]);  // scrambled
  std::vector<Hypervector> correct(seeds.begin(), seeds.end());
  am.load_prototypes(correct);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(am.prototype(c), seeds[c]);
    EXPECT_EQ(am.classify(seeds[c]).label, c);
  }
}

TEST(AssociativeMemory, LoadPrototypesValidates) {
  AssociativeMemory am(2, 128, 1);
  EXPECT_THROW(am.load_prototypes(std::vector<Hypervector>{Hypervector(128)}),
               std::invalid_argument);
  EXPECT_THROW(am.load_prototypes(
                   std::vector<Hypervector>{Hypervector(128), Hypervector(127)}),
               std::invalid_argument);
}

TEST(AssociativeMemory, GracefulDegradationUnderPrototypeFaults) {
  // §4.1: "graceful degradation with ... faulty components". Classification
  // survives moderate prototype corruption and dies only at ~50% errors.
  const auto seeds = class_seeds(5, 10);
  const auto correct_at = [&](double error_rate) {
    Xoshiro256StarStar fault_rng(12);
    std::vector<Hypervector> faulty;
    for (const Hypervector& seed : seeds) {
      faulty.push_back(noisy(seed, draws_for_error_rate(error_rate), fault_rng));
      EXPECT_NEAR(static_cast<double>(faulty.back().hamming(seed)) / kDim, error_rate, 0.02);
    }
    AssociativeMemory am(5, kDim, 11);
    am.load_prototypes(faulty);
    Xoshiro256StarStar query_rng(13);
    int correct = 0;
    for (std::size_t c = 0; c < 5; ++c) {
      const Hypervector query = noisy(seeds[c], draws_for_error_rate(0.05), query_rng);
      correct += am.classify(query).label == c;
    }
    return correct;
  };
  EXPECT_EQ(correct_at(0.0), 5);
  EXPECT_EQ(correct_at(0.10), 5);  // robust at 10% faulty cells
  EXPECT_EQ(correct_at(0.30), 5);  // still robust at 30%
  EXPECT_LE(correct_at(0.50), 4);  // at 50% the code is destroyed
}

TEST(AssociativeMemory, FootprintMatchesPaper) {
  // §3: AM (5x313 words) ~ 7 kB (exact: 6.1 kB of payload).
  AssociativeMemory am(5, 10000, 1);
  EXPECT_EQ(am.footprint_bytes(), 5u * 313u * 4u);
}

TEST(AssociativeMemory, ValidatesArguments) {
  EXPECT_THROW(AssociativeMemory(0, 128, 1), std::invalid_argument);
  EXPECT_THROW(AssociativeMemory(2, 0, 1), std::invalid_argument);
  AssociativeMemory am(2, 128, 1);
  EXPECT_THROW(am.train(2, Hypervector(128)), std::invalid_argument);
  EXPECT_THROW(am.train(0, Hypervector(129)), std::invalid_argument);
  EXPECT_THROW((void)am.examples(2), std::invalid_argument);
  EXPECT_THROW((void)am.prototype(2), std::invalid_argument);
}

TEST(AssociativeMemory, TrainBatchMatchesIndividualTrains) {
  Xoshiro256StarStar rng(13);
  std::vector<Hypervector> examples;
  for (int i = 0; i < 6; ++i) examples.push_back(Hypervector::random(256, rng));
  AssociativeMemory batch(1, 256, 77);
  batch.train_batch(0, examples);
  AssociativeMemory incremental(1, 256, 77);
  for (const auto& hv : examples) incremental.train(0, hv);
  EXPECT_EQ(batch.prototype(0), incremental.prototype(0));
}

AssociativeMemory trained_am(std::size_t classes, std::size_t dim, std::uint64_t seed) {
  AssociativeMemory am(classes, dim, seed);
  Xoshiro256StarStar rng(seed + 1);
  for (std::size_t c = 0; c < classes; ++c) {
    am.train(c, Hypervector::random(dim, rng));
    am.train(c, Hypervector::random(dim, rng));
    am.train(c, Hypervector::random(dim, rng));
  }
  return am;
}

TEST(AssociativeMemory, ClassifyBatchMatchesPerQueryClassify) {
  // Non-word-aligned dim exercises the padding tail of the Hamming kernel.
  const AssociativeMemory am = trained_am(5, 1000, 21);
  Xoshiro256StarStar rng(22);
  std::vector<Hypervector> queries;
  for (int i = 0; i < 17; ++i) queries.push_back(Hypervector::random(1000, rng));
  const std::vector<AmDecision> batch = am.classify_batch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const AmDecision single = am.classify(queries[q]);
    EXPECT_EQ(batch[q].label, single.label);
    EXPECT_EQ(batch[q].distance, single.distance);
    EXPECT_EQ(batch[q].distances, single.distances);
  }
}

TEST(AssociativeMemory, ClassifyBatchHandlesEmptyBatch) {
  const AssociativeMemory am = trained_am(3, 128, 5);
  EXPECT_TRUE(am.classify_batch({}).empty());
}

TEST(AssociativeMemory, ClassifyBatchValidates) {
  AssociativeMemory untrained(2, 128, 1);
  Xoshiro256StarStar rng(6);
  std::vector<Hypervector> queries{Hypervector::random(128, rng)};
  EXPECT_THROW((void)untrained.classify_batch(queries), std::logic_error);
  const AssociativeMemory am = trained_am(2, 128, 7);
  std::vector<Hypervector> wrong_dim{Hypervector::random(129, rng)};
  EXPECT_THROW((void)am.classify_batch(wrong_dim), std::invalid_argument);
}

}  // namespace
}  // namespace pulphd::hd
