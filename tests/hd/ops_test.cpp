#include "hd/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "tests/support/encode_oracle.hpp"

namespace pulphd::hd {
namespace {

using oracle::ngram;

std::vector<Hypervector> random_set(std::size_t n, std::size_t dim, std::uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  std::vector<Hypervector> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(Hypervector::random(dim, rng));
  return out;
}

/// Reference majority: per-component counting, the definitional form.
Hypervector majority_reference(std::span<const Hypervector> inputs) {
  const std::size_t dim = inputs.front().dim();
  Hypervector out(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    std::size_t ones = 0;
    for (const auto& hv : inputs) ones += hv.bit(i);
    if (2 * ones > inputs.size()) out.set_bit(i, true);
  }
  return out;
}

TEST(Bind, IsInvertibleAndCommutative) {
  const auto set = random_set(2, 1000, 1);
  EXPECT_EQ(bind(bind(set[0], set[1]), set[1]), set[0]);  // §2.1: invertible
  EXPECT_EQ(bind(set[0], set[1]), bind(set[1], set[0]));
}

TEST(Bind, ProducesDissimilarVector) {
  // "multiplication produces a dissimilar hypervector" (§2.1)
  const auto set = random_set(2, 10000, 2);
  const Hypervector bound = bind(set[0], set[1]);
  EXPECT_NEAR(bound.normalized_hamming(set[0]), 0.5, 0.03);
  EXPECT_NEAR(bound.normalized_hamming(set[1]), 0.5, 0.03);
}

TEST(Bind, PreservesDistances) {
  const auto set = random_set(3, 10000, 3);
  const std::size_t d = set[0].hamming(set[1]);
  EXPECT_EQ(bind(set[0], set[2]).hamming(bind(set[1], set[2])), d);
}

class MajorityOddCount : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MajorityOddCount, MatchesReferenceImplementation) {
  const std::size_t n = GetParam();
  for (const std::size_t dim : {33ul, 100ul, 313ul, 1000ul}) {
    const auto set = random_set(n, dim, 100 + n);
    EXPECT_EQ(majority(set), majority_reference(set)) << "n=" << n << " dim=" << dim;
  }
}

TEST_P(MajorityOddCount, IsSimilarToEveryInput) {
  // "the addition produces a hypervector that is similar to the input
  // hypervectors" (§2.1). The expected per-input similarity decays with the
  // operand count: E[d] = 0.5 - C(n-1, (n-1)/2)/2^n ~ 0.5 - 0.4/sqrt(n),
  // so the bound is n-dependent.
  const std::size_t n = GetParam();
  const auto set = random_set(n, 10000, 200 + n);
  const Hypervector maj = majority(set);
  // Mean plus ~3 sigma of the per-input sampling noise at D = 10,000.
  const double bound = 0.5 - 0.3989 / std::sqrt(static_cast<double>(n)) + 0.015;
  Xoshiro256StarStar rng(999);
  const Hypervector unrelated = Hypervector::random(10000, rng);
  const double unrelated_distance = maj.normalized_hamming(unrelated);
  for (const auto& hv : set) {
    EXPECT_LT(maj.normalized_hamming(hv), bound) << "n=" << n;
    if (n <= 33) {
      EXPECT_LT(maj.normalized_hamming(hv), unrelated_distance - 0.02);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(OddCounts, MajorityOddCount,
                         ::testing::Values(1ul, 3ul, 5ul, 7ul, 9ul, 17ul, 33ul, 257ul));

TEST(Majority, SingleInputIsIdentity) {
  const auto set = random_set(1, 500, 4);
  EXPECT_EQ(majority(set), set[0]);
}

TEST(Majority, RejectsEvenCountAndEmpty) {
  const auto set = random_set(4, 64, 5);
  EXPECT_THROW((void)majority(std::span<const Hypervector>(set)), std::invalid_argument);
  EXPECT_THROW((void)majority(std::span<const Hypervector>()), std::invalid_argument);
}

TEST(Majority, RejectsDimensionMismatch) {
  std::vector<Hypervector> bad{Hypervector(64), Hypervector(64), Hypervector(65)};
  EXPECT_THROW((void)majority(bad), std::invalid_argument);
}

TEST(MajorityWithTiebreak, EvenCountAppendsXorOfFirstTwo) {
  // §5.1: the tie-breaker is the XOR of two bound hypervectors.
  const auto set = random_set(4, 512, 6);
  std::vector<Hypervector> extended = set;
  extended.push_back(set[0] ^ set[1]);
  EXPECT_EQ(majority_with_tiebreak(set), majority(extended));
}

TEST(MajorityWithTiebreak, OddCountIsPlainMajority) {
  const auto set = random_set(5, 512, 7);
  EXPECT_EQ(majority_with_tiebreak(set), majority(set));
}

TEST(Ngram, SingleElementIsIdentity) {
  const auto set = random_set(1, 300, 8);
  EXPECT_EQ(ngram(set), set[0]);
}

TEST(Ngram, MatchesPaperFormula) {
  // G = S_0 ^ rho^1(S_1) ^ rho^2(S_2) (§2.1.1)
  const auto s = random_set(3, 1000, 9);
  const Hypervector expected = s[0] ^ s[1].rotated(1) ^ s[2].rotated(2);
  EXPECT_EQ(ngram(s), expected);
}

TEST(Ngram, OrderMatters) {
  auto s = random_set(2, 10000, 10);
  const Hypervector forward = ngram(s);
  std::swap(s[0], s[1]);
  const Hypervector backward = ngram(s);
  EXPECT_NEAR(forward.normalized_hamming(backward), 0.5, 0.03);
}

TEST(Ngram, IsQuasiOrthogonalToInputs) {
  // "good for storing a sequence" — the N-gram resembles none of its parts.
  const auto s = random_set(4, 10000, 11);
  const Hypervector g = ngram(s);
  for (const auto& hv : s) EXPECT_NEAR(g.normalized_hamming(hv), 0.5, 0.03);
}

TEST(Ngram, DistinctSequenceOrdersAreDistinguishable) {
  // A-B-A vs B-A-B must map to distant N-grams (sequence memory).
  Xoshiro256StarStar rng(9);
  const Hypervector a = Hypervector::random(10000, rng);
  const Hypervector b = Hypervector::random(10000, rng);
  const std::vector<Hypervector> aba{a, b, a};
  const std::vector<Hypervector> bab{b, a, b};
  EXPECT_NEAR(ngram(aba).normalized_hamming(ngram(bab)), 0.5, 0.05);
}

TEST(BundleAccumulator, MajorityOfAddedVectors) {
  const auto set = random_set(5, 777, 12);
  BundleAccumulator acc(777);
  for (const auto& hv : set) acc.add(hv);
  Xoshiro256StarStar rng(13);
  const Hypervector tie = Hypervector::random(777, rng);
  EXPECT_EQ(acc.finalize(tie), majority(set));  // odd count: tie irrelevant
}

TEST(BundleAccumulator, TieBreakUsedOnEvenCount) {
  Hypervector zeros(64);
  Hypervector ones = ~zeros;
  BundleAccumulator acc(64);
  acc.add(zeros);
  acc.add(ones);  // every component ties 1-1
  Xoshiro256StarStar rng(14);
  const Hypervector tie = Hypervector::random(64, rng);
  EXPECT_EQ(acc.finalize(tie), tie);
}

TEST(BundleAccumulator, WeightedEqualsRepeatedAdds) {
  const auto set = random_set(2, 200, 15);
  BundleAccumulator weighted(200);
  weighted.add_weighted(set[0], 3);
  weighted.add(set[1]);
  BundleAccumulator repeated(200);
  for (int i = 0; i < 3; ++i) repeated.add(set[0]);
  repeated.add(set[1]);
  EXPECT_EQ(weighted.count(), repeated.count());
  Xoshiro256StarStar rng(16);
  const Hypervector tie = Hypervector::random(200, rng);
  EXPECT_EQ(weighted.finalize(tie), repeated.finalize(tie));
}

TEST(BundleAccumulator, CountsMatchComponents) {
  Hypervector a(40);
  a.set_bit(3, true);
  a.set_bit(39, true);
  BundleAccumulator acc(40);
  acc.add(a);
  acc.add(a);
  EXPECT_EQ(acc.counts()[3], 2u);
  EXPECT_EQ(acc.counts()[39], 2u);
  EXPECT_EQ(acc.counts()[0], 0u);
}

TEST(BundleAccumulator, ResetClearsState) {
  const auto set = random_set(1, 100, 17);
  BundleAccumulator acc(100);
  acc.add(set[0]);
  acc.reset();
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_THROW((void)acc.finalize_seeded(1), std::logic_error);
}

TEST(BundleAccumulator, FinalizeRequiresData) {
  BundleAccumulator acc(10);
  EXPECT_THROW((void)acc.finalize_seeded(0), std::logic_error);
}

TEST(BundleAccumulator, RejectsDimensionMismatch) {
  BundleAccumulator acc(10);
  EXPECT_THROW(acc.add(Hypervector(11)), std::invalid_argument);
}

TEST(HammingToAll, ComputesEveryDistance) {
  const auto set = random_set(4, 313 * 32, 18);
  const auto distances = hamming_to_all(set[0], std::span<const Hypervector>(set));
  ASSERT_EQ(distances.size(), 4u);
  EXPECT_EQ(distances[0], 0u);
  for (std::size_t i = 1; i < 4; ++i) EXPECT_EQ(distances[i], set[0].hamming(set[i]));
}

TEST(HammingToAll, RejectsDimensionMismatch) {
  Xoshiro256StarStar rng(21);
  const Hypervector query = Hypervector::random(100, rng);
  std::vector<Hypervector> book;
  book.push_back(Hypervector::random(100, rng));
  book.push_back(Hypervector::random(101, rng));
  EXPECT_THROW((void)hamming_to_all(query, book), std::invalid_argument);
}

TEST(Capacity, BundledItemsRemainRecoverable) {
  // Core HD property: items bundled into a set stay much closer to the
  // bundle than unrelated vectors, enabling set membership queries.
  const auto set = random_set(21, 10000, 19);
  const Hypervector bundle = majority(set);
  Xoshiro256StarStar rng(20);
  for (int i = 0; i < 10; ++i) {
    const Hypervector outsider = Hypervector::random(10000, rng);
    for (const auto& member : set) {
      EXPECT_LT(bundle.hamming(member), bundle.hamming(outsider));
    }
  }
}

}  // namespace
}  // namespace pulphd::hd
