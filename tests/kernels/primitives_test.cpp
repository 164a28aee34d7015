#include "kernels/primitives.hpp"

#include <gtest/gtest.h>

#include "hd/item_memory.hpp"
#include "hd/ops.hpp"

namespace pulphd::kernels {
namespace {

using hd::Hypervector;
using sim::CoreContext;
using sim::CoreKind;
using sim::isa_costs;

std::vector<std::vector<Word>> random_rows(std::size_t n, std::size_t words,
                                           std::uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  std::vector<std::vector<Word>> rows(n, std::vector<Word>(words));
  for (auto& row : rows) {
    for (auto& w : row) w = static_cast<Word>(rng.next());
  }
  return rows;
}

std::vector<std::span<const Word>> spans_of(const std::vector<std::vector<Word>>& rows) {
  std::vector<std::span<const Word>> out;
  out.reserve(rows.size());
  for (const auto& r : rows) out.emplace_back(r);
  return out;
}

TEST(BindRange, ComputesXorAndCharges) {
  const auto rows = random_rows(2, 16, 1);
  std::vector<Word> out(16);
  CoreContext ctx(isa_costs(CoreKind::kWolfRv32), 1.0);
  bind_range(ctx, rows[0], rows[1], out, 0, 16);
  for (std::size_t w = 0; w < 16; ++w) EXPECT_EQ(out[w], rows[0][w] ^ rows[1][w]);
  EXPECT_GT(ctx.cycles(), 16u * 4u);  // at least ld+ld+xor+st per word
}

TEST(BindRange, PartialRangeOnlyTouchesRange) {
  const auto rows = random_rows(2, 16, 2);
  std::vector<Word> out(16, 0xDEADBEEFu);
  CoreContext ctx(isa_costs(CoreKind::kWolfRv32), 1.0);
  bind_range(ctx, rows[0], rows[1], out, 4, 8);
  EXPECT_EQ(out[3], 0xDEADBEEFu);
  EXPECT_EQ(out[8], 0xDEADBEEFu);
  EXPECT_EQ(out[5], rows[0][5] ^ rows[1][5]);
}

class MajorityVariants
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(MajorityVariants, GenericMatchesGoldenMajority) {
  const auto [n, words] = GetParam();
  const auto rows = random_rows(n, words, 3 + n);
  std::vector<Word> out(words);
  CoreContext ctx(isa_costs(CoreKind::kPulpV3Or1k), 1.0);
  majority_range_generic(ctx, spans_of(rows), out, 0, words);

  std::vector<Hypervector> hvs;
  for (const auto& r : rows) hvs.emplace_back(words * 32, r);
  const Hypervector golden = hd::majority(hvs);
  for (std::size_t w = 0; w < words; ++w) EXPECT_EQ(out[w], golden.words()[w]);
}

TEST_P(MajorityVariants, BuiltinMatchesGeneric) {
  const auto [n, words] = GetParam();
  const auto rows = random_rows(n, words, 7 + n);
  std::vector<Word> generic_out(words);
  std::vector<Word> builtin_out(words);
  CoreContext g(isa_costs(CoreKind::kPulpV3Or1k), 1.0);
  CoreContext b(isa_costs(CoreKind::kWolfRv32Builtin), 1.0);
  majority_range_generic(g, spans_of(rows), generic_out, 0, words);
  majority_range_builtin(b, spans_of(rows), builtin_out, 0, words);
  EXPECT_EQ(generic_out, builtin_out);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MajorityVariants,
    ::testing::Combine(::testing::Values(1ul, 3ul, 5ul, 9ul, 33ul, 257ul),
                       ::testing::Values(1ul, 7ul, 313ul)));

TEST(Majority, BuiltinIsFasterThanGenericOnWolf) {
  // The whole point of §5.1: p.extractu/p.insert/p.cnt beat the shift/mask
  // sequences.
  const auto rows = random_rows(5, 313, 10);
  std::vector<Word> out(313);
  CoreContext generic(isa_costs(CoreKind::kWolfRv32), 1.0);
  CoreContext builtin(isa_costs(CoreKind::kWolfRv32Builtin), 1.0);
  majority_range_generic(generic, spans_of(rows), out, 0, 313);
  majority_range_builtin(builtin, spans_of(rows), out, 0, 313);
  EXPECT_GT(static_cast<double>(generic.cycles()) / static_cast<double>(builtin.cycles()),
            2.0);
}

TEST(Majority, DispatchSelectsVariantByIsa) {
  const auto rows = random_rows(5, 32, 11);
  std::vector<Word> out(32);
  CoreContext builtin(isa_costs(CoreKind::kWolfRv32Builtin), 1.0);
  majority_range(builtin, spans_of(rows), out, 0, 32);
  CoreContext builtin_direct(isa_costs(CoreKind::kWolfRv32Builtin), 1.0);
  majority_range_builtin(builtin_direct, spans_of(rows), out, 0, 32);
  EXPECT_EQ(builtin.cycles(), builtin_direct.cycles());

  CoreContext generic(isa_costs(CoreKind::kArmCortexM4), 1.0);
  majority_range(generic, spans_of(rows), out, 0, 32);
  CoreContext generic_direct(isa_costs(CoreKind::kArmCortexM4), 1.0);
  majority_range_generic(generic_direct, spans_of(rows), out, 0, 32);
  EXPECT_EQ(generic.cycles(), generic_direct.cycles());
}

TEST(Majority, RejectsEvenOperandCount) {
  const auto rows = random_rows(4, 8, 12);
  std::vector<Word> out(8);
  CoreContext ctx(isa_costs(CoreKind::kWolfRv32), 1.0);
  EXPECT_THROW(majority_range_generic(ctx, spans_of(rows), out, 0, 8),
               std::invalid_argument);
  EXPECT_THROW(majority_range_builtin(ctx, spans_of(rows), out, 0, 8),
               std::invalid_argument);
}

class Rotate1XorTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Rotate1XorTest, MatchesGoldenRotateXor) {
  const std::size_t dim = GetParam();
  const std::size_t words = words_for_dim(dim);
  Xoshiro256StarStar rng(13);
  const Hypervector acc = Hypervector::random(dim, rng);
  const Hypervector spatial = Hypervector::random(dim, rng);
  std::vector<Word> out(words);
  CoreContext ctx(isa_costs(CoreKind::kWolfRv32), 1.0);
  rotate1_xor_range(ctx, dim, acc.words(), spatial.words(), out, 0, words);
  const Hypervector golden = acc.rotated(1) ^ spatial;
  EXPECT_EQ(Hypervector(dim, out), golden) << "dim=" << dim;
}

INSTANTIATE_TEST_SUITE_P(Dims, Rotate1XorTest,
                         ::testing::Values(32ul, 33ul, 64ul, 100ul, 313ul, 1000ul,
                                           10000ul));

TEST(Rotate1Xor, SplitRangesComposeToFullResult) {
  // Cores process disjoint word ranges; the assembled result must equal the
  // single-range computation.
  const std::size_t dim = 10000;
  const std::size_t words = words_for_dim(dim);
  Xoshiro256StarStar rng(14);
  const Hypervector acc = Hypervector::random(dim, rng);
  const Hypervector spatial = Hypervector::random(dim, rng);
  std::vector<Word> whole(words);
  std::vector<Word> pieces(words);
  CoreContext ctx(isa_costs(CoreKind::kWolfRv32), 1.0);
  rotate1_xor_range(ctx, dim, acc.words(), spatial.words(), whole, 0, words);
  for (const auto [b, e] : {std::pair<std::size_t, std::size_t>{0, 100},
                            {100, 200},
                            {200, words}}) {
    rotate1_xor_range(ctx, dim, acc.words(), spatial.words(), pieces, b, e);
  }
  EXPECT_EQ(whole, pieces);
}

TEST(HammingPartial, MatchesGoldenDistances) {
  const std::size_t words = 313;
  const auto protos = random_rows(5, words, 15);
  const auto query = random_rows(1, words, 16);
  std::vector<std::uint64_t> partial(5, 0);
  CoreContext ctx(isa_costs(CoreKind::kWolfRv32Builtin), 1.0);
  hamming_partial_range(ctx, query[0], spans_of(protos), partial, 0, words);
  const Hypervector q(words * 32, query[0]);
  for (std::size_t c = 0; c < 5; ++c) {
    EXPECT_EQ(partial[c], q.hamming(Hypervector(words * 32, protos[c])));
  }
}

TEST(HammingPartial, RangesAccumulate) {
  const std::size_t words = 64;
  const auto protos = random_rows(3, words, 17);
  const auto query = random_rows(1, words, 18);
  std::vector<std::uint64_t> full(3, 0);
  std::vector<std::uint64_t> split(3, 0);
  CoreContext ctx(isa_costs(CoreKind::kWolfRv32), 1.0);
  hamming_partial_range(ctx, query[0], spans_of(protos), full, 0, words);
  hamming_partial_range(ctx, query[0], spans_of(protos), split, 0, 30);
  hamming_partial_range(ctx, query[0], spans_of(protos), split, 30, words);
  EXPECT_EQ(full, split);
}

TEST(HammingPartial, PopcountDominatesOnCoresWithoutPcnt) {
  const auto protos = random_rows(5, 313, 19);
  const auto query = random_rows(1, 313, 20);
  std::vector<std::uint64_t> partial(5, 0);
  CoreContext swar(isa_costs(CoreKind::kWolfRv32), 1.0);
  CoreContext pcnt(isa_costs(CoreKind::kWolfRv32Builtin), 1.0);
  hamming_partial_range(swar, query[0], spans_of(protos), partial, 0, 313);
  std::fill(partial.begin(), partial.end(), 0u);
  hamming_partial_range(pcnt, query[0], spans_of(protos), partial, 0, 313);
  // Table 3 AM kernel: 33 k vs 12 k cycles -> roughly 2.5-3x.
  const double ratio = static_cast<double>(swar.cycles()) / static_cast<double>(pcnt.cycles());
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 3.5);
}

TEST(QuantizeValue, MatchesContinuousItemMemory) {
  const hd::ContinuousItemMemory cim(22, 64, 0.0, 21.0, 21);
  CoreContext ctx(isa_costs(CoreKind::kWolfRv32), 1.0);
  for (float v = -2.0f; v < 24.0f; v += 0.1f) {
    EXPECT_EQ(quantize_value(ctx, v, 22, 0.0, 21.0), cim.quantize(v)) << "v=" << v;
  }
}

TEST(QuantizeValue, ChargesFloatPipeline) {
  CoreContext ctx(isa_costs(CoreKind::kWolfRv32), 1.0);
  (void)quantize_value(ctx, 5.0f, 22, 0.0, 21.0);
  EXPECT_GT(ctx.cycles(), 0u);
  EXPECT_LT(ctx.cycles(), 20u);  // the mapping prologue is tiny (§3)
}

TEST(QuantizeValue, ValidatesArguments) {
  CoreContext ctx(isa_costs(CoreKind::kWolfRv32), 1.0);
  EXPECT_THROW((void)quantize_value(ctx, 1.0f, 1, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)quantize_value(ctx, 1.0f, 4, 2.0, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace pulphd::kernels
