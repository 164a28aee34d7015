#include "kernels/primitives.hpp"

#include <algorithm>
#include <cmath>

#include "common/status.hpp"

namespace pulphd::kernels {

void bind_range(sim::CoreContext& ctx, std::span<const Word> a, std::span<const Word> b,
                std::span<Word> out, std::size_t begin, std::size_t end) {
  PULPHD_CHECK(end <= a.size() && end <= b.size() && end <= out.size());
  for (std::size_t w = begin; w < end; ++w) {
    // ld a[w]; ld b[w]; xor; st out[w]; pointer bumps; loop bookkeeping
    ctx.load_l1(2);
    ctx.addr_update(2);
    ctx.alu(1);
    ctx.store_l1(1);
    ctx.addr_update(1);
    ctx.loop_iters(1);
    out[w] = a[w] ^ b[w];
  }
}

void majority_range(sim::CoreContext& ctx, std::span<const std::span<const Word>> rows,
                    std::span<Word> out, std::size_t begin, std::size_t end) {
  const auto& isa = ctx.isa();
  if (isa.has_bitfield && isa.has_popcount) {
    majority_range_builtin(ctx, rows, out, begin, end);
  } else {
    majority_range_generic(ctx, rows, out, begin, end);
  }
}

void majority_range_generic(sim::CoreContext& ctx,
                            std::span<const std::span<const Word>> rows, std::span<Word> out,
                            std::size_t begin, std::size_t end) {
  require(rows.size() % 2 == 1, "majority_range: operand count must be odd");
  const std::size_t half = rows.size() / 2;
  for (std::size_t w = begin; w < end; ++w) {
    Word result = 0;
    ctx.loop_iters(1);  // word loop
    for (unsigned b = 0; b < kWordBits; ++b) {
      ctx.loop_iters(1);  // bit loop
      std::size_t ones = 0;
      for (const auto& row : rows) {
        // The portable C inner loop re-loads row[w] each iteration (the
        // compiler cannot keep `rows.size()` words in registers across the
        // variable-count loop), then (word >> b) & 1 and an accumulate.
        ctx.loop_iters(1);
        ctx.load_l1(1);
        ctx.addr_update(1);
        ctx.bit_extract(1);  // shift+and (folded to 1 op on the M4)
        ctx.alu(1);          // sum += bit
        ones += extract_bit(row[w], b);
      }
      ctx.alu(1);  // compare against half
      if (ones > half) result = insert_bit(result, b, 1u);
      ctx.bit_insert(1);  // branchless set of the result bit
    }
    ctx.store_l1(1);
    ctx.addr_update(1);
    out[w] = result;
  }
}

void majority_range_builtin(sim::CoreContext& ctx,
                            std::span<const std::span<const Word>> rows, std::span<Word> out,
                            std::size_t begin, std::size_t end) {
  require(rows.size() % 2 == 1, "majority_range: operand count must be odd");
  const std::size_t half = rows.size() / 2;
  // With up to 8 operands the bound words of a column fit in registers and
  // are loaded once per word; wider channel counts (Fig. 5) spill and
  // re-load each operand word inside the bit loop.
  const bool rows_in_registers = rows.size() <= 8;
  for (std::size_t w = begin; w < end; ++w) {
    if (rows_in_registers) ctx.load_l1(static_cast<std::uint64_t>(rows.size()));
    ctx.loop_iters(1);  // word loop
    Word result = 0;
    for (unsigned b = 0; b < kWordBits; ++b) {
      ctx.loop_iters(1);  // bit loop (hardware loop: 1-cycle residue modeled)
      std::size_t ones = 0;
      // Fig. 2's sequence: p.extractu bit b of each operand, p.insert into a
      // scratch word, p.cnt the packed bits. Operand counts beyond 32 are
      // processed in word-sized groups whose popcounts accumulate.
      for (std::size_t base = 0; base < rows.size(); base += kWordBits) {
        const std::size_t group = std::min<std::size_t>(kWordBits, rows.size() - base);
        Word packed = 0;
        for (std::size_t k = 0; k < group; ++k) {
          if (!rows_in_registers) {
            ctx.load_l1(1);
          }
          ctx.bit_extract(1);
          ctx.bit_insert(1);
          packed = insert_field(packed, static_cast<unsigned>(k), 1,
                                extract_bit(rows[base + k][w], b));
        }
        ctx.popcount(1);  // p.cnt
        if (base != 0) ctx.alu(1);  // accumulate group popcounts
        ones += static_cast<std::size_t>(popcount(packed));
      }
      ctx.alu(1);  // compare against half
      const Word bit = ones > half ? 1u : 0u;
      ctx.bit_insert(1);  // p.insert into the result word
      result = insert_bit(result, b, bit);
    }
    ctx.store_l1(1);
    out[w] = result;
  }
}

void rotate1_xor_range(sim::CoreContext& ctx, std::size_t dim, std::span<const Word> acc,
                       std::span<const Word> spatial, std::span<Word> out, std::size_t begin,
                       std::size_t end) {
  PULPHD_CHECK(end <= acc.size() && end <= spatial.size() && end <= out.size());
  const std::size_t last = acc.size() - 1;
  const unsigned top_pos = static_cast<unsigned>((dim - 1) % kWordBits);
  for (std::size_t w = begin; w < end; ++w) {
    // Carry into word w is the top component for w == 0 (wrap-around) and
    // bit 31 of the previous word otherwise.
    const Word carry = (w == 0) ? extract_bit(acc[last], top_pos)
                                : extract_bit(acc[w - 1], kWordBits - 1);
    // ld acc[w]; ld carry source; shl; or; ld spatial[w]; xor; st
    ctx.load_l1(3);
    ctx.addr_update(3);
    ctx.alu(3);
    ctx.store_l1(1);
    ctx.loop_iters(1);
    Word shifted = (acc[w] << 1) | carry;
    if (w == last) {
      const unsigned used = static_cast<unsigned>(dim % kWordBits);
      if (used != 0) shifted &= low_bits_mask(used);
      ctx.alu(1);  // padding mask on the tail word
    }
    out[w] = shifted ^ spatial[w];
  }
}

void hamming_partial_range(sim::CoreContext& ctx, std::span<const Word> query,
                           std::span<const std::span<const Word>> prototypes,
                           std::span<std::uint64_t> partial, std::size_t begin,
                           std::size_t end) {
  PULPHD_CHECK(partial.size() == prototypes.size());
  for (std::size_t c = 0; c < prototypes.size(); ++c) {
    ctx.loop_iters(1);  // class loop
    ctx.alu(1);         // accumulator init
    std::uint64_t sum = 0;
    for (std::size_t w = begin; w < end; ++w) {
      // ld query[w]; ld proto[w]; xor; popcount; accumulate
      ctx.loop_iters(1);
      ctx.load_l1(2);
      ctx.addr_update(2);
      ctx.alu(1);
      ctx.popcount(1);
      ctx.alu(1);
      sum += static_cast<std::uint64_t>(popcount(query[w] ^ prototypes[c][w]));
    }
    partial[c] += sum;
  }
}

std::size_t quantize_value(sim::CoreContext& ctx, float value, std::size_t levels,
                           double min_value, double max_value) {
  require(levels >= 2, "quantize_value: levels must be >= 2");
  require(min_value < max_value, "quantize_value: bad range");
  // ld sample; two range clamps; scale (sub, mul); round; index cast
  ctx.load_l1(1);
  ctx.alu(4);
  ctx.mul(1);
  const double v = static_cast<double>(value);
  if (v <= min_value) return 0;
  if (v >= max_value) return levels - 1;
  const double unit = (v - min_value) / (max_value - min_value);
  return static_cast<std::size_t>(
      std::lround(unit * static_cast<double>(levels - 1)));
}

}  // namespace pulphd::kernels
