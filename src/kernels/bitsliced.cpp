#include "kernels/bitsliced.hpp"

#include <algorithm>
#include <vector>

#include "common/status.hpp"
#include "kernels/backend_registry.hpp"

namespace pulphd::kernels {

void majority_range_bitsliced(sim::CoreContext& ctx,
                              std::span<const std::span<const Word>> rows,
                              std::span<Word> out, std::size_t begin, std::size_t end) {
  require(rows.size() % 2 == 1, "majority_range_bitsliced: operand count must be odd");
  const std::size_t n = rows.size();
  const std::size_t threshold = n / 2;
  const unsigned planes = detail::threshold_planes(n);

  std::vector<Word> counter(planes);
  for (std::size_t w = begin; w < end; ++w) {
    ctx.loop_iters(1);  // word loop
    std::fill(counter.begin(), counter.end(), 0u);
    ctx.alu(planes);  // counter clear (register moves)
    for (const auto& row : rows) {
      // ld operand word, then a half-adder per plane: carry = plane & x;
      // plane ^= x; x = carry. Rippling stops early when the carry dies,
      // but the static code charges the full chain (no data-dependent
      // branches in the inner loop).
      ctx.loop_iters(1);
      ctx.load_l1(1);
      ctx.addr_update(1);
      ctx.alu(2 * planes);
      Word carry = row[w];
      for (unsigned p = 0; p < planes && carry != 0; ++p) {
        const Word next = counter[p] & carry;
        counter[p] ^= carry;
        carry = next;
      }
    }
    // Bitwise MSB-first comparison count > threshold:
    //   gt |= eq & plane & ~t;  eq &= ~(plane ^ t)  — 4 ops per plane.
    ctx.alu(4 * planes);
    Word gt = 0;
    Word eq = ~Word{0};
    for (unsigned p = planes; p-- > 0;) {
      const Word tbit = (threshold >> p) & 1u ? ~Word{0} : Word{0};
      gt |= eq & counter[p] & ~tbit;
      eq &= ~(counter[p] ^ tbit);
    }
    ctx.store_l1(1);
    ctx.addr_update(1);
    out[w] = gt;
  }
}

}  // namespace pulphd::kernels
