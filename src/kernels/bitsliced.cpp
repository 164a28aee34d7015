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

void CounterBundle::reset(std::size_t words, std::size_t expected_adds) {
  require(words >= 1, "CounterBundle::reset: words must be >= 1");
  words_ = words;
  num_planes_ = detail::threshold_planes(expected_adds);
  adds_ = 0;
  planes_.resize(static_cast<std::size_t>(num_planes_) * words_);
  std::fill(planes_.begin(), planes_.end(), Word{0});
}

void CounterBundle::add(const Backend& backend, const Word* row) {
  check_invariant(words_ >= 1, "CounterBundle::add: reset() not called");
  backend.accumulate_counters(row, planes_.data(), num_planes_, words_);
  ++adds_;
}

void CounterBundle::majority(const Backend& backend, const Word* tie_break,
                             Word* out) const {
  check_invariant(adds_ >= 1, "CounterBundle::majority: nothing accumulated");
  // Beyond the provisioned capacity the counters have saturated and the
  // threshold would overflow the comparator's plane walk (its high bits are
  // never read, silently inverting the readout) — refuse instead.
  require(adds_ < (std::uint64_t{1} << num_planes_),
          "CounterBundle::majority: more rows added than reset() provisioned");
  // Exact ties (count * 2 == adds) exist only for even add counts; for odd
  // counts the > adds/2 comparator alone is the exact majority, and an
  // equal-to-floor-half column is a strict minority, so the tie-break must
  // stay out of the readout.
  const Word* tie = adds_ % 2 == 0 ? tie_break : nullptr;
  require(adds_ % 2 != 0 || tie != nullptr,
          "CounterBundle::majority: even add count needs a tie-break row");
  backend.counters_to_majority(planes_.data(), num_planes_, adds_ / 2, tie, out, words_);
}

}  // namespace pulphd::kernels
