#include "kernels/chain.hpp"

#include <algorithm>

#include "common/status.hpp"
#include "kernels/primitives.hpp"
#include "sim/dma.hpp"

namespace pulphd::kernels {
namespace {

/// Composes a kernel's compute time with its DMA tile transfers (of
/// `tile_bytes` each) and returns {stage_total, exposed_dma}. Tiles are
/// processed round-robin with ping/pong L1 buffers when double buffering is
/// on; otherwise each tile's transfer fully precedes its compute. A cluster
/// without DMA staging charges compute only.
struct DmaOutcome {
  std::uint64_t stage_cycles = 0;
  std::uint64_t exposed = 0;
  std::uint64_t transfer_total = 0;
};

DmaOutcome compose_dma(const sim::ClusterConfig& cluster, const ChainConfig& config,
                       std::uint64_t compute_cycles, const std::vector<std::uint64_t>& tile_bytes) {
  DmaOutcome outcome;
  if (!cluster.dma || tile_bytes.empty()) {
    outcome.stage_cycles = compute_cycles;
    return outcome;
  }
  sim::DoubleBufferTimeline timeline;
  const auto tiles = static_cast<std::uint64_t>(tile_bytes.size());
  const std::uint64_t compute_share = compute_cycles / tiles;
  std::uint64_t compute_left = compute_cycles;
  for (std::size_t i = 0; i < tile_bytes.size(); ++i) {
    const std::uint64_t share = (i + 1 == tile_bytes.size()) ? compute_left : compute_share;
    compute_left -= share;
    timeline.add_tile(cluster.dma->transfer_cycles(tile_bytes[i]), share);
  }
  outcome.transfer_total = timeline.total_transfer_cycles();
  outcome.stage_cycles = config.double_buffering ? timeline.overlapped_cycles()
                                                 : timeline.serialized_cycles();
  outcome.exposed = outcome.stage_cycles - compute_cycles;
  return outcome;
}

}  // namespace

ProcessingChain::ProcessingChain(sim::ClusterConfig cluster, const hd::HdClassifier& model,
                                 ChainConfig config)
    : cluster_(std::move(cluster)), model_(&model), config_(config) {
  cluster_.validate();
  require(model.am().is_trained(), "ProcessingChain: the model's AM must be trained");
}

ChainRun ProcessingChain::classify(std::span<const hd::Sample> window) const {
  const hd::ClassifierConfig& cfg = model_->config();
  require(window.size() == cfg.ngram,
          "ProcessingChain::classify: window must hold exactly N samples");
  for (const hd::Sample& s : window) {
    require(s.size() == cfg.channels,
            "ProcessingChain::classify: sample size != channel count");
  }

  const std::size_t words = words_for_dim(cfg.dim);
  const std::size_t row_bytes = words * sizeof(Word);
  const std::size_t bound_count = cfg.channels + (cfg.channels % 2 == 0 ? 1 : 0);
  const bool parallel = cluster_.cores > 1;

  sim::ParallelRuntime rt(cluster_);
  ChainBreakdown bd;
  double min_balance = 1.0;
  std::uint64_t map_barriers = 0;

  const auto track = [&min_balance](const sim::RegionResult& r) {
    min_balance = std::min(min_balance, r.balance());
  };

  // ---------------- kernel 1+2: mapping + spatial + temporal encoders -----
  std::vector<std::vector<Word>> spatials;
  spatials.reserve(window.size());
  std::vector<std::vector<Word>> bound(bound_count, std::vector<Word>(words, 0u));
  std::vector<std::uint64_t> map_tiles;  // bytes of one DMA tile per (sample, channel)

  for (const hd::Sample& sample : window) {
    // CIM quantization of every channel — a scalar prologue on one core.
    std::vector<std::size_t> level(cfg.channels);
    bd.quantize += rt.serial([&](sim::CoreContext& ctx) {
      for (std::size_t c = 0; c < cfg.channels; ++c) {
        level[c] = quantize_value(ctx, model_->cim(), sample[c]);
      }
    });

    // Channel binding: one work-sharing loop over words computes all bound
    // hypervectors (plus the §5.1 tie-break operand for even channel
    // counts). Each core handles the same word slice of every operand, so
    // the tie-break XOR reads words that core just produced.
    const sim::RegionResult bind_region =
        rt.parallel_for(words, [&](sim::CoreContext& ctx, std::size_t b, std::size_t e) {
          for (std::size_t c = 0; c < cfg.channels; ++c) {
            bind_range(ctx, model_->im().at(c).words(),
                       model_->cim().level(level[c]).words(), bound[c], b, e);
          }
          if (bound_count > cfg.channels) {
            bind_range(ctx, bound[0], bound[1], bound[bound_count - 1], b, e);
          }
        });
    bd.bind += bind_region.makespan_cycles;
    track(bind_region);
    ++map_barriers;  // implicit barrier before the majority loop

    // Componentwise majority -> spatial hypervector.
    std::vector<std::span<const Word>> rows;
    rows.reserve(bound_count);
    for (const auto& row : bound) rows.emplace_back(row);
    std::vector<Word> spatial(words, 0u);
    const sim::RegionResult maj_region =
        rt.parallel_for(words, [&](sim::CoreContext& ctx, std::size_t b, std::size_t e) {
          majority_range(ctx, rows, spatial, b, e);
        });
    bd.majority += maj_region.makespan_cycles;
    track(maj_region);

    // Each channel's IM and CIM rows stream from L2 for this sample.
    for (std::size_t c = 0; c < cfg.channels; ++c) {
      map_tiles.push_back(2 * row_bytes);
    }
    spatials.push_back(std::move(spatial));
  }

  // Temporal encoder: fold the window right-to-left,
  //   acc <- S_k ^ rot1(acc),   k = N-2 .. 0
  // which expands to S_0 ^ rho^1 S_1 ^ ... ^ rho^(N-1) S_{N-1}.
  std::vector<Word> acc = spatials.back();
  for (std::size_t k = window.size() - 1; k-- > 0;) {
    std::vector<Word> next(words, 0u);
    const sim::RegionResult rot_region =
        rt.parallel_for(words, [&](sim::CoreContext& ctx, std::size_t b, std::size_t e) {
          rotate1_xor_range(ctx, cfg.dim, acc, spatials[k], next, b, e);
        });
    bd.temporal += rot_region.makespan_cycles;
    track(rot_region);
    ++map_barriers;
    acc = std::move(next);
  }

  const std::uint64_t map_compute = bd.quantize + bd.bind + bd.majority + bd.temporal;
  const DmaOutcome map_dma = compose_dma(cluster_, config_, map_compute, map_tiles);
  bd.map_encode_overhead =
      (parallel ? cluster_.fork_join_cycles + map_barriers * cluster_.barrier_cycles : 0) +
      map_dma.exposed;

  // ---------------- kernel 3: associative memory --------------------------
  hd::Hypervector query(cfg.dim, acc);

  std::vector<std::span<const Word>> prototypes;
  prototypes.reserve(cfg.classes);
  for (std::size_t c = 0; c < cfg.classes; ++c) {
    prototypes.emplace_back(model_->am().prototype(c).words());
  }

  std::vector<std::vector<std::uint64_t>> partials;
  const sim::RegionResult am_region =
      rt.parallel_for(words, [&](sim::CoreContext& ctx, std::size_t b, std::size_t e) {
        partials.emplace_back(cfg.classes, 0u);
        hamming_partial_range(ctx, query.words(), prototypes, partials.back(), b, e);
      });
  bd.am_compute = am_region.makespan_cycles;
  track(am_region);

  // Cross-core reduction and winner selection on core 0.
  std::vector<std::size_t> distances(cfg.classes, 0);
  bd.am_reduce = rt.serial([&](sim::CoreContext& ctx) {
    for (std::size_t c = 0; c < cfg.classes; ++c) {
      for (const auto& part : partials) {
        ctx.load_l1(1);
        ctx.alu(1);
        distances[c] += part[c];
      }
      ctx.alu(1);  // running-minimum compare
    }
  });

  const std::vector<std::uint64_t> am_tiles(cfg.classes, row_bytes);
  const DmaOutcome am_dma = compose_dma(cluster_, config_, bd.am_compute, am_tiles);
  bd.am_overhead =
      (parallel ? cluster_.fork_join_cycles + cluster_.barrier_cycles : 0) + am_dma.exposed;

  bd.dma_transfer_total = map_dma.transfer_total + am_dma.transfer_total;
  bd.dma_exposed = map_dma.exposed + am_dma.exposed;

  ChainRun run{.decision = {}, .query = std::move(query), .cycles = bd,
               .parallel_balance = min_balance};
  run.decision.distances = distances;
  const auto best = std::min_element(distances.begin(), distances.end());
  run.decision.label = static_cast<std::size_t>(best - distances.begin());
  run.decision.distance = *best;
  return run;
}

ChainFootprint ProcessingChain::footprint() const noexcept {
  const hd::ClassifierConfig& cfg = model_->config();
  const std::size_t row_bytes = words_for_dim(cfg.dim) * sizeof(Word);
  const std::size_t bound_count = cfg.channels + (cfg.channels % 2 == 0 ? 1 : 0);
  ChainFootprint fp;
  fp.im_bytes = cfg.channels * row_bytes;
  fp.cim_bytes = cfg.levels * row_bytes;
  fp.am_bytes = cfg.classes * row_bytes;
  // L1 working set: the bound operands, the spatial hypervector, the N-gram
  // accumulator ping/pong pair when N > 1, and two DMA staging rows.
  const std::size_t temporal_rows = cfg.ngram > 1 ? 2 : 0;
  fp.l1_buffers_bytes = (bound_count + 1 + temporal_rows + 2) * row_bytes;
  return fp;
}

}  // namespace pulphd::kernels
