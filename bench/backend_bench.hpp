// Shared machine-readable kernel-backend benchmark suite.
//
// Drives every compiled+supported kernel backend through the library's hot
// kernels (batched AM search, bulk XOR, bulk majority, batch spatial encode
// at the paper point and the bulk serving shape, a paper-point stream push,
// end-to-end encode_trials) with warmup iterations and median-of-N timing,
// and emits the rows as BENCH_hd_ops.json so the repo's perf trajectory is
// recorded in a diffable form:
//
//   {"kernel": "am_classify_batch", "backend": "avx2", "threads": 1,
//    "dim": 10048, "batch": 1024, "ns_per_query": 812.4, "gb_per_s": 30.9,
//    "reps": 9, "warmup": 3}
//
// ns_per_query is the median over `reps` timed repetitions (each a
// calibrated block of inner iterations) divided by the items per call;
// gb_per_s is the kernel's streamed bytes per item at that rate. Used by
// both bench_hd_ops (alongside its google-benchmark micro benches) and the
// standalone bench_backends binary.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "emg/dataset.hpp"
#include "emg/protocol.hpp"
#include "hd/associative_memory.hpp"
#include "hd/classifier.hpp"
#include "hd/encoder.hpp"
#include "hd/item_memory.hpp"
#include "kernels/backend.hpp"

namespace pulphd::benchjson {

struct BenchRow {
  std::string kernel;
  std::string backend;
  std::size_t threads = 1;
  std::size_t dim = 0;
  std::size_t batch = 1;
  double ns_per_query = 0.0;
  double gb_per_s = 0.0;
  std::size_t reps = 0;
  std::size_t warmup = 0;
};

struct SuiteOptions {
  bool quick = false;  ///< CI smoke mode: fewer reps, shorter blocks, fewer configs
};

namespace detail {

inline double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/// Times fn with `warmup` discarded repetitions followed by `reps` timed
/// ones and returns the median ns per item. Each repetition runs a block of
/// inner iterations calibrated once to ~target_ms so short kernels are not
/// measured at clock resolution.
template <typename F>
double median_ns_per_item(F&& fn, std::size_t items_per_call, std::size_t warmup,
                          std::size_t reps, double target_ms) {
  using Clock = std::chrono::steady_clock;
  const auto once_begin = Clock::now();
  fn();
  const auto once_end = Clock::now();
  const double once_ns = std::max(
      1.0, std::chrono::duration<double, std::nano>(once_end - once_begin).count());
  const auto inner = static_cast<std::size_t>(
      std::max(1.0, (target_ms * 1e6) / once_ns));
  for (std::size_t i = 0; i < warmup; ++i) {
    for (std::size_t k = 0; k < inner; ++k) fn();
  }
  std::vector<double> samples;
  samples.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    const auto begin = Clock::now();
    for (std::size_t k = 0; k < inner; ++k) fn();
    const auto end = Clock::now();
    samples.push_back(std::chrono::duration<double, std::nano>(end - begin).count() /
                      static_cast<double>(inner * items_per_call));
  }
  return median(std::move(samples));
}

inline std::vector<Word> random_words(std::size_t count, Xoshiro256StarStar& rng) {
  std::vector<Word> words(count);
  for (auto& w : words) w = static_cast<Word>(rng.next() & 0xffffffffu);
  return words;
}

}  // namespace detail

inline std::vector<BenchRow> run_backend_suite(const SuiteOptions& opt) {
  const std::size_t warmup = opt.quick ? 1 : 3;
  const std::size_t reps = opt.quick ? 3 : 9;
  const double target_ms = opt.quick ? 2.0 : 10.0;
  const std::vector<std::size_t> dims =
      opt.quick ? std::vector<std::size_t>{10048} : std::vector<std::size_t>{10016, 10048};
  const std::vector<std::size_t> thread_counts =
      opt.quick ? std::vector<std::size_t>{1, 2} : std::vector<std::size_t>{1, 2, 4};
  const std::size_t am_batch = opt.quick ? 256 : 1024;
  const std::size_t classes = 5;
  const std::size_t majority_row_counts[] = {5, 9, 33};
  const std::size_t max_majority_rows = 33;
  const std::size_t encode_batch = opt.quick ? 64 : 256;
  const std::size_t trials_batch = opt.quick ? 16 : 64;
  const std::size_t samples_per_trial = 20;

  std::vector<const kernels::Backend*> backends;
  for (const kernels::Backend* b : kernels::compiled_backends()) {
    if (b->supported()) backends.push_back(b);
  }

  std::vector<BenchRow> rows;
  Xoshiro256StarStar rng(0xbe7c4);
  const double word_bytes = static_cast<double>(sizeof(Word));

  auto push_row = [&](const char* kernel, const kernels::Backend* backend,
                      std::size_t threads, std::size_t dim, std::size_t batch,
                      double ns_per_query, double bytes_per_query) {
    BenchRow row;
    row.kernel = kernel;
    row.backend = backend->name;
    row.threads = threads;
    row.dim = dim;
    row.batch = batch;
    row.ns_per_query = ns_per_query;
    row.gb_per_s = bytes_per_query / ns_per_query;  // bytes/ns == GB/s
    row.reps = reps;
    row.warmup = warmup;
    rows.push_back(row);
  };

  // majority_words: threshold_words over the first `majority_rows` rows of
  // a row-major random matrix.
  auto push_majority_row = [&](const kernels::Backend* backend, std::size_t dim,
                               const std::vector<Word>& matrix, std::size_t majority_rows) {
    const std::size_t words = words_for_dim(dim);
    std::vector<const Word*> row_ptrs(majority_rows);
    for (std::size_t r = 0; r < majority_rows; ++r) row_ptrs[r] = matrix.data() + r * words;
    std::vector<Word> out(words);
    const double ns = detail::median_ns_per_item(
        [&] {
          backend->threshold_words(row_ptrs.data(), majority_rows, majority_rows / 2,
                                   out.data(), words);
        },
        1, warmup, reps, target_ms);
    push_row("majority_words", backend, 1, dim, majority_rows, ns,
             static_cast<double>(majority_rows + 1) * static_cast<double>(words) * word_bytes);
  };

  // spatial_encode_batch: SpatialEncoder::encode_batch over a batch of
  // random samples, per sample.
  auto push_spatial_row = [&](const kernels::Backend* backend, std::size_t dim,
                              std::size_t channels, std::size_t levels) {
    const hd::ItemMemory im(channels, dim, 5);
    const hd::ContinuousItemMemory cim(levels, dim, 0.0, 21.0, 6);
    const hd::SpatialEncoder enc(im, cim, channels);
    std::vector<std::vector<float>> samples(encode_batch, std::vector<float>(channels));
    for (auto& sample : samples) {
      for (auto& v : sample) v = static_cast<float>(rng.next() % 2100u) / 100.0f;
    }
    std::vector<hd::Hypervector> out(encode_batch, hd::Hypervector(dim));
    const double ns = detail::median_ns_per_item([&] { enc.encode_batch(samples, out); },
                                                 encode_batch, warmup, reps, target_ms);
    // The majority reads R table rows and writes one; an even channel
    // count first XORs two rows into the tie-break row R.
    const bool even = channels % 2 == 0;
    const double rows_streamed = static_cast<double>(channels + 1) + (even ? 4.0 : 0.0);
    push_row("spatial_encode_batch", backend, 1, dim, encode_batch, ns,
             rows_streamed * static_cast<double>(words_for_dim(dim)) * word_bytes);
  };

  // encode_trials: end-to-end trial encoding (spatial + temporal +
  // bundling) across every supported backend and the thread knob — the
  // rows the thread scaling (or its absence; see the "cores" field) is
  // read from.
  auto push_encode_trials_rows = [&](hd::HdClassifier& clf,
                                     const std::vector<hd::Trial>& trials) {
    const hd::ClassifierConfig& cfg = clf.config();
    const std::size_t words_per_sample = (cfg.channels + 1) * words_for_dim(cfg.dim);
    for (const kernels::Backend* backend : backends) {
      const kernels::ScopedBackend forced(backend);
      for (const std::size_t threads : thread_counts) {
        clf.set_threads(threads);
        const double ns = detail::median_ns_per_item(
            [&] { clf.encode_trials(trials); }, trials.size(), warmup, reps, target_ms);
        push_row("encode_trials", backend, threads, cfg.dim, trials.size(), ns,
                 static_cast<double>(samples_per_trial) * 5.0 *
                     static_cast<double>(words_per_sample) * word_bytes);
      }
    }
  };

  for (const std::size_t dim : dims) {
    const std::size_t words = words_for_dim(dim);

    // Shared random operands per dim so every backend times identical data.
    hd::AssociativeMemory am(classes, dim, 7);
    std::vector<hd::Hypervector> prototypes;
    for (std::size_t c = 0; c < classes; ++c) {
      prototypes.push_back(hd::Hypervector::random(dim, rng));
    }
    am.load_prototypes(std::move(prototypes));
    std::vector<hd::Hypervector> queries;
    for (std::size_t q = 0; q < am_batch; ++q) {
      queries.push_back(hd::Hypervector::random(dim, rng));
    }
    const std::vector<Word> row_a = detail::random_words(words, rng);
    const std::vector<Word> row_b = detail::random_words(words, rng);
    const std::vector<Word> majority_matrix =
        detail::random_words(max_majority_rows * words, rng);

    for (const kernels::Backend* backend : backends) {
      const kernels::ScopedBackend forced(backend);

      // am_classify_batch: the AM search, sharded over queries.
      for (const std::size_t threads : thread_counts) {
        const double ns = detail::median_ns_per_item(
            [&] { (void)am.classify_batch(queries, threads); }, am_batch, warmup, reps,
            target_ms);
        push_row("am_classify_batch", backend, threads, dim, am_batch, ns,
                 2.0 * static_cast<double>(classes * words) * word_bytes);
      }

      // hamming_words: one packed-row distance. The volatile store keeps
      // the call from being optimized out.
      {
        volatile std::uint64_t sink = 0;
        const double ns = detail::median_ns_per_item(
            [&] { sink = backend->hamming_words(row_a.data(), row_b.data(), words); }, 1,
            warmup, reps, target_ms);
        (void)sink;
        push_row("hamming_words", backend, 1, dim, 1, ns,
                 2.0 * static_cast<double>(words) * word_bytes);
      }

      // xor_words: bulk binding.
      {
        std::vector<Word> out(words);
        const double ns = detail::median_ns_per_item(
            [&] { backend->xor_words(row_a.data(), row_b.data(), out.data(), words); }, 1,
            warmup, reps, target_ms);
        push_row("xor_words", backend, 1, dim, 1, ns,
                 3.0 * static_cast<double>(words) * word_bytes);
      }

      // majority_words: bit-sliced bundling over 5, 9 and 33 rows (the
      // paper point's 4 channels and the bulk model's 32, each plus the
      // tie-break row).
      for (const std::size_t majority_rows : majority_row_counts) {
        push_majority_row(backend, dim, majority_matrix, majority_rows);
      }

      // spatial_encode_batch at the paper point: 4 channels, 22 levels.
      push_spatial_row(backend, dim, 4, 22);
    }

    // encode_trials at the paper point, on random samples.
    {
      hd::ClassifierConfig cfg;
      cfg.dim = dim;
      hd::HdClassifier clf(cfg);
      std::vector<hd::Trial> trials(trials_batch);
      for (auto& trial : trials) {
        for (std::size_t s = 0; s < samples_per_trial; ++s) {
          hd::Sample sample(cfg.channels);
          for (auto& v : sample) {
            v = static_cast<float>(rng.next() % 2100u) / 100.0f;
          }
          trial.push_back(std::move(sample));
        }
      }
      push_encode_trials_rows(clf, trials);
    }
  }

  // stream_push at the paper's operating point: D = 10,000, 4 channels,
  // N = 1, a 20-sample window every 5 samples, timed per 5-sample push. The
  // samples are EMG active segments at the full 500 Hz, so the grams (and
  // the bundling's data-dependent carries) look like a served stream's,
  // not like a constant or uniform-random row's.
  {
    const std::size_t window = 20;
    const std::size_t hop = 5;
    emg::GeneratorConfig gen;
    gen.subjects = 1;
    const emg::EmgDataset ds = emg::generate_dataset(gen);
    emg::ProtocolConfig full_rate;
    full_rate.hd_sample_stride = 1;
    hd::Trial recording;
    for (const emg::EmgTrial* trial : ds.subject_trials(0)) {
      const hd::Trial segment = emg::active_segment(trial->envelope, full_rate);
      recording.insert(recording.end(), segment.begin(), segment.end());
    }
    const std::span<const hd::Sample> samples(recording);
    const hd::ClassifierConfig cfg;  // the paper point
    const hd::HdClassifier clf(cfg);
    const std::size_t words = words_for_dim(cfg.dim);
    for (const kernels::Backend* backend : backends) {
      const kernels::ScopedBackend forced(backend);
      hd::StreamingEncoder session = clf.make_streaming_encoder();
      session.configure(window, hop);
      std::vector<hd::Hypervector> out;
      session.push(samples.first(window - hop), out);
      std::size_t next = window - hop;
      // Every push of `hop` samples completes exactly one window; wrapping
      // to the recording's start just continues the stream.
      const double ns = detail::median_ns_per_item(
          [&] {
            if (next + hop > samples.size()) next = 0;
            out.clear();
            session.push(samples.subspan(next, hop), out);
            next += hop;
          },
          1, warmup, reps, target_ms);
      // Per push: each sample's spatial majority reads the 4 table rows,
      // the tie-break inputs and writes one row (9 rows, as in
      // spatial_encode_batch); each gram is then read once and rippled
      // through its hop block's 3 planes (read and written), and the
      // push's one readout reads the window / hop blocks' planes.
      constexpr std::size_t kBlockPlanes = 3;  // counts up to hop = 5 grams
      push_row("stream_push", backend, 1, cfg.dim, hop, ns,
               static_cast<double>((hop * (9 + 1 + 2 * kBlockPlanes) +
                                    window / hop * kBlockPlanes) *
                                   words) *
                   word_bytes);
    }
  }

  // The serving benchmark's bulk model shape: D = 256, 32 channels, 8
  // levels, N = 3 — encode-bound on the host, unlike the paper point.
  // encode_trials there runs 20-sample trials cut from EMG active segments.
  {
    const std::size_t dim = 256;
    const std::vector<Word> majority_matrix =
        detail::random_words(max_majority_rows * words_for_dim(dim), rng);
    for (const kernels::Backend* backend : backends) {
      const kernels::ScopedBackend forced(backend);
      push_majority_row(backend, dim, majority_matrix, max_majority_rows);
      push_spatial_row(backend, dim, 32, 8);
    }

    emg::GeneratorConfig gen;
    gen.subjects = 1;
    gen.channels = 32;
    const emg::EmgDataset ds = emg::generate_dataset(gen);
    const emg::ProtocolConfig protocol;
    std::vector<hd::Trial> segments;
    for (const emg::EmgTrial* trial : ds.subject_trials(0)) {
      segments.push_back(emg::active_segment(trial->envelope, protocol));
    }
    hd::ClassifierConfig cfg;
    cfg.dim = dim;
    cfg.channels = gen.channels;
    cfg.levels = 8;
    cfg.max_value = gen.max_amplitude_mv;
    cfg.ngram = 3;
    hd::HdClassifier clf(cfg);
    std::vector<hd::Trial> trials(trials_batch);
    for (std::size_t t = 0; t < trials_batch; ++t) {
      const hd::Trial& segment = segments[t % segments.size()];
      const std::size_t offset = rng.next_below(segment.size() - samples_per_trial + 1);
      const auto first = segment.begin() + static_cast<std::ptrdiff_t>(offset);
      trials[t].assign(first, first + static_cast<std::ptrdiff_t>(samples_per_trial));
    }
    push_encode_trials_rows(clf, trials);
  }
  return rows;
}

inline void write_bench_json(const std::vector<BenchRow>& rows, const std::string& path,
                             const SuiteOptions& opt) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_bench_json: cannot open " + path);
  out << "{\n  \"schema\": \"pulphd-bench-v1\",\n  \"bench\": \"bench_hd_ops\",\n";
  out << "  \"cpu_features\": \"" << cpu_feature_summary() << "\",\n";
  // Thread-scaling rows are only meaningful relative to the runner: with
  // `cores` == 1 the shared pool has zero workers and every threads > 1 row
  // legitimately matches the threads == 1 row (the PR 4 diagnosis of the
  // flat 1/2/4 rows — the runner, not the sharding, was the limit).
  out << "  \"cores\": " << ThreadPool::hardware_threads() << ",\n";
  out << "  \"pool_workers\": " << ThreadPool::shared().workers() << ",\n";
  out << "  \"quick\": " << (opt.quick ? "true" : "false") << ",\n  \"rows\": [\n";
  char buf[64];
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    out << "    {\"kernel\": \"" << r.kernel << "\", \"backend\": \"" << r.backend
        << "\", \"threads\": " << r.threads << ", \"dim\": " << r.dim
        << ", \"batch\": " << r.batch;
    std::snprintf(buf, sizeof(buf), "%.2f", r.ns_per_query);
    out << ", \"ns_per_query\": " << buf;
    std::snprintf(buf, sizeof(buf), "%.3f", r.gb_per_s);
    out << ", \"gb_per_s\": " << buf;
    out << ", \"reps\": " << r.reps << ", \"warmup\": " << r.warmup << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  if (!out.flush()) throw std::runtime_error("write_bench_json: write failed: " + path);
}

/// Parses one command-line argument of the shared suite (`--quick`,
/// `--out=PATH`); returns true when the argument was consumed.
inline bool parse_suite_arg(const char* arg, SuiteOptions& opt, std::string& out_path) {
  if (std::strcmp(arg, "--quick") == 0) {
    opt.quick = true;
    return true;
  }
  if (std::strncmp(arg, "--out=", 6) == 0) {
    out_path = arg + 6;
    return true;
  }
  return false;
}

inline void print_rows(const std::vector<BenchRow>& rows) {
  std::printf("%-26s %-9s %7s %7s %7s %14s %10s\n", "kernel", "backend", "threads", "dim",
              "batch", "ns/query", "GB/s");
  for (const BenchRow& r : rows) {
    std::printf("%-26s %-9s %7zu %7zu %7zu %14.2f %10.3f\n", r.kernel.c_str(),
                r.backend.c_str(), r.threads, r.dim, r.batch, r.ns_per_query, r.gb_per_s);
  }
}

/// The shared body of both benchmark mains: banner, suite, table, JSON.
inline void run_suite_and_write(const SuiteOptions& opt, const std::string& out_path) {
  std::printf("cpu features: %s; active backend: %s; cores: %zu; pool workers: %zu\n",
              cpu_feature_summary().c_str(), kernels::active_backend().name,
              ThreadPool::hardware_threads(), ThreadPool::shared().workers());
  const std::vector<BenchRow> rows = run_backend_suite(opt);
  print_rows(rows);
  write_bench_json(rows, out_path, opt);
  std::printf("wrote %s (%zu rows)\n", out_path.c_str(), rows.size());
}

}  // namespace pulphd::benchjson
