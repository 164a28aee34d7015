// google-benchmark microbenchmarks of the host-side HD library: raw
// wall-clock throughput of the MAP operations (not part of the paper's
// tables; a sanity harness for the golden model's performance).
//
// The custom main below first runs the shared JSON kernel-backend suite
// (backend_bench.hpp) and writes BENCH_hd_ops.json — per-kernel rows of
// {backend, threads, dim, ns/query, GB/s} with warmup + median-of-N timing
// — then hands any remaining arguments to google-benchmark. `--quick`
// (the CI smoke mode) runs a reduced suite and skips the micro benches.
#include <benchmark/benchmark.h>

#include <string>

#include "bench/backend_bench.hpp"
#include "common/thread_pool.hpp"
#include "hd/associative_memory.hpp"
#include "hd/classifier.hpp"
#include "hd/encoder.hpp"
#include "hd/item_memory.hpp"
#include "hd/ops.hpp"

namespace {

using namespace pulphd;
using hd::Hypervector;

void BM_Bind(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  Xoshiro256StarStar rng(1);
  const Hypervector a = Hypervector::random(dim, rng);
  const Hypervector b = Hypervector::random(dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a ^ b);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_Bind)->Arg(200)->Arg(2000)->Arg(10000);

void BM_Hamming(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  Xoshiro256StarStar rng(2);
  const Hypervector a = Hypervector::random(dim, rng);
  const Hypervector b = Hypervector::random(dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.hamming(b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_Hamming)->Arg(200)->Arg(2000)->Arg(10000);

void BM_Majority(benchmark::State& state) {
  const auto operands = static_cast<std::size_t>(state.range(0));
  Xoshiro256StarStar rng(3);
  std::vector<Hypervector> inputs;
  for (std::size_t i = 0; i < operands; ++i) {
    inputs.push_back(Hypervector::random(10000, rng));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(hd::majority(inputs));
  }
}
BENCHMARK(BM_Majority)->Arg(5)->Arg(9)->Arg(33)->Arg(257);

void BM_Rotate(benchmark::State& state) {
  Xoshiro256StarStar rng(4);
  const Hypervector a = Hypervector::random(10000, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.rotated(1));
  }
}
BENCHMARK(BM_Rotate);

void BM_SpatialEncode(benchmark::State& state) {
  const auto channels = static_cast<std::size_t>(state.range(0));
  const hd::ItemMemory im(channels, 10000, 5);
  const hd::ContinuousItemMemory cim(22, 10000, 0.0, 21.0, 6);
  const hd::SpatialEncoder enc(im, cim, channels);
  std::vector<float> sample(channels, 9.5f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.encode(sample));
  }
}
BENCHMARK(BM_SpatialEncode)->Arg(4)->Arg(64)->Arg(256);

void BM_SpatialEncodeLegacy(benchmark::State& state) {
  // The pre-arena encode path, reproduced for the before/after comparison:
  // bind_channels allocates a fresh std::vector<Hypervector> (one heap
  // hypervector per channel, per sample) and majority() re-walks it. The
  // current encode() picks its rows from the encoder's precomputed
  // bound-row table and thresholds them through the dispatched backend.
  const auto channels = static_cast<std::size_t>(state.range(0));
  const hd::ItemMemory im(channels, 10000, 5);
  const hd::ContinuousItemMemory cim(22, 10000, 0.0, 21.0, 6);
  const hd::SpatialEncoder enc(im, cim, channels);
  std::vector<float> sample(channels, 9.5f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hd::majority(enc.bind_channels(sample)));
  }
}
BENCHMARK(BM_SpatialEncodeLegacy)->Arg(4)->Arg(64)->Arg(256);

// One sample pushed through the public N-gram encoder at the training
// shape (window = n, hop = 1): spatial encode, the sliding N-gram
// recurrence (two rotations and two XORs per sample, whatever n is) and the
// one-gram bundle readout — one emitted hypervector per sample.
void BM_StreamPush(benchmark::State& state) {
  hd::ClassifierConfig cfg;
  cfg.ngram = static_cast<std::size_t>(state.range(0));
  const hd::HdClassifier clf(cfg);
  hd::StreamingEncoder session = clf.make_streaming_encoder();
  session.configure(cfg.ngram, 1);
  Xoshiro256StarStar rng(21);
  std::vector<hd::Sample> samples(16, hd::Sample(cfg.channels));
  for (auto& sample : samples) {
    for (auto& v : sample) v = static_cast<float>(rng.next() % 2100u) / 100.0f;
  }
  std::vector<Hypervector> out;
  std::size_t i = 0;
  for (auto _ : state) {
    out.clear();
    session.push(std::span<const hd::Sample>(&samples[i], 1), out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    i = (i + 1) % samples.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StreamPush)->Arg(2)->Arg(5)->Arg(10);

void BM_Ngram(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256StarStar rng(7);
  std::vector<Hypervector> window;
  for (std::size_t i = 0; i < n; ++i) window.push_back(Hypervector::random(10000, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hd::ngram(window));
  }
}
BENCHMARK(BM_Ngram)->Arg(2)->Arg(5)->Arg(10);

void BM_BundleAccumulate(benchmark::State& state) {
  Xoshiro256StarStar rng(8);
  const Hypervector hv = Hypervector::random(10000, rng);
  hd::BundleAccumulator acc(10000);
  for (auto _ : state) {
    acc.add(hv);
    benchmark::DoNotOptimize(acc.count());
  }
}
BENCHMARK(BM_BundleAccumulate);

// The AM inference hot path: the per-query loop vs. classify_batch, which
// runs the same per-query body over a span. items_processed is queries, so
// the reported items/s is the classify throughput in queries/sec.

hd::AssociativeMemory trained_am(std::size_t classes, std::size_t dim) {
  hd::AssociativeMemory am(classes, dim, 0xbadc0ffeULL);
  Xoshiro256StarStar rng(11);
  for (std::size_t c = 0; c < classes; ++c) {
    am.train(c, Hypervector::random(dim, rng));
  }
  return am;
}

std::vector<Hypervector> random_queries(std::size_t n, std::size_t dim) {
  Xoshiro256StarStar rng(12);
  std::vector<Hypervector> queries;
  queries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) queries.push_back(Hypervector::random(dim, rng));
  return queries;
}

void BM_ClassifyPerQuery(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const hd::AssociativeMemory am = trained_am(5, 10000);
  const std::vector<Hypervector> queries = random_queries(batch, 10000);
  for (auto _ : state) {
    for (const Hypervector& q : queries) {
      benchmark::DoNotOptimize(am.classify(q));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_ClassifyPerQuery)->Arg(1)->Arg(64)->Arg(1024);

void BM_ClassifyBatch(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const hd::AssociativeMemory am = trained_am(5, 10000);
  const std::vector<Hypervector> queries = random_queries(batch, 10000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(am.classify_batch(queries));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_ClassifyBatch)->Arg(1)->Arg(64)->Arg(1024);

// ---------------------------------------------------------------------------
// Multi-threaded batch throughput: the same batch paths sharded over host
// threads. Args are {batch, threads}; items/s is queries (or trials) per
// second, so the thread scaling reads directly off the items/s column.
// threads = 1 takes the serial code path (no pool interaction) and is the
// baseline the 2/4/8-thread rows are compared against; every thread count
// produces bit-identical decisions.
// ---------------------------------------------------------------------------

void BM_ClassifyBatchThreads(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const hd::AssociativeMemory am = trained_am(5, 10000);
  const std::vector<Hypervector> queries = random_queries(batch, 10000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(am.classify_batch(queries, threads));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_ClassifyBatchThreads)
    ->Args({1024, 1})
    ->Args({1024, 2})
    ->Args({1024, 4})
    ->Args({1024, 8});

void BM_PredictBatchThreads(benchmark::State& state) {
  // End-to-end inference (spatial encode -> bundle -> AM lookup) over a
  // batch of trials: the path evaluate_hd drives, where encoding dominates
  // and trial-level sharding approaches linear scaling.
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  hd::ClassifierConfig cfg;  // paper defaults: 10,000-D, 4 channels
  cfg.threads = threads;
  hd::HdClassifier clf(cfg);
  Xoshiro256StarStar rng(15);
  std::vector<hd::Trial> trials(batch);
  for (std::size_t t = 0; t < batch; ++t) {
    for (std::size_t s = 0; s < 20; ++s) {
      hd::Sample sample(cfg.channels);
      for (auto& v : sample) {
        v = static_cast<float>(rng.next() % 2100u) / 100.0f;
      }
      trials[t].push_back(std::move(sample));
    }
    clf.train(trials[t], t % cfg.classes);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(clf.predict_batch(trials));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_PredictBatchThreads)
    ->Args({64, 1})
    ->Args({64, 2})
    ->Args({64, 4})
    ->Args({64, 8})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  pulphd::benchjson::SuiteOptions opt;
  std::string out_path = "BENCH_hd_ops.json";
  // Strip the suite's flags before handing argv to google-benchmark.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (!pulphd::benchjson::parse_suite_arg(argv[i], opt, out_path)) {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  pulphd::benchjson::run_suite_and_write(opt, out_path);
  if (opt.quick) return 0;  // CI smoke: JSON suite only

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
